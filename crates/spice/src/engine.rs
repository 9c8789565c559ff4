//! The characterization engine: the workspace's stand-in for "HSPICE plus a deck generator".
//!
//! A [`CharacterizationEngine`] is bound to one [`TechnologyNode`] and provides the three
//! operations every experiment in the paper is built from:
//!
//! 1. single switching-event simulations (`.TRAN` on one arc at one input condition),
//! 2. sweeps over many input conditions for a fixed process seed (the `.ALTER` loop), and
//! 3. Monte Carlo ensembles over process seeds at fixed input conditions.
//!
//! Sweeps and ensembles are thin wrappers over one worklist entry point,
//! [`CharacterizationEngine::solve`], which takes a compact [`LaneSet`], deduplicates it
//! by cache key and pays the missing keys in full-quad batches on one flat worker pool.
//!
//! Every transient simulation increments a shared [`SimulationCounter`].  The paper's
//! reported speedups are ratios of simulation counts at equal accuracy, so the counter is
//! the basis of all cost accounting in `slic-core` and the benches.

use crate::backend::{LocalBackend, SimRequest, SimulationBackend};
use crate::cache::{SimKey, SimulationCache};
use crate::input::{InputPoint, InputSpace};
use crate::lanes::LaneSet;
use crate::measure::TimingMeasurement;
use crate::transient::TransientConfig;
use rayon::prelude::*;
use slic_cells::{Cell, EquivalentInverter, TimingArc};
use slic_device::{ProcessSample, TechnologyNode};
use slic_obs::metrics::{LANE_BUCKETS, LATENCY_BUCKETS_NS};
use slic_obs::{Observability, SpanGuard};
use slic_units::{Amperes, Seconds};
use std::collections::BTreeSet;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One fully-specified lane of a mixed worklist: cell, arc, input point and process seed.
pub type MixedLane = (Cell, TimingArc, InputPoint, ProcessSample);

/// Lanes per backend batch of a [`solve`](CharacterizationEngine::solve): a multiple of
/// four so the SIMD kernel's quads fill, small enough that every worker has several
/// batches to claim, and at most 16.
fn quad_batch_width(lanes: usize) -> usize {
    let threads = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    lanes.div_ceil(4 * threads).next_multiple_of(4).clamp(4, 16)
}

/// Distinct cache keys per pass-1 lookup task of a [`solve`](CharacterizationEngine::solve).
const LOOKUP_CHUNK: usize = 64;

/// An invalid [`TransientConfig`] was supplied to an engine constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: String) -> Self {
        Self { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid transient configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// A cloneable handle onto a shared count of transient simulations.
#[derive(Debug, Clone, Default)]
pub struct SimulationCounter {
    count: Arc<AtomicU64>,
}

impl SimulationCounter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds `n` simulations to the count.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Resets the count to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }
}

/// Shared dispatch counters of one engine (and its clones): how the requests of every
/// [`solve`](CharacterizationEngine::solve) were resolved.  Every request lands in exactly
/// one bucket, so `dispatched == cached + claimed + deferred` at any quiescent point —
/// the invariant the post-run dispatch summary and the deferral regression tests check.
#[derive(Debug, Default)]
struct DispatchCounters {
    dispatched: AtomicU64,
    cached: AtomicU64,
    claimed: AtomicU64,
    deferred: AtomicU64,
}

/// A point-in-time copy of an engine's dispatch counters.
///
/// `lanes_deferred` counts requests whose coordinate was already in flight — claimed by
/// another caller, or by an earlier lane of the same solve — when they were dispatched:
/// they wait for the owner's store and are then answered from the cache, so they are
/// never paid twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchSnapshot {
    /// Requests submitted through [`solve`](CharacterizationEngine::solve).
    pub lanes_dispatched: u64,
    /// Requests answered from the simulation cache without solving.
    pub lanes_cached: u64,
    /// Lanes this engine claimed and paid for in a batched worklist.
    pub lanes_claimed: u64,
    /// Requests that waited on an in-flight claim of their coordinate.
    pub lanes_deferred: u64,
}

/// The set of cache coordinates currently being solved, shared by every clone of one
/// engine.  It implements single-flight deduplication: when two workers miss on the same
/// coordinate concurrently, exactly one runs the solver and the others wait for its
/// result, so a coordinate is never paid for twice within a process and the simulation
/// totals of a run are deterministic regardless of thread interleaving.
#[derive(Debug, Default)]
struct InFlight {
    keys: Mutex<BTreeSet<SimKey>>,
    done: Condvar,
}

/// Removes an in-flight claim when the owning solve finishes — including by panic, so
/// sibling workers waiting on the coordinate wake up and retry instead of hanging.
struct InFlightClaim<'a> {
    inflight: &'a InFlight,
    key: &'a SimKey,
}

impl Drop for InFlightClaim<'_> {
    fn drop(&mut self) {
        let mut keys = self
            .inflight
            .keys
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        keys.remove(self.key);
        self.inflight.done.notify_all();
    }
}

/// Removes a *set* of in-flight claims when a batched solve finishes — including by
/// panic, so workers waiting on any of the coordinates wake up and retry.
struct BatchClaims<'a> {
    inflight: &'a InFlight,
    keys: Vec<SimKey>,
}

impl Drop for BatchClaims<'_> {
    fn drop(&mut self) {
        let mut keys = self
            .inflight
            .keys
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for key in &self.keys {
            keys.remove(key);
        }
        self.inflight.done.notify_all();
    }
}

/// The per-lane result table of one [`solve`](CharacterizationEngine::solve), written by
/// whichever worker settles each lane.
struct LaneResults {
    table: Mutex<(Vec<TimingMeasurement>, usize)>,
}

impl LaneResults {
    /// A table of `lanes` unset entries; the fill count proves each is overwritten.
    fn new(lanes: usize) -> Self {
        let unset = TimingMeasurement {
            delay: Seconds(0.0),
            output_slew: Seconds(0.0),
        };
        Self {
            table: Mutex::new((vec![unset; lanes], 0)),
        }
    }

    /// Writes each measurement to every lane of its group.
    fn fill<'g>(&self, settled: impl IntoIterator<Item = (&'g [u32], TimingMeasurement)>) {
        let mut table = self
            .table
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for (group, m) in settled {
            for &lane in group {
                table.0[lane as usize] = m;
            }
            table.1 += group.len();
        }
    }

    /// The finished table.
    fn into_values(self) -> Vec<TimingMeasurement> {
        let (values, filled) = self
            .table
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // slic-lint: allow(P1) -- structural: every lane belongs to exactly one group, and every group is filled once, by its pass-1 hit or by the batch that settles it.
        assert_eq!(filled, values.len(), "every lane resolved exactly once");
        values
    }
}

/// A simulator front-end bound to one technology node.
#[derive(Clone)]
pub struct CharacterizationEngine {
    tech: Arc<TechnologyNode>,
    config: TransientConfig,
    counter: SimulationCounter,
    cache: Option<Arc<dyn SimulationCache>>,
    backend: Arc<dyn SimulationBackend>,
    inflight: Arc<InFlight>,
    dispatch: Arc<DispatchCounters>,
    obs: Observability,
}

impl fmt::Debug for CharacterizationEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CharacterizationEngine")
            .field("tech", &self.tech)
            .field("config", &self.config)
            .field("counter", &self.counter)
            .field("cache", &self.cache.as_ref().map(|_| "..."))
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl CharacterizationEngine {
    /// Creates an engine with the accurate (baseline-grade) transient settings.
    pub fn new(tech: TechnologyNode) -> Self {
        Self::with_config(tech, TransientConfig::accurate())
            // slic-lint: allow(P1) -- the accurate preset is a compile-time constant that validates; a Result here would force every caller to handle an impossible error.
            .expect("the accurate preset always validates")
    }

    /// Creates an engine with an explicit transient configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first field that fails validation.
    pub fn with_config(tech: TechnologyNode, config: TransientConfig) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError::new)?;
        Ok(Self {
            tech: Arc::new(tech),
            config,
            counter: SimulationCounter::new(),
            cache: None,
            backend: Arc::new(LocalBackend::new()),
            inflight: Arc::new(InFlight::default()),
            dispatch: Arc::new(DispatchCounters::default()),
            obs: Observability::default(),
        })
    }

    /// Replaces this engine's counter with a shared one, so simulation costs from several
    /// engines (one per technology, or one per pipeline stage) aggregate into one total.
    #[must_use]
    pub fn with_shared_counter(mut self, counter: SimulationCounter) -> Self {
        self.counter = counter;
        self
    }

    /// Attaches a simulation cache.  Subsequent [`simulate`](Self::simulate) calls answer
    /// repeated coordinates from the cache without running the solver and without
    /// incrementing the simulation counter.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<dyn SimulationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached simulation cache, if any.
    pub fn cache(&self) -> Option<&Arc<dyn SimulationCache>> {
        self.cache.as_ref()
    }

    /// Replaces the backend that executes transient solves.  The counter, cache and
    /// single-flight layering stay on this engine's side of the boundary, so a backend
    /// swap cannot change what a run pays for — only where the solves execute.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn SimulationBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The backend executing this engine's transient solves.
    pub fn backend(&self) -> &Arc<dyn SimulationBackend> {
        &self.backend
    }

    /// Attaches the display-only observability bundle (trace recorder + metrics
    /// registry).  Spans and counters are recorded *around* dispatch, never inside a
    /// result path, so attaching a recorder cannot change any artifact byte.
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// The observability bundle in use (disabled/no-op by default).
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// This engine rebound to `tech`: the transient configuration, counter, cache,
    /// backend, in-flight set, dispatch counters and observability are all shared with
    /// `self`, so work on another node (historical learning, say) pays into the same
    /// totals and shows up in the same run-wide counters.  Cache keys carry the
    /// technology name, so the two nodes' coordinates never alias.
    #[must_use]
    pub fn for_technology(&self, tech: TechnologyNode) -> Self {
        Self {
            tech: Arc::new(tech),
            ..self.clone()
        }
    }

    /// The technology this engine simulates.
    pub fn tech(&self) -> &TechnologyNode {
        &self.tech
    }

    /// The transient solver configuration in use.
    pub fn config(&self) -> &TransientConfig {
        &self.config
    }

    /// Handle onto the shared simulation counter.
    pub fn counter(&self) -> &SimulationCounter {
        &self.counter
    }

    /// Total number of transient simulations run so far (across clones of this engine).
    pub fn simulation_count(&self) -> u64 {
        self.counter.count()
    }

    /// Snapshot of the batched-dispatch counters (shared across clones of this engine).
    pub fn dispatch_stats(&self) -> DispatchSnapshot {
        DispatchSnapshot {
            lanes_dispatched: self.dispatch.dispatched.load(Ordering::Relaxed),
            lanes_cached: self.dispatch.cached.load(Ordering::Relaxed),
            lanes_claimed: self.dispatch.claimed.load(Ordering::Relaxed),
            lanes_deferred: self.dispatch.deferred.load(Ordering::Relaxed),
        }
    }

    /// The default characterization input space of this technology (paper ranges for slew
    /// and load, the technology's own supply window).
    pub fn input_space(&self) -> InputSpace {
        InputSpace::paper_space(self.tech.vdd_range())
    }

    /// Builds the equivalent inverter of `cell` under `seed`.
    pub fn equivalent_inverter(&self, cell: Cell, seed: &ProcessSample) -> EquivalentInverter {
        EquivalentInverter::build(&self.tech, cell, seed)
    }

    /// Effective switching current (Eq. 4) of the arc's driving device at the given supply.
    ///
    /// This is a pair of DC operating-point evaluations, not a transient simulation, so it
    /// does not increment the simulation counter — matching the paper's assumption that
    /// `Ieff` per input vector is available from performance modelling.
    pub fn ieff(&self, arc: &TimingArc, point: &InputPoint, seed: &ProcessSample) -> Amperes {
        self.equivalent_inverter(arc.cell(), seed)
            .ieff(arc, point.vdd)
    }

    /// Runs one transient simulation of `arc` at `point` under process seed `seed`.
    ///
    /// With a cache attached, concurrent requests for one coordinate are single-flighted:
    /// the first requester solves while the others wait and are then answered from the
    /// cache, so each unique coordinate is simulated (and counted) exactly once per
    /// process and the run's cost totals are deterministic under any thread schedule.
    ///
    /// # Panics
    ///
    /// Panics if the transient solver cannot complete the transition — with the supported
    /// technologies and the paper input space this only happens for unphysical inputs, and
    /// failing loudly is preferable to silently corrupting a characterization campaign.
    pub fn simulate(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
    ) -> TimingMeasurement {
        let Some(cache) = self.cache.as_ref() else {
            return self.solve_one(cell, arc, point, seed);
        };
        let key = SimKey::new(self.tech.name(), arc, point, seed, &self.config);
        if let Some(measurement) = cache.lookup(&key) {
            return measurement;
        }
        // Miss: claim the coordinate, or wait for whichever worker already owns it.
        {
            // A poisoned in-flight set only means a sibling solve panicked; its claim was
            // already released by InFlightClaim's Drop, so the set is consistent — recover
            // it instead of cascading the panic into every waiting worker.
            let mut keys = self
                .inflight
                .keys
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                if let Some(measurement) = cache.lookup(&key) {
                    return measurement;
                }
                if !keys.contains(&key) {
                    keys.insert(key.clone());
                    break;
                }
                keys = self
                    .inflight
                    .done
                    .wait(keys)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        let claim = InFlightClaim {
            inflight: &self.inflight,
            key: &key,
        };
        let measurement = self.solve_one(cell, arc, point, seed);
        cache.store(key.clone(), measurement);
        drop(claim);
        measurement
    }

    /// Assembles the backend request for one lane.
    fn request(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
    ) -> SimRequest {
        SimRequest {
            tech: self.tech.clone(),
            cell,
            arc: *arc,
            point: *point,
            seed: *seed,
            config: self.config,
        }
    }

    /// Runs the solver unconditionally (through the configured backend) and counts the
    /// simulation.
    fn solve_one(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
    ) -> TimingMeasurement {
        let request = self.request(cell, arc, point, seed);
        self.counter.add(1);
        self.backend
            .solve_batch(std::slice::from_ref(&request))
            .pop()
            // slic-lint: allow(P1) -- one-request-in/one-result-out is the SimulationBackend contract; a short reply is a broken backend, not a recoverable state.
            .expect("backend returns one result per request")
            .unwrap_or_else(|err| {
                // slic-lint: allow(P1) -- a failed transient means unphysical inputs or a diverged solver; archiving a partial table would poison every downstream artifact, so failing loudly is the contract.
                panic!(
                    "transient simulation failed for {} at {point}: {err}",
                    arc.id()
                )
            })
    }

    /// The cache key of lane `lane` of `lanes`.
    fn key_of(&self, lanes: &LaneSet, lane: u32) -> SimKey {
        let (_, arc, point, seed) = lanes.lane(lane);
        SimKey::new(self.tech.name(), &arc, &point, &seed, &self.config)
    }

    /// Solves every lane of `lanes` and returns one measurement per lane, in lane order —
    /// the engine's one worklist entry point; the sweep and Monte Carlo helpers below
    /// build a [`LaneSet`] and call it.  Each result is bitwise identical to
    /// [`simulate`](Self::simulate) at the same coordinates: how lanes are grouped into
    /// batches changes only where and when the work runs, never what a run pays for or
    /// produces.
    ///
    /// With a cache attached, lanes are deduplicated by cache key.  Each distinct key
    /// gets one counted lookup; a miss is paid and stored once.  Every further request —
    /// a repeat declared with [`LaneSet::request`] or a second lane with the same
    /// coordinates — is answered by a lookup after the store, so each request still
    /// resolves to exactly one cache hit or one miss.  The missing keys are solved in
    /// full-quad batches (lane counts that are multiples of four, except the tail) that
    /// `available_parallelism` workers claim from one shared cursor, under the same
    /// single-flight claims as [`simulate`](Self::simulate): a key already in flight on
    /// another caller is waited for, never paid twice.  Without a cache every lane is
    /// paid and a lane's repeats share its result.
    ///
    /// Every request lands in exactly one dispatch bucket: *cached* (answered by a
    /// lookup that found an entry already there, or a declared repeat of a lane this
    /// call solved), *claimed* (paid by this call) or *deferred* (its key was in flight
    /// — claimed by another caller, or by an earlier lane of this call with the same
    /// coordinates — when it was dispatched).
    pub fn solve(&self, lanes: &LaneSet) -> Vec<TimingMeasurement> {
        let requests = lanes.request_count();
        let span = self.obs.trace.span(
            "solve",
            &[
                ("lanes", lanes.len().to_string()),
                ("requests", requests.to_string()),
            ],
        );
        self.dispatch
            .dispatched
            .fetch_add(requests, Ordering::Relaxed);
        // Workers write each settled lane straight into the result table, so the solve
        // holds one measurement per lane and nothing per batch.
        let results = LaneResults::new(lanes.len());
        let Some(cache) = self.cache.as_ref() else {
            let all: Vec<u32> = (0..lanes.len() as u32).collect();
            self.dispatch
                .cached
                .fetch_add(requests - lanes.len() as u64, Ordering::Relaxed);
            self.in_quad_batches(&all, span.id(), |batch, _| {
                results.fill(
                    batch
                        .iter()
                        .map(std::slice::from_ref)
                        .zip(self.pay(lanes, batch)),
                );
            });
            return results.into_values();
        };

        let (order, starts) = lanes.key_groups();
        let group = |g: u32| -> &[u32] {
            let end = starts
                .get(g as usize + 1)
                .map_or(order.len(), |&s| s as usize);
            &order[starts[g as usize] as usize..end]
        };
        let group_requests =
            |g: u32| -> u32 { group(g).iter().map(|&l| lanes.requests_of(l)).sum() };
        // Answers `n` more requests of a stored key by lookups (each a counted hit).
        let replay = |key: &SimKey, n: u32, solved: TimingMeasurement| {
            (0..n).fold(solved, |m, _| cache.lookup(key).unwrap_or(m))
        };

        // Pass 1: one counted lookup per distinct key.  A hit answers every request of
        // the key's lanes from the cache; the rest are the missing keys.
        let groups = starts.len() as u32;
        let chunks: Vec<std::ops::Range<u32>> = (0..groups)
            .step_by(LOOKUP_CHUNK)
            .map(|start| start..(start + LOOKUP_CHUNK as u32).min(groups))
            .collect();
        let mut lookup_span = self
            .obs
            .trace
            .span("cache.lookup", &[("keys", groups.to_string())]);
        let missing: Vec<u32> = chunks
            .par_iter()
            .map(|chunk| {
                let mut hits = Vec::new();
                let mut missing = Vec::new();
                for g in chunk.clone() {
                    let key = self.key_of(lanes, group(g)[0]);
                    match cache.lookup(&key) {
                        Some(hit) => {
                            let n = group_requests(g);
                            self.dispatch
                                .cached
                                .fetch_add(u64::from(n), Ordering::Relaxed);
                            hits.push((group(g), replay(&key, n - 1, hit)));
                        }
                        None => missing.push(g),
                    }
                }
                let hit_lanes = hits.iter().map(|(lanes, _)| lanes.len() as u64).sum();
                self.obs
                    .metrics
                    .observe("cache.lookup.hit_lanes", hit_lanes, LANE_BUCKETS);
                results.fill(hits);
                missing
            })
            .collect::<Vec<Vec<u32>>>()
            .concat();
        lookup_span.attr("hits", (groups as usize - missing.len()).to_string());
        drop(lookup_span);

        // Pass 2: the missing keys, in full-quad batches on the flat worker pool.
        self.in_quad_batches(&missing, span.id(), |batch, batch_span| {
            let settled =
                self.settle_batch(lanes, batch, &group, cache.as_ref(), batch_span, replay);
            results.fill(batch.iter().map(|&g| group(g)).zip(settled));
        });
        results.into_values()
    }

    /// Runs `settle` over `items` in batches of [`quad_batch_width`] on the flat worker
    /// pool (workers claim batches from one cursor).  Each batch gets a `solve_batch`
    /// span parented explicitly under `parent`, since it may run on a helper thread
    /// whose span stack does not hold the caller's.
    fn in_quad_batches(
        &self,
        items: &[u32],
        parent: Option<u64>,
        settle: impl Fn(&[u32], &mut SpanGuard) + Sync,
    ) {
        let batches: Vec<&[u32]> = items.chunks(quad_batch_width(items.len())).collect();
        batches.par_iter().for_each(|batch| {
            self.obs
                .metrics
                .observe("engine.batch.lanes", batch.len() as u64, LANE_BUCKETS);
            let mut batch_span = self.obs.trace.span_under(
                parent,
                "solve_batch",
                &[("lanes", batch.len().to_string())],
            );
            settle(batch, &mut batch_span);
        });
    }

    /// Pays for `batch` (lane indices of `lanes`) in one backend call, counting every
    /// lane as a claimed simulation.
    fn pay(&self, lanes: &LaneSet, batch: &[u32]) -> Vec<TimingMeasurement> {
        let requests: Vec<SimRequest> = batch
            .iter()
            .map(|&lane| {
                let (cell, arc, point, seed) = lanes.lane(lane);
                self.request(cell, &arc, &point, &seed)
            })
            .collect();
        self.counter.add(batch.len() as u64);
        self.dispatch
            .claimed
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let backend_span = self
            .obs
            .trace
            .span("backend.solve", &[("lanes", batch.len().to_string())]);
        let solved = self.backend.solve_batch(&requests);
        if self.obs.trace.is_enabled() {
            self.obs.metrics.observe(
                "backend.solve.latency_ns",
                backend_span.elapsed_ns(),
                LATENCY_BUCKETS_NS,
            );
        }
        drop(backend_span);
        solved
            .into_iter()
            .zip(requests)
            .map(|(result, request)| {
                result.unwrap_or_else(|err| {
                    // slic-lint: allow(P1) -- same contract as the scalar path: a failed transient must never be archived as a measurement.
                    panic!(
                        "transient simulation failed for {} at {}: {err}",
                        request.arc.id(),
                        request.point
                    )
                })
            })
            .collect()
    }

    /// Settles one batch of key groups that missed the cache in pass 1 and returns one
    /// measurement per group.  Under the in-flight lock each group's primary lane is
    /// looked up again (a sibling may have stored it meanwhile), deferred when another
    /// caller holds its key, or claimed.  The claimed lanes are paid in one backend call
    /// and stored; only after their claims are released are the deferred ones waited for
    /// through the scalar single-flight path — waiting while holding claims could
    /// deadlock two batches against each other.  Finally every further request of each
    /// group is answered by a lookup after the store.
    fn settle_batch<'g>(
        &self,
        lanes: &LaneSet,
        batch: &[u32],
        group: &impl Fn(u32) -> &'g [u32],
        cache: &dyn SimulationCache,
        batch_span: &mut SpanGuard,
        replay: impl Fn(&SimKey, u32, TimingMeasurement) -> TimingMeasurement,
    ) -> Vec<TimingMeasurement> {
        let keys: Vec<SimKey> = batch
            .iter()
            .map(|&g| self.key_of(lanes, group(g)[0]))
            .collect();
        let mut results: Vec<Option<TimingMeasurement>> = vec![None; batch.len()];
        let mut rehit: Vec<usize> = Vec::new();
        let mut claimed: Vec<usize> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        {
            let mut inflight = self
                .inflight
                .keys
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for (i, key) in keys.iter().enumerate() {
                if let Some(m) = cache.lookup(key) {
                    results[i] = Some(m);
                    rehit.push(i);
                } else if inflight.contains(key) {
                    deferred.push(i);
                } else {
                    inflight.insert(key.clone());
                    claimed.push(i);
                }
            }
        }
        batch_span.attr("cached", rehit.len().to_string());
        batch_span.attr("claimed", claimed.len().to_string());
        batch_span.attr("deferred", deferred.len().to_string());

        if !claimed.is_empty() {
            let claims = BatchClaims {
                inflight: &self.inflight,
                keys: claimed.iter().map(|&i| keys[i].clone()).collect(),
            };
            let primaries: Vec<u32> = claimed.iter().map(|&i| group(batch[i])[0]).collect();
            for (&i, m) in claimed.iter().zip(self.pay(lanes, &primaries)) {
                cache.store(keys[i].clone(), m);
                results[i] = Some(m);
            }
            drop(claims);
        }
        for &i in &deferred {
            let (cell, arc, point, seed) = lanes.lane(group(batch[i])[0]);
            results[i] = Some(self.simulate(cell, &arc, &point, &seed));
        }

        // Every request beyond the primary's first: cached when the key was already in
        // the cache (a re-hit) or is a declared repeat of one lane; deferred for the
        // first request of each further lane with the key, which found it in flight.
        let mut cached = 0u64;
        let mut waited = deferred.len() as u64;
        for (i, &g) in batch.iter().enumerate() {
            let members = group(g);
            let n: u32 = members.iter().map(|&l| lanes.requests_of(l)).sum();
            if rehit.contains(&i) {
                cached += u64::from(n);
            } else {
                let copies = members.len() as u64 - 1;
                waited += copies;
                cached += u64::from(n) - 1 - copies;
            }
            // slic-lint: allow(P1) -- structural: every batch index lands in exactly one of rehit/claimed/deferred above, each of which fills its slot.
            let m = results[i].expect("every lane resolved");
            results[i] = Some(replay(&keys[i], n - 1, m));
        }
        self.dispatch.cached.fetch_add(cached, Ordering::Relaxed);
        self.dispatch.deferred.fetch_add(waited, Ordering::Relaxed);
        results.into_iter().flatten().collect()
    }

    /// Simulates an arbitrary mixed worklist — lanes spanning cells, arcs, input points
    /// and process seeds — through [`solve`](Self::solve).  Result `i` corresponds to
    /// `lanes[i]`.
    pub fn simulate_mixed(&self, lanes: &[MixedLane]) -> Vec<TimingMeasurement> {
        let mut set = LaneSet::new();
        for &(cell, arc, point, seed) in lanes {
            set.push(cell, arc, point, seed);
        }
        self.solve(&set)
    }

    /// Runs one transient simulation at the nominal process corner.
    pub fn simulate_nominal(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
    ) -> TimingMeasurement {
        self.simulate(cell, arc, point, &ProcessSample::nominal())
    }

    /// Simulates `arc` at every input point for a fixed process seed (the `.ALTER` sweep)
    /// through [`solve`](Self::solve).  Result `i` corresponds to `points[i]` and is
    /// bitwise identical to [`simulate`](Self::simulate) at that point.
    pub fn sweep(
        &self,
        cell: Cell,
        arc: &TimingArc,
        points: &[InputPoint],
        seed: &ProcessSample,
    ) -> Vec<TimingMeasurement> {
        let mut lanes = LaneSet::new();
        for point in points {
            lanes.push(cell, *arc, *point, *seed);
        }
        self.solve(&lanes)
    }

    /// Simulates `arc` at every input point at the nominal corner.
    pub fn sweep_nominal(
        &self,
        cell: Cell,
        arc: &TimingArc,
        points: &[InputPoint],
    ) -> Vec<TimingMeasurement> {
        self.sweep(cell, arc, points, &ProcessSample::nominal())
    }

    /// Monte Carlo ensemble: simulates `arc` at one input point under every process seed
    /// through [`solve`](Self::solve).  Element `i` of the result corresponds to
    /// `seeds[i]` and is bitwise identical to [`simulate`](Self::simulate) under that seed.
    pub fn monte_carlo(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: &InputPoint,
        seeds: &[ProcessSample],
    ) -> Vec<TimingMeasurement> {
        self.monte_carlo_sweep(cell, arc, std::slice::from_ref(point), seeds)
            .pop()
            .unwrap_or_default()
    }

    /// Full statistical baseline: simulates every (input point, seed) pair through
    /// [`solve`](Self::solve).
    ///
    /// The result is indexed `[point][seed]`.
    pub fn monte_carlo_sweep(
        &self,
        cell: Cell,
        arc: &TimingArc,
        points: &[InputPoint],
        seeds: &[ProcessSample],
    ) -> Vec<Vec<TimingMeasurement>> {
        let mut lanes = LaneSet::new();
        for point in points {
            for seed in seeds {
                lanes.push(cell, *arc, *point, *seed);
            }
        }
        let mut flat = self.solve(&lanes).into_iter();
        points
            .iter()
            .map(|_| flat.by_ref().take(seeds.len()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slic_cells::{CellKind, DriveStrength, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn engine() -> CharacterizationEngine {
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("fast preset validates")
    }

    fn inv_fall() -> (Cell, TimingArc) {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        (cell, TimingArc::new(cell, 0, Transition::Fall))
    }

    fn pt(sin_ps: f64, cload_ff: f64, vdd: f64) -> InputPoint {
        InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        )
    }

    #[test]
    fn simulation_counter_counts_every_run() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        assert_eq!(eng.simulation_count(), 0);
        let _ = eng.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 1);
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let _ = eng.sweep_nominal(cell, &arc, &points);
        assert_eq!(eng.simulation_count(), 4);
        assert_eq!(eng.counter().reset(), 4);
        assert_eq!(eng.simulation_count(), 0);
    }

    #[test]
    fn counter_is_shared_between_clones() {
        let eng = engine();
        let clone = eng.clone();
        let (cell, arc) = inv_fall();
        let _ = clone.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 1);
    }

    #[test]
    fn ieff_does_not_count_as_a_simulation() {
        let eng = engine();
        let (_, arc) = inv_fall();
        let i = eng.ieff(&arc, &pt(5.0, 2.0, 0.8), &ProcessSample::nominal());
        assert!(i.value() > 0.0);
        assert_eq!(eng.simulation_count(), 0);
    }

    #[test]
    fn sweep_results_match_individual_runs() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(8.0, 4.0, 0.7)];
        let swept = eng.sweep_nominal(cell, &arc, &points);
        for (p, m) in points.iter().zip(&swept) {
            let single = eng.simulate_nominal(cell, &arc, p);
            assert_eq!(*m, single, "sweep must be deterministic and ordered");
        }
    }

    #[test]
    fn monte_carlo_produces_spread() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(11);
        let seeds = eng.tech().variation().sample_n(&mut rng, 48);
        let ms = eng.monte_carlo(cell, &arc, &pt(5.0, 2.0, 0.8), &seeds);
        assert_eq!(ms.len(), 48);
        let delays: Vec<f64> = ms.iter().map(|m| m.delay.value()).collect();
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        let sd = (delays.iter().map(|d| (d - mean).powi(2)).sum::<f64>()
            / (delays.len() - 1) as f64)
            .sqrt();
        assert!(sd > 0.0, "process variation must spread the delays");
        assert!(
            sd / mean < 0.5,
            "spread should stay moderate (cv = {})",
            sd / mean
        );
    }

    #[test]
    fn monte_carlo_sweep_shape() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(3);
        let seeds = eng.tech().variation().sample_n(&mut rng, 5);
        let points = vec![pt(2.0, 1.0, 0.8), pt(8.0, 4.0, 0.7), pt(5.0, 2.0, 0.9)];
        let grid = eng.monte_carlo_sweep(cell, &arc, &points, &seeds);
        assert_eq!(grid.len(), 3);
        assert!(grid.iter().all(|row| row.len() == 5));
        assert_eq!(eng.simulation_count(), 15);
    }

    #[test]
    fn input_space_uses_tech_supply_window() {
        let eng = engine();
        let space = eng.input_space();
        let (lo, hi) = space.vdd_range();
        assert_eq!((lo, hi), eng.tech().vdd_range());
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let bad = TransientConfig {
            dv_max_fraction: 0.5,
            ..TransientConfig::fast()
        };
        let err = CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), bad)
            .expect_err("out-of-range dv_max_fraction must be rejected");
        assert!(err.to_string().contains("invalid transient configuration"));
        assert!(err.to_string().contains("dv_max_fraction"));
    }

    #[test]
    fn cache_short_circuits_repeat_simulations() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        let point = pt(5.0, 2.0, 0.8);
        let first = eng.simulate_nominal(cell, &arc, &point);
        assert_eq!(eng.simulation_count(), 1);
        assert_eq!(cache.hits(), 0);
        let second = eng.simulate_nominal(cell, &arc, &point);
        assert_eq!(second, first, "cache must replay the archived measurement");
        assert_eq!(
            eng.simulation_count(),
            1,
            "cache hits must not count as simulations"
        );
        assert_eq!(cache.hits(), 1);
        // A different coordinate still simulates.
        let _ = eng.simulate_nominal(cell, &arc, &pt(6.0, 2.0, 0.8));
        assert_eq!(eng.simulation_count(), 2);
    }

    #[test]
    fn concurrent_identical_requests_solve_once() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        // Sixteen workers racing on one coordinate: single-flight must collapse them to
        // one paid solve; the other fifteen are answered from the cache (counted hits).
        let points = vec![pt(5.0, 2.0, 0.8); 16];
        let measurements = eng.sweep_nominal(cell, &arc, &points);
        assert!(measurements.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(eng.simulation_count(), 1, "one coordinate, one solve");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 15);
    }

    #[test]
    fn monte_carlo_lanes_match_scalar_simulations_bitwise() {
        let eng = engine();
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(7);
        let seeds = eng.tech().variation().sample_n(&mut rng, 9);
        let point = pt(5.0, 2.0, 0.8);
        let batched = eng.monte_carlo(cell, &arc, &point, &seeds);
        for (seed, m) in seeds.iter().zip(&batched) {
            let scalar = eng.simulate(cell, &arc, &point, seed);
            assert_eq!(
                *m, scalar,
                "batch lane must be bitwise equal to its scalar sim"
            );
        }
    }

    #[test]
    fn batched_monte_carlo_replays_from_cache() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        let mut rng = StdRng::seed_from_u64(23);
        let seeds = eng.tech().variation().sample_n(&mut rng, 12);
        let point = pt(5.0, 2.0, 0.8);
        let first = eng.monte_carlo(cell, &arc, &point, &seeds);
        assert_eq!(eng.simulation_count(), 12);
        assert_eq!(cache.misses(), 12);
        let second = eng.monte_carlo(cell, &arc, &point, &seeds);
        assert_eq!(
            second, first,
            "warm batch must replay archived measurements"
        );
        assert_eq!(
            eng.simulation_count(),
            12,
            "warm batch pays zero simulations"
        );
        assert_eq!(cache.hits(), 12);
    }

    #[test]
    fn mixed_worklist_matches_scalar_simulations_bitwise() {
        let eng = engine();
        let inv = Cell::new(CellKind::Inv, DriveStrength::X1);
        let nand = Cell::new(CellKind::Nand2, DriveStrength::X2);
        let mut rng = StdRng::seed_from_u64(41);
        let seeds = eng.tech().variation().sample_n(&mut rng, 3);
        // Lanes spanning cells, arcs, input points and seeds in one worklist.
        let mut lanes: Vec<MixedLane> = Vec::new();
        for (cell, pin) in [(inv, 0), (nand, 1)] {
            for transition in [Transition::Fall, Transition::Rise] {
                let arc = TimingArc::new(cell, pin, transition);
                for (i, seed) in seeds.iter().enumerate() {
                    lanes.push((cell, arc, pt(2.0 + 3.0 * i as f64, 1.5, 0.8), *seed));
                }
            }
        }
        let batched = eng.simulate_mixed(&lanes);
        assert_eq!(eng.simulation_count(), lanes.len() as u64);
        let reference = engine();
        for ((cell, arc, point, seed), m) in lanes.iter().zip(&batched) {
            let scalar = reference.simulate(*cell, arc, point, seed);
            assert_eq!(
                *m, scalar,
                "mixed lane must be bitwise equal to its scalar sim"
            );
        }
    }

    #[test]
    fn dispatch_counters_cover_every_lane_exactly_once() {
        use crate::cache::InMemorySimCache;
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine().with_cache(cache.clone());
        let (cell, arc) = inv_fall();
        let nominal = ProcessSample::nominal();
        // A lane pushed twice with one coordinate exercises the deferral path
        // deterministically: the first copy claims the key, so the second finds it in
        // flight and must be deferred, then answered by a lookup after the store.
        let mut lanes = LaneSet::new();
        lanes.push(cell, arc, pt(5.0, 2.0, 0.8), nominal);
        lanes.push(cell, arc, pt(9.0, 4.0, 0.7), nominal);
        lanes.push(cell, arc, pt(5.0, 2.0, 0.8), nominal);
        let first = eng.solve(&lanes);
        assert_eq!(
            first[0], first[2],
            "deferred duplicate resolves to the same measurement"
        );
        let stats = eng.dispatch_stats();
        assert_eq!(stats.lanes_dispatched, 3);
        assert_eq!(stats.lanes_cached, 0);
        assert_eq!(stats.lanes_claimed, 2);
        assert_eq!(
            stats.lanes_deferred, 1,
            "the in-flight duplicate must be accounted as deferred"
        );
        assert_eq!(eng.simulation_count(), 2, "the duplicate is never re-paid");
        // A warm replay of the same batch resolves every lane from the cache.
        let second = eng.solve(&lanes);
        assert_eq!(second, first);
        let stats = eng.dispatch_stats();
        assert_eq!(stats.lanes_dispatched, 6);
        assert_eq!(stats.lanes_cached, 3);
        assert_eq!(stats.lanes_claimed, 2);
        assert_eq!(stats.lanes_deferred, 1);
        assert_eq!(
            stats.lanes_dispatched,
            stats.lanes_cached + stats.lanes_claimed + stats.lanes_deferred,
            "every dispatched lane lands in exactly one bucket"
        );
    }

    /// A backend that blocks every solve until the test opens a gate, so the test can
    /// pin one coordinate "in flight" while a batch on another thread dispatches it.
    #[derive(Debug)]
    struct GatedBackend {
        state: Mutex<(u64, bool)>,
        changed: Condvar,
        inner: LocalBackend,
    }

    impl GatedBackend {
        fn new() -> Self {
            Self {
                state: Mutex::new((0, false)),
                changed: Condvar::new(),
                inner: LocalBackend::new(),
            }
        }

        /// Blocks until `n` solve calls have entered the gate.
        fn wait_entered(&self, n: u64) {
            let mut state = self.state.lock().unwrap();
            while state.0 < n {
                state = self.changed.wait(state).unwrap();
            }
        }

        /// Opens the gate, releasing every blocked solve.
        fn release(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl SimulationBackend for GatedBackend {
        fn name(&self) -> &str {
            "gated"
        }

        fn solve_batch(&self, requests: &[SimRequest]) -> Vec<crate::backend::SimResult> {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
            drop(state);
            self.inner.solve_batch(requests)
        }
    }

    #[test]
    fn cross_thread_deferral_is_counted_and_bitwise_consistent() {
        use crate::cache::InMemorySimCache;
        let backend = Arc::new(GatedBackend::new());
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine()
            .with_cache(cache.clone())
            .with_backend(backend.clone());
        let (cell, arc) = inv_fall();
        let nominal = ProcessSample::nominal();
        let contended = pt(5.0, 2.0, 0.8);
        let fresh = pt(9.0, 4.0, 0.7);

        // Worker A claims the contended coordinate through the scalar path and blocks
        // inside the backend, holding its in-flight claim.
        let eng_a = eng.clone();
        let a = std::thread::spawn(move || eng_a.simulate(cell, &arc, &contended, &nominal));
        backend.wait_entered(1);

        // Worker B's worklist includes the contended coordinate: it must defer that
        // lane, claim and solve the fresh one, then wait for A's result.
        let eng_b = eng.clone();
        let b = std::thread::spawn(move || {
            let mut lanes = LaneSet::new();
            lanes.push(cell, arc, contended, nominal);
            lanes.push(cell, arc, fresh, nominal);
            eng_b.solve(&lanes)
        });
        backend.wait_entered(2);
        backend.release();

        let from_a = a.join().expect("worker A completes");
        let from_b = b.join().expect("worker B completes");
        assert_eq!(
            from_b[0], from_a,
            "the deferred lane resolves to the claim owner's measurement"
        );
        let stats = eng.dispatch_stats();
        assert_eq!(stats.lanes_dispatched, 2, "only the batch dispatches lanes");
        assert_eq!(stats.lanes_cached, 0);
        assert_eq!(stats.lanes_claimed, 1);
        assert_eq!(
            stats.lanes_deferred, 1,
            "the lane owned by worker A must be accounted as deferred"
        );
        assert_eq!(eng.simulation_count(), 2, "the contended lane is paid once");
    }

    /// A backend that counts the lanes it is asked to solve and delegates to the local
    /// kernel — proves the engine routes every paid solve (and only paid solves) through
    /// the backend boundary.
    #[derive(Debug, Default)]
    struct CountingBackend {
        lanes: AtomicU64,
        inner: LocalBackend,
    }

    impl SimulationBackend for CountingBackend {
        fn name(&self) -> &str {
            "counting"
        }

        fn solve_batch(&self, requests: &[SimRequest]) -> Vec<crate::backend::SimResult> {
            self.lanes
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
            self.inner.solve_batch(requests)
        }
    }

    #[test]
    fn backend_sees_every_paid_solve_and_no_cache_hit() {
        use crate::cache::InMemorySimCache;
        let backend = Arc::new(CountingBackend::default());
        let cache = Arc::new(InMemorySimCache::new());
        let eng = engine()
            .with_cache(cache.clone())
            .with_backend(backend.clone());
        assert_eq!(eng.backend().name(), "counting");
        let (cell, arc) = inv_fall();
        let points = vec![pt(2.0, 1.0, 0.8), pt(5.0, 2.0, 0.9), pt(9.0, 4.0, 0.7)];
        let first = eng.sweep_nominal(cell, &arc, &points);
        assert_eq!(backend.lanes.load(Ordering::Relaxed), 3);
        assert_eq!(eng.simulation_count(), 3);
        // Warm replay: answered from the cache, so the backend must not be consulted.
        let second = eng.sweep_nominal(cell, &arc, &points);
        assert_eq!(second, first);
        assert_eq!(
            backend.lanes.load(Ordering::Relaxed),
            3,
            "cache hits bypass the backend"
        );
        // And a backend-routed lane is bitwise identical to the default local backend.
        let local = engine().sweep_nominal(cell, &arc, &points);
        assert_eq!(first, local);
    }

    #[test]
    fn shared_counter_aggregates_across_engines() {
        let counter = SimulationCounter::new();
        let a = engine().with_shared_counter(counter.clone());
        let b = CharacterizationEngine::with_config(
            TechnologyNode::n16_finfet(),
            TransientConfig::fast(),
        )
        .expect("fast preset validates")
        .with_shared_counter(counter.clone());
        let (cell, arc) = inv_fall();
        let _ = a.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        let _ = b.simulate_nominal(cell, &arc, &pt(5.0, 2.0, 0.8));
        assert_eq!(counter.count(), 2);
    }
}
