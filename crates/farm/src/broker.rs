//! The broker side of the farm: [`FarmBackend`], a [`SimulationBackend`] that fans
//! batches out to a fleet of workers.
//!
//! Dispatch is **work-stealing**: each `solve_batch` call splits its lanes into jobs on a
//! shared queue, and one dispatcher thread per live worker pulls the next job whenever
//! its worker is free — a fast worker simply drains more of the queue, and no static
//! partition can leave one worker idle while another is backed up.
//!
//! Failure handling is a **degradation ladder**, with every rung accounted for in
//! [`FarmStats`]:
//!
//! 1. **Heartbeats** — before dispatching, each TCP worker answers a `ping`/`pong` round
//!    trip under a short deadline, so a half-open connection (host vanished, NAT state
//!    expired) is caught between batches instead of stalling a dispatch into the full
//!    60 s batch deadline.  A missed heartbeat drops the connection (`heartbeats_missed`)
//!    and hands the worker to the reconnect supervisor.
//! 2. **Failover** — a job whose round trip fails goes back on the queue (`failovers`,
//!    the per-job retry count), where another worker picks it up.
//! 3. **Reconnection** — a dead worker is no longer dead forever: the broker re-dials it
//!    on a seeded, deterministic exponential-backoff-with-jitter schedule
//!    ([`BackoffPolicy`]) and re-admits it after a fresh [`Hello`](crate::wire::Hello)
//!    handshake (`reconnects`).  Requeued jobs wait on the queue while workers
//!    re-admit, so a flapping fleet still finishes remotely.  Only a worker whose whole
//!    re-dial budget fails is retired for the rest of the run.
//! 4. **Local fallback** — a job that exhausts its retry budget, or is still queued when
//!    every worker is retired, is solved in-process by a [`LocalBackend`]
//!    (`degraded_jobs`, `lanes_local`).  A farm run therefore *completes* under any
//!    failure pattern short of the broker itself dying, and because every backend runs
//!    the same kernel (enforced by the handshake), the results are bitwise identical no
//!    matter which worker — or the broker itself — solved each lane.
//!
//! Spawned stdio children get the same hang protection a TCP deadline provides: a
//! watchdog thread arms around every pipe round trip and kills the child past
//! `BATCH_TIMEOUT`, which closes its pipes and fails the job over like a TCP timeout.
//!
//! All resilience timing (backoff delays, heartbeat deadlines) is seeded or constant and
//! stays strictly on the *scheduling* side: it decides when and where a lane is solved,
//! never what the solution is, so farm artifacts remain byte-identical to local ones
//! under any injected fault — the invariant the chaos suite and CI `cmp` gates pin.
//!
//! The broker keeps the engine-side policy untouched: counting, caching and single-flight
//! all happen in the [`CharacterizationEngine`](slic_spice::CharacterizationEngine) that
//! owns this backend, so a unique coordinate is paid for exactly once across the whole
//! farm.

use crate::backoff::{splitmix64, BackoffPolicy};
use crate::wire::{decode_message, encode_message, Message, WireError, WireRequest};
use crate::FarmError;
use slic_obs::Observability;
use slic_spice::{LocalBackend, SimRequest, SimResult, SimulationBackend};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Deadline for establishing a TCP worker connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Deadline for one batch round trip.  Solving a 16-lane batch takes milliseconds even
/// at the accurate preset, so a worker silent this long is hung or unreachable — it is
/// marked dead and its job fails over, instead of stalling the whole run on a blocked
/// read.  TCP connections enforce it as a socket read/write timeout; spawned stdio
/// children (no pipe deadline in std) get a [`PipeWatchdog`] that kills the child past
/// the same deadline, closing its pipes and unblocking the read with EOF.
const BATCH_TIMEOUT: Duration = Duration::from_secs(60);

/// How a worker is (re-)dialed: the broker remembers every worker's origin so the
/// reconnect supervisor can bring it back — re-connect a TCP address, re-spawn a child.
enum WorkerEndpoint {
    /// `host:port` of a `slic worker --listen` process.
    Tcp(String),
    /// The binary to run as `<program> worker` over stdio pipes.
    Spawn(PathBuf),
}

/// An established, handshook connection to one worker.
struct WorkerConn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    /// The TCP stream behind reader/writer (`None` for stdio children); retained so the
    /// heartbeat can tighten and restore the read deadline.
    stream: Option<TcpStream>,
    /// The subprocess behind the connection, shared with the pipe watchdog so a hung
    /// child can be killed while the round trip is still blocked on its pipe.
    child: Arc<Mutex<Option<Child>>>,
}

impl Drop for WorkerConn {
    fn drop(&mut self) {
        let mut child = self
            .child
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(child) = child.as_mut() {
            // The connection is gone (shutdown sent, or the worker was marked dead): make
            // sure the subprocess does not linger.  Kill is a no-op for an already-exited
            // child; wait reaps it either way.
            let _ = child.kill();
            let _ = child.wait();
        }
        *child = None;
    }
}

/// One worker slot: identity, origin, and the (lockable) connection, `None` while down.
struct WorkerSlot {
    name: String,
    endpoint: WorkerEndpoint,
    /// Per-slot jitter stream for the re-dial schedule, derived from the fleet seed so
    /// workers spread their re-dials instead of synchronizing.
    backoff_seed: u64,
    conn: Mutex<Option<WorkerConn>>,
    /// Serializes re-dial campaigns: one dispatcher pays the backoff schedule while the
    /// rest keep draining the queue on their own workers.
    redial: Mutex<()>,
    /// Permanently retired: the whole reconnect budget failed.  Never dialed again.
    gone: AtomicBool,
}

/// Resilience knobs of a [`FarmBackend`], all deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmTuning {
    /// Dispatch attempts per job before it degrades to the local fallback.
    /// `None` = the fleet size (every worker gets one shot), the pre-resilience rule.
    pub retry_budget: Option<usize>,
    /// Re-dials per reconnect campaign before a worker is retired for the run.
    /// `0` restores the old dead-forever behaviour.
    pub reconnect_attempts: u32,
    /// First-attempt ceiling of the re-dial backoff schedule, in milliseconds.
    pub backoff_base_ms: u64,
    /// Hard ceiling of any single re-dial delay, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the backoff jitter streams (per-worker streams are derived from it).
    pub backoff_seed: u64,
    /// Probe TCP workers with `ping`/`pong` before each dispatch wave.
    pub heartbeat: bool,
    /// Read deadline for one heartbeat round trip, in milliseconds.
    pub heartbeat_timeout_ms: u64,
}

impl Default for FarmTuning {
    fn default() -> Self {
        Self {
            retry_budget: None,
            reconnect_attempts: 4,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            // Any fixed constant keeps the default schedule deterministic; runs that
            // want per-run jitter derive a seed from their RunConfig (see slic-pipeline).
            backoff_seed: 0x51ac_0fa2,
            heartbeat: true,
            heartbeat_timeout_ms: 5_000,
        }
    }
}

/// Farm throughput and failure counters, readable while a run is in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Jobs answered by a worker.
    pub jobs_completed: u64,
    /// Job retries: dispatch attempts that failed and sent the job back for another try
    /// (or, once its budget was spent, to the local fallback).
    pub failovers: u64,
    /// Dead workers re-admitted to the fleet after a successful re-dial + handshake.
    pub reconnects: u64,
    /// Heartbeat probes that went unanswered, each dropping a half-open connection.
    pub heartbeats_missed: u64,
    /// Jobs that exhausted their retry budget (or outlived the fleet) and degraded to
    /// the in-process fallback.
    pub degraded_jobs: u64,
    /// Lanes solved on a worker.
    pub lanes_remote: u64,
    /// Lanes solved by the broker's local fallback.
    pub lanes_local: u64,
}

/// A contiguous run of lanes handed to one worker as one wire batch.
struct Job {
    /// Start offset into the request slice.
    start: usize,
    /// One past the last lane.
    end: usize,
    /// Dispatch attempts so far (drives the retry budget).
    attempts: usize,
}

/// The shared dispatch state of one `solve_batch` call.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    in_flight: usize,
}

impl JobQueue {
    fn new(jobs: VecDeque<Job>) -> Self {
        Self {
            state: Mutex::new(QueueState { jobs, in_flight: 0 }),
            ready: Condvar::new(),
        }
    }

    /// Takes the next job, waiting while other dispatchers still hold jobs that might be
    /// failed back onto the queue.  Returns `None` only when the queue is drained and
    /// nothing is in flight.
    fn next(&self) -> Option<Job> {
        // A poisoned queue means a dispatcher panicked; every mutation below is a single
        // statement, so the state is still consistent — recover it and keep dispatching.
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.in_flight += 1;
                return Some(job);
            }
            if state.in_flight == 0 {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Marks a held job finished (solved, or handed to the stranded list).
    fn done(&self) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.in_flight -= 1;
        self.ready.notify_all();
    }

    /// Returns a held job to the queue for another dispatcher — the failover path.
    fn requeue(&self, job: Job) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.in_flight -= 1;
        state.jobs.push_back(job);
        self.ready.notify_all();
    }

    /// Drains whatever is left once every dispatcher has exited.
    fn drain(&self) -> Vec<Job> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.jobs.drain(..).collect()
    }
}

/// Kills a stdio child whose pipe round trip outlives [`BATCH_TIMEOUT`].
///
/// std offers no read deadline on pipes, so a hung child would block the dispatcher
/// forever.  The watchdog waits on a condvar with the batch deadline; a round trip that
/// finishes in time disarms it (the [`Drop`] side), one that does not gets its child
/// killed — closing the pipes, unblocking the read with EOF, and failing the job over
/// exactly like a TCP timeout would.
struct PipeWatchdog {
    done: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PipeWatchdog {
    fn arm(child: Arc<Mutex<Option<Child>>>, deadline: Duration) -> Self {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let observer = Arc::clone(&done);
        let handle = std::thread::spawn(move || {
            let (flag, disarmed) = &*observer;
            let guard = flag.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            let (guard, timeout) = disarmed
                .wait_timeout_while(guard, deadline, |finished| !*finished)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if !*guard && timeout.timed_out() {
                if let Some(child) = child
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .as_mut()
                {
                    let _ = child.kill();
                }
            }
        });
        Self {
            done,
            handle: Some(handle),
        }
    }
}

impl Drop for PipeWatchdog {
    fn drop(&mut self) {
        let (flag, disarmed) = &*self.done;
        *flag.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = true;
        disarmed.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A [`SimulationBackend`] that brokers batches to a fleet of farm workers.
pub struct FarmBackend {
    workers: Vec<WorkerSlot>,
    tuning: FarmTuning,
    next_id: AtomicU64,
    fallback: LocalBackend,
    jobs_completed: AtomicU64,
    failovers: AtomicU64,
    reconnects: AtomicU64,
    heartbeats_missed: AtomicU64,
    degraded_jobs: AtomicU64,
    lanes_remote: AtomicU64,
    lanes_local: AtomicU64,
    obs: Observability,
}

impl std::fmt::Debug for FarmBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FarmBackend")
            .field("workers", &self.workers.len())
            .field("live", &self.live_workers())
            .field("stats", &self.stats())
            .finish()
    }
}

impl FarmBackend {
    /// Connects to TCP workers and/or spawns subprocess workers, in that order, with
    /// default [`FarmTuning`].
    ///
    /// `program` is the binary to spawn (`<program> worker`, speaking the protocol on its
    /// stdio) and is required when `spawn` is nonzero — typically the `slic` binary
    /// itself, so a farm run needs nothing installed beyond the one executable.
    ///
    /// # Errors
    ///
    /// Returns a [`FarmError`] when no worker is requested, a connection or spawn fails,
    /// or a handshake reveals an incompatible worker.  Construction is all-or-nothing: a
    /// fleet that starts degraded is an operator error, not a failover case.
    pub fn new(
        addresses: &[String],
        spawn: usize,
        program: Option<&Path>,
    ) -> Result<Self, FarmError> {
        Self::with_tuning(addresses, spawn, program, FarmTuning::default())
    }

    /// [`new`](Self::new) with explicit resilience knobs.
    ///
    /// # Errors
    ///
    /// See [`FarmBackend::new`].
    pub fn with_tuning(
        addresses: &[String],
        spawn: usize,
        program: Option<&Path>,
        tuning: FarmTuning,
    ) -> Result<Self, FarmError> {
        if addresses.is_empty() && spawn == 0 {
            return Err(FarmError::NoWorkers);
        }
        let mut endpoints: Vec<(String, WorkerEndpoint)> = addresses
            .iter()
            .map(|address| (address.clone(), WorkerEndpoint::Tcp(address.clone())))
            .collect();
        if spawn > 0 {
            let program = program.ok_or_else(|| {
                FarmError::Spawn("no worker program given for --spawn-workers".to_string())
            })?;
            for index in 0..spawn {
                endpoints.push((
                    format!("spawned-{index}"),
                    WorkerEndpoint::Spawn(program.to_path_buf()),
                ));
            }
        }
        let workers = endpoints
            .into_iter()
            .enumerate()
            .map(|(index, (name, endpoint))| {
                let conn = dial(&endpoint, &name)?;
                Ok(WorkerSlot {
                    name,
                    endpoint,
                    backoff_seed: tuning.backoff_seed ^ splitmix64(index as u64),
                    conn: Mutex::new(Some(conn)),
                    redial: Mutex::new(()),
                    gone: AtomicBool::new(false),
                })
            })
            .collect::<Result<Vec<_>, FarmError>>()?;
        Ok(Self {
            workers,
            tuning,
            next_id: AtomicU64::new(0),
            fallback: LocalBackend::new(),
            jobs_completed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            heartbeats_missed: AtomicU64::new(0),
            degraded_jobs: AtomicU64::new(0),
            lanes_remote: AtomicU64::new(0),
            lanes_local: AtomicU64::new(0),
            obs: Observability::default(),
        })
    }

    /// Attaches the display-only observability bundle.  Spans cover round trips,
    /// heartbeats and re-dial campaigns; per-worker counters track jobs, lanes, wire
    /// bytes and re-admissions.  None of it feeds back into scheduling, so traced and
    /// untraced farm runs stay byte-identical.
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Connects to an explicit list of TCP worker addresses.
    ///
    /// # Errors
    ///
    /// See [`FarmBackend::new`].
    pub fn connect(addresses: &[String]) -> Result<Self, FarmError> {
        Self::new(addresses, 0, None)
    }

    /// Spawns `count` subprocess workers of `program` (`<program> worker` over stdio).
    ///
    /// # Errors
    ///
    /// See [`FarmBackend::new`].
    pub fn spawn(program: &Path, count: usize) -> Result<Self, FarmError> {
        Self::new(&[], count, Some(program))
    }

    /// The resilience knobs this fleet runs with.
    pub fn tuning(&self) -> FarmTuning {
        self.tuning
    }

    /// Number of workers currently holding a live connection.
    pub fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.conn.lock().is_ok_and(|conn| conn.is_some()))
            .count()
    }

    /// Total workers in the fleet (live or dead).
    pub fn fleet_size(&self) -> usize {
        self.workers.len()
    }

    /// A snapshot of the dispatch counters.
    pub fn stats(&self) -> FarmStats {
        FarmStats {
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            heartbeats_missed: self.heartbeats_missed.load(Ordering::Relaxed),
            degraded_jobs: self.degraded_jobs.load(Ordering::Relaxed),
            lanes_remote: self.lanes_remote.load(Ordering::Relaxed),
            lanes_local: self.lanes_local.load(Ordering::Relaxed),
        }
    }

    /// Re-dials a down worker on its seeded backoff schedule and re-admits it after a
    /// fresh handshake.  Returns `true` when the slot holds a live connection again.
    ///
    /// One campaign runs at a time per slot (the `redial` lock); a dispatcher arriving
    /// while another is mid-campaign waits, then finds either a fresh connection or a
    /// retired slot.  A slot whose whole budget fails is marked `gone` and never dialed
    /// again this run.
    fn reconnect(&self, slot: &WorkerSlot) -> bool {
        if slot.gone.load(Ordering::Relaxed) {
            return false;
        }
        let _campaign = slot
            .redial
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if slot.gone.load(Ordering::Relaxed) {
            return false;
        }
        if slot
            .conn
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .is_some()
        {
            // Another dispatcher's campaign already re-admitted it while we waited.
            return true;
        }
        let mut span = self
            .obs
            .trace
            .span("farm.redial", &[("worker", slot.name.clone())]);
        let policy = BackoffPolicy {
            base_ms: self.tuning.backoff_base_ms,
            cap_ms: self.tuning.backoff_cap_ms,
            seed: slot.backoff_seed,
        };
        for attempt in 0..self.tuning.reconnect_attempts {
            std::thread::sleep(policy.delay(attempt));
            match dial(&slot.endpoint, &slot.name) {
                Ok(conn) => {
                    *slot
                        .conn
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(conn);
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                    self.obs
                        .metrics
                        .counter_add(&format!("farm.worker.{}.reconnects", slot.name), 1);
                    span.attr("readmitted", "true".to_string());
                    eprintln!(
                        "slic farm: worker `{}` re-admitted after {} re-dial(s)",
                        slot.name,
                        attempt + 1
                    );
                    return true;
                }
                Err(err) => {
                    eprintln!(
                        "slic farm: re-dial {}/{} of worker `{}` failed: {err}",
                        attempt + 1,
                        self.tuning.reconnect_attempts,
                        slot.name
                    );
                }
            }
        }
        slot.gone.store(true, Ordering::Relaxed);
        span.attr("readmitted", "false".to_string());
        eprintln!(
            "slic farm: worker `{}` retired for this run (reconnect budget exhausted)",
            slot.name
        );
        false
    }

    /// Probes one worker with a `ping`/`pong` round trip under the heartbeat deadline.
    ///
    /// Returns `true` when the worker may be dispatched to: it answered, it is a stdio
    /// child (pipes cannot be half-open; the [`PipeWatchdog`] covers hangs), or
    /// heartbeats are disabled.  A silent or wrong answer drops the connection — the
    /// reconnect supervisor decides whether it comes back.
    fn heartbeat(&self, slot: &WorkerSlot) -> bool {
        if !self.tuning.heartbeat {
            return true;
        }
        let mut guard = match slot.conn.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = None;
                return false;
            }
        };
        let outcome = match guard.as_mut() {
            None => return false,
            Some(conn) if conn.stream.is_none() => return true,
            Some(conn) => {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let deadline = Duration::from_millis(self.tuning.heartbeat_timeout_ms.max(1));
                let _span = self
                    .obs
                    .trace
                    .span("farm.heartbeat", &[("worker", slot.name.clone())]);
                ping_roundtrip(conn, id, deadline)
            }
        };
        match outcome {
            Ok(()) => true,
            Err(err) => {
                eprintln!(
                    "slic farm: worker `{}` missed its heartbeat ({err}); dropping the \
                     connection",
                    slot.name
                );
                self.heartbeats_missed.fetch_add(1, Ordering::Relaxed);
                self.obs
                    .metrics
                    .counter_add(&format!("farm.worker.{}.heartbeats_missed", slot.name), 1);
                *guard = None;
                false
            }
        }
    }

    /// Sends one job to one worker and reads its results, holding the worker's lock for
    /// the round trip (the protocol is strictly alternating per connection).  On any
    /// failure the connection is dropped before the error is returned; whether the
    /// worker comes back is the reconnect supervisor's call.
    fn roundtrip(
        &self,
        slot: &WorkerSlot,
        requests: &[WireRequest],
    ) -> Result<Vec<SimResult>, FarmError> {
        let mut span = self.obs.trace.span(
            "farm.roundtrip",
            &[
                ("worker", slot.name.clone()),
                ("lanes", requests.len().to_string()),
            ],
        );
        let mut guard = match slot.conn.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = None;
                return Err(FarmError::WorkerDown(slot.name.clone()));
            }
        };
        let outcome = (|| -> Result<Vec<SimResult>, FarmError> {
            let conn = guard
                .as_mut()
                .ok_or_else(|| FarmError::WorkerDown(slot.name.clone()))?;
            // A stdio child has no pipe deadline: arm the kill-past-deadline watchdog
            // for the duration of the round trip (disarmed on drop).
            let _watchdog = conn
                .stream
                .is_none()
                .then(|| PipeWatchdog::arm(Arc::clone(&conn.child), BATCH_TIMEOUT));
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let payload = encode_message(&Message::Batch {
                id,
                requests: requests.to_vec(),
            });
            self.obs.metrics.counter_add(
                &format!("farm.worker.{}.bytes_tx", slot.name),
                payload.len() as u64 + 1,
            );
            writeln!(conn.writer, "{payload}")
                .map_err(|err| FarmError::Transport(slot.name.clone(), err.to_string()))?;
            conn.writer
                .flush()
                .map_err(|err| FarmError::Transport(slot.name.clone(), err.to_string()))?;
            let mut line = String::new();
            let read = conn
                .reader
                // slic-lint: allow(L1) -- the protocol is strictly alternating per connection, so the slot lock must span the write+read round trip; other workers use other slots and the read has a deadline (socket timeout or pipe watchdog).
                .read_line(&mut line)
                .map_err(|err| FarmError::Transport(slot.name.clone(), err.to_string()))?;
            if read == 0 {
                return Err(FarmError::WorkerDown(slot.name.clone()));
            }
            self.obs.metrics.counter_add(
                &format!("farm.worker.{}.bytes_rx", slot.name),
                line.len() as u64,
            );
            match decode_message(line.trim_end()) {
                Ok(Message::Results {
                    id: reply_id,
                    results,
                }) if reply_id == id && results.len() == requests.len() => results
                    .iter()
                    .map(|entry| {
                        entry
                            .decode()
                            .map_err(|err| FarmError::Protocol(slot.name.clone(), err.to_string()))
                    })
                    .collect(),
                Ok(other) => Err(FarmError::Protocol(
                    slot.name.clone(),
                    format!("expected results for batch {id}, got {other:?}"),
                )),
                Err(err) => Err(FarmError::Protocol(slot.name.clone(), err.to_string())),
            }
        })();
        match &outcome {
            Ok(_) => {
                span.attr("ok", "true".to_string());
                self.obs
                    .metrics
                    .counter_add(&format!("farm.worker.{}.jobs", slot.name), 1);
                self.obs.metrics.counter_add(
                    &format!("farm.worker.{}.lanes", slot.name),
                    requests.len() as u64,
                );
            }
            Err(_) => {
                span.attr("ok", "false".to_string());
                // Health tracking: a failed round trip drops the connection (also reaping
                // a spawned subprocess).  Re-admission requires a fresh dial + handshake.
                *guard = None;
            }
        }
        outcome
    }
}

/// Runs one heartbeat round trip on an established TCP connection, tightening the read
/// deadline to `deadline` for the probe and restoring [`BATCH_TIMEOUT`] on success.
fn ping_roundtrip(conn: &mut WorkerConn, id: u64, deadline: Duration) -> Result<(), FarmError> {
    let stream = conn
        .stream
        .as_ref()
        .ok_or_else(|| FarmError::Transport("?".to_string(), "not a TCP worker".to_string()))?;
    let fail = |err: String| FarmError::Transport("heartbeat".to_string(), err);
    stream
        .set_read_timeout(Some(deadline))
        .map_err(|err| fail(err.to_string()))?;
    writeln!(conn.writer, "{}", encode_message(&Message::Ping { id }))
        .map_err(|err| fail(err.to_string()))?;
    conn.writer.flush().map_err(|err| fail(err.to_string()))?;
    let mut line = String::new();
    let read = conn
        .reader
        .read_line(&mut line)
        .map_err(|err| fail(err.to_string()))?;
    if read == 0 {
        return Err(fail("connection closed mid-heartbeat".to_string()));
    }
    match decode_message(line.trim_end()) {
        Ok(Message::Pong { id: reply }) if reply == id => {
            // The probe passed: put the batch deadline back before real traffic.
            conn.stream
                .as_ref()
                .ok_or_else(|| fail("not a TCP worker".to_string()))?
                .set_read_timeout(Some(BATCH_TIMEOUT))
                .map_err(|err| fail(err.to_string()))?;
            Ok(())
        }
        Ok(other) => Err(fail(format!("expected pong {id}, got {other:?}"))),
        Err(err) => Err(fail(err.to_string())),
    }
}

/// Establishes and handshakes a fresh connection to `endpoint` — used both at
/// construction and by every reconnect campaign (re-admission requires a fresh
/// [`Hello`](crate::wire::Hello), so a restarted worker re-proves its versions).
fn dial(endpoint: &WorkerEndpoint, name: &str) -> Result<WorkerConn, FarmError> {
    match endpoint {
        WorkerEndpoint::Tcp(address) => {
            let connect = || -> std::io::Result<TcpStream> {
                let mut last = None;
                for addr in address.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                        Ok(stream) => return Ok(stream),
                        Err(err) => last = Some(err),
                    }
                }
                Err(last.unwrap_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::NotFound, "address resolves to nothing")
                }))
            };
            let stream =
                connect().map_err(|err| FarmError::Connect(address.clone(), err.to_string()))?;
            stream.set_nodelay(true).ok();
            // Silence past the deadline counts as worker death (see BATCH_TIMEOUT).
            stream
                .set_read_timeout(Some(BATCH_TIMEOUT))
                .map_err(|err| FarmError::Connect(address.clone(), err.to_string()))?;
            stream
                .set_write_timeout(Some(BATCH_TIMEOUT))
                .map_err(|err| FarmError::Connect(address.clone(), err.to_string()))?;
            let reader: Box<dyn Read + Send> = Box::new(
                stream
                    .try_clone()
                    .map_err(|err| FarmError::Connect(address.clone(), err.to_string()))?,
            );
            let writer: Box<dyn Write + Send> = Box::new(
                stream
                    .try_clone()
                    .map_err(|err| FarmError::Connect(address.clone(), err.to_string()))?,
            );
            handshake(reader, writer, Some(stream), None)
                .map_err(|err| FarmError::Handshake(address.clone(), err.to_string()))
        }
        WorkerEndpoint::Spawn(program) => {
            let mut child = Command::new(program)
                .arg("worker")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|err| FarmError::Spawn(format!("{}: {err}", program.display())))?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| FarmError::Spawn(format!("{name}: no stdout pipe")))?;
            let stdin = child
                .stdin
                .take()
                .ok_or_else(|| FarmError::Spawn(format!("{name}: no stdin pipe")))?;
            handshake(Box::new(stdout), Box::new(stdin), None, Some(child))
                .map_err(|err| FarmError::Handshake(name.to_string(), err.to_string()))
        }
    }
}

/// Completes the worker handshake on a fresh connection.
fn handshake(
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    stream: Option<TcpStream>,
    child: Option<Child>,
) -> Result<WorkerConn, WireError> {
    let mut conn = WorkerConn {
        reader: BufReader::new(reader),
        writer,
        stream,
        child: Arc::new(Mutex::new(child)),
    };
    let mut line = String::new();
    conn.reader
        .read_line(&mut line)
        .map_err(|err| WireError::Malformed(format!("reading hello: {err}")))?;
    match decode_message(line.trim_end())? {
        Message::Hello(hello) => {
            hello.validate()?;
            Ok(conn)
        }
        other => Err(WireError::Malformed(format!(
            "expected hello, got {other:?}"
        ))),
    }
}

/// Lanes per dispatched job: small enough that a fleet interleaves on one engine batch,
/// large enough that the JSON framing stays noise.
fn job_lanes(total: usize, workers: usize) -> usize {
    total.div_ceil(workers.max(1) * 2).clamp(1, 16)
}

impl SimulationBackend for FarmBackend {
    fn name(&self) -> &str {
        "farm"
    }

    fn solve_batch(&self, requests: &[SimRequest]) -> Vec<SimResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        // Encode up front; a lane that cannot travel (e.g. a custom technology outside
        // the worker-side catalogue) is solved by the in-process fallback below, so the
        // farm degrades to local execution instead of failing a run the local backend
        // would complete.
        let mut results: Vec<Option<SimResult>> = vec![None; requests.len()];
        let mut untransportable: Vec<usize> = Vec::new();
        let encoded: Vec<Option<WireRequest>> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| match WireRequest::encode(request) {
                Ok(wire) => Some(wire),
                Err(_) => {
                    untransportable.push(i);
                    None
                }
            })
            .collect();

        // Cut the encodable lanes into jobs of contiguous runs.
        let lanes: Vec<usize> = (0..requests.len())
            .filter(|&i| encoded[i].is_some())
            .collect();
        let chunk = job_lanes(lanes.len(), self.workers.len());
        let queue = JobQueue::new(
            (0..lanes.len())
                .step_by(chunk.max(1))
                .map(|start| Job {
                    start,
                    end: (start + chunk).min(lanes.len()),
                    attempts: 0,
                })
                .collect(),
        );
        // A job keeps retrying (on other workers, or on re-admitted ones) until its
        // budget is spent; then the local fallback owns it.
        let retry_budget = self
            .tuning
            .retry_budget
            .unwrap_or(self.workers.len())
            .max(1);
        let stranded: Mutex<Vec<Job>> = Mutex::new(Vec::new());
        let completed: Mutex<Vec<(Job, Vec<SimResult>)>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for slot in &self.workers {
                if slot.gone.load(Ordering::Relaxed) {
                    continue;
                }
                let queue = &queue;
                let stranded = &stranded;
                let completed = &completed;
                let lanes = &lanes;
                let encoded = &encoded;
                scope.spawn(move || {
                    // Admission check: a live worker must pass its heartbeat; a down
                    // worker gets a reconnect campaign before this dispatcher gives up.
                    let has_conn = slot.conn.lock().is_ok_and(|conn| conn.is_some());
                    let admitted = if has_conn {
                        self.heartbeat(slot) || self.reconnect(slot)
                    } else {
                        self.reconnect(slot)
                    };
                    if !admitted {
                        return;
                    }
                    while let Some(mut job) = queue.next() {
                        let wire: Vec<WireRequest> = lanes[job.start..job.end]
                            .iter()
                            // slic-lint: allow(P1) -- structural: `lanes` holds exactly the indices whose encoding succeeded.
                            .map(|&i| encoded[i].clone().expect("encodable lane"))
                            .collect();
                        match self.roundtrip(slot, &wire) {
                            Ok(solved) => {
                                self.jobs_completed.fetch_add(1, Ordering::Relaxed);
                                self.lanes_remote
                                    .fetch_add(solved.len() as u64, Ordering::Relaxed);
                                // Feed the live progress display as round trips land,
                                // not just when whole units complete.
                                self.obs.progress.add_lanes(solved.len() as u64);
                                completed
                                    .lock()
                                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                                    .push((job, solved));
                                queue.done();
                            }
                            Err(err) => {
                                eprintln!(
                                    "slic farm: worker `{}` failed ({err}); failing its job over",
                                    slot.name
                                );
                                self.failovers.fetch_add(1, Ordering::Relaxed);
                                job.attempts += 1;
                                if job.attempts >= retry_budget {
                                    // Budget spent: degrade to the local fallback.
                                    self.degraded_jobs.fetch_add(1, Ordering::Relaxed);
                                    stranded
                                        .lock()
                                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                                        .push(job);
                                    queue.done();
                                } else {
                                    queue.requeue(job);
                                }
                                // Re-dial with backoff; a re-admitted worker keeps
                                // dispatching, a retired one loses its dispatcher.
                                if !self.reconnect(slot) {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });

        // Anything the fleet could not finish — stranded jobs, or a queue abandoned when
        // the last worker retired — is solved in-process so the run still completes.
        let mut leftovers = stranded
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let abandoned = queue.drain();
        self.degraded_jobs
            .fetch_add(abandoned.len() as u64, Ordering::Relaxed);
        leftovers.extend(abandoned);
        for job in &leftovers {
            let subset: Vec<SimRequest> = lanes[job.start..job.end]
                .iter()
                .map(|&i| requests[i].clone())
                .collect();
            let solved = self.fallback.solve_batch(&subset);
            self.lanes_local
                .fetch_add(solved.len() as u64, Ordering::Relaxed);
            for (&lane, result) in lanes[job.start..job.end].iter().zip(solved) {
                results[lane] = Some(result);
            }
        }
        let completed = completed
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for (job, solved) in completed {
            for (&lane, result) in lanes[job.start..job.end].iter().zip(solved) {
                results[lane] = Some(result);
            }
        }
        if !untransportable.is_empty() {
            let subset: Vec<SimRequest> = untransportable
                .iter()
                .map(|&i| requests[i].clone())
                .collect();
            let solved = self.fallback.solve_batch(&subset);
            self.lanes_local
                .fetch_add(solved.len() as u64, Ordering::Relaxed);
            for (&lane, result) in untransportable.iter().zip(solved) {
                results[lane] = Some(result);
            }
        }
        results
            .into_iter()
            // slic-lint: allow(P1) -- structural: every lane is either untransportable, stranded, or completed, and each path fills its slot.
            .map(|r| r.expect("every lane resolved"))
            .collect()
    }
}

impl Drop for FarmBackend {
    fn drop(&mut self) {
        for slot in &self.workers {
            // A poisoned slot's connection state is unknown; drop it without the
            // orderly shutdown message (the Drop on WorkerConn still reaps a child).
            let mut guard = match slot.conn.lock() {
                Ok(guard) => guard,
                Err(poisoned) => {
                    *poisoned.into_inner() = None;
                    continue;
                }
            };
            if let Some(conn) = guard.as_mut() {
                // Orderly shutdown; a worker that already died ignores us.
                let _ = writeln!(conn.writer, "{}", encode_message(&Message::Shutdown));
                let _ = conn.writer.flush();
                let mut child = conn
                    .child
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if let Some(child) = child.as_mut() {
                    let _ = child.wait();
                }
                *child = None;
            }
            *guard = None;
        }
    }
}
