//! Transient-simulation caching.
//!
//! A library-scale characterization run hits the same `(technology, arc, input point,
//! process seed)` coordinates repeatedly: the LUT baseline and the model-training stages
//! share grid corners, repeated runs of a resumable pipeline re-request identical sweeps,
//! and multi-metric work units re-simulate the same arc (one transient yields both delay
//! and slew).  A [`SimulationCache`] attached to a [`CharacterizationEngine`] short-circuits
//! those repeats: cache hits return the archived [`TimingMeasurement`] without running the
//! solver and **without incrementing the simulation counter**, so the counter keeps its
//! meaning of "transient simulations actually paid for".
//!
//! # Hit/miss accounting
//!
//! A **hit** is counted by every [`lookup`](SimulationCache::lookup) answered from the
//! cache; a **miss** is counted by every [`store`](SimulationCache::store), i.e. every
//! solve that was actually paid and archived.  A lookup that falls through is *not*
//! counted on its own: under the engine's single-flight coordination a request that
//! arrives while the same coordinate is already being solved waits and is then answered
//! from the cache (one hit), so every request of a
//! [`solve`](crate::engine::CharacterizationEngine::solve) contributes exactly one hit or
//! one miss and the totals are deterministic regardless of thread interleaving.
//!
//! [`CharacterizationEngine`]: crate::engine::CharacterizationEngine

use crate::input::InputPoint;
use crate::measure::TimingMeasurement;
use crate::transient::TransientConfig;
use serde::{Error as SerdeError, Value};
use slic_cells::TimingArc;
use slic_device::ProcessSample;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version stamp of the transient solver whose results a [`SimKey`] coordinates.
///
/// A persisted cache outlives the binary that wrote it, and two solver generations given
/// identical coordinates produce measurements that differ within the parity tolerance —
/// replaying one as the other would silently mix kernels inside a single artifact.  The
/// version is therefore part of the cache key: records written by an older kernel stay in
/// the log but can never answer a newer kernel's lookups.
///
/// History: **1** — the seed's slope-probe RK4 kernel (records written before the field
/// existed load as this version); **2** — the Bogacki–Shampine 3(2) embedded pair
/// over compiled device models, scalar libm transcendentals (an opt-in SIMD mode wrote
/// records under this same stamp, so a version-2 log can mix both kernels); **3** — the
/// SIMD quad kernel as the only production kernel.  Version-2 records answer no
/// version-3 lookup and are evicted by `slic cache compact --drop-legacy`.
pub const KERNEL_VERSION: u64 = 3;

/// The version that keys cache records written before the kernel field existed.
pub(crate) const LEGACY_KERNEL_VERSION: u64 = 1;

/// The exact coordinates of one transient simulation.
///
/// Floating-point components are keyed by their bit patterns: two points are "the same"
/// only when they are bitwise identical, which is the right notion for caching replayed
/// deterministic campaigns (nearby-but-different points must not alias).  The one
/// exception is zero: `-0.0` is normalized to `+0.0` at construction, because the two
/// compare equal, simulate identically, and are produced by different code paths (e.g. a
/// nominal [`ProcessSample`] delta written as `0.0` here and computed as `-0.0` there) —
/// keying them apart would silently miss the cache.
///
/// The solver generation is part of the key (see [`KERNEL_VERSION`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimKey {
    // Crate-visible so the disk-cache codec (`crate::disk`) can write and rebuild keys
    // field by field; everything else builds keys through [`SimKey::new`].
    pub(crate) kernel: u64,
    pub(crate) tech: String,
    pub(crate) arc: TimingArc,
    pub(crate) point: [u64; 3],
    pub(crate) seed: [u64; 7],
    pub(crate) config: [u64; 4],
}

/// The bit pattern of `value` with negative zero folded onto positive zero.
///
/// # Panics
///
/// Panics on NaN: a NaN coordinate never equals itself, so it could never be answered
/// from the cache, and it indicates an unphysical input upstream — failing loudly beats
/// silently archiving garbage.
fn key_bits(value: f64) -> u64 {
    assert!(
        !value.is_nan(),
        "NaN is not a valid simulation-cache coordinate"
    );
    fold_zero_bits(value)
}

/// The bit pattern of `value` with negative zero folded onto positive zero — the
/// coordinate identity shared by [`SimKey`] and the lane tables of a
/// [`LaneSet`](crate::lanes::LaneSet).
pub(crate) fn fold_zero_bits(value: f64) -> u64 {
    // slic-lint: allow(F1) -- exact IEEE 754 `-0.0 == 0.0` is the fold being implemented; a tolerance would alias distinct coordinates.
    if value == 0.0 {
        0.0f64.to_bits()
    } else {
        value.to_bits()
    }
}

impl SimKey {
    /// Builds the key for simulating `arc` at `point` under `seed` with `config` in the
    /// technology named `tech`.
    ///
    /// # Panics
    ///
    /// Panics if any floating-point coordinate is NaN (see `key_bits`).
    pub fn new(
        tech: &str,
        arc: &TimingArc,
        point: &InputPoint,
        seed: &ProcessSample,
        config: &TransientConfig,
    ) -> Self {
        Self {
            kernel: KERNEL_VERSION,
            tech: tech.to_string(),
            arc: *arc,
            point: [
                key_bits(point.sin.value()),
                key_bits(point.cload.value()),
                key_bits(point.vdd.value()),
            ],
            seed: [
                key_bits(seed.delta_vth_n),
                key_bits(seed.delta_vth_p),
                key_bits(seed.vx0_scale_n),
                key_bits(seed.vx0_scale_p),
                key_bits(seed.cinv_scale),
                key_bits(seed.dibl_scale_n),
                key_bits(seed.dibl_scale_p),
            ],
            config: [
                key_bits(config.dv_max_fraction),
                config.min_steps_per_ramp as u64,
                key_bits(config.max_time_factor),
                key_bits(config.miller_fraction),
            ],
        }
    }

    /// The solver generation this key coordinates (see [`KERNEL_VERSION`]).
    pub fn kernel(&self) -> u64 {
        self.kernel
    }

    /// Returns `true` when the key was written by a kernel predating
    /// [`KERNEL_VERSION`] — such records stay loadable but can never answer a
    /// current-kernel lookup, so they are dead weight a compaction may evict.
    pub fn is_legacy_kernel(&self) -> bool {
        self.kernel < KERNEL_VERSION
    }
}

/// Renders a bit-pattern array as fixed-width hexadecimal strings.
///
/// The serde stand-in stores numbers as `f64`, which cannot represent every `u64` bit
/// pattern exactly — hex strings round-trip losslessly and keep the on-disk cache
/// diffable.  Public because the `slic-farm` wire protocol reuses the exact same
/// encoding, which is what keeps farm traffic cache-compatible with
/// [`DiskSimCache`](crate::disk::DiskSimCache) logs.
pub fn bits_to_value(bits: &[u64]) -> Value {
    Value::Array(
        bits.iter()
            .map(|b| Value::String(format!("{b:016x}")))
            .collect(),
    )
}

/// Parses a fixed-width array of hex bit patterns written by [`bits_to_value`].
///
/// # Errors
///
/// Returns a [`SerdeError`] naming `field` when the value is not an `N`-element array of
/// hex strings.
pub fn bits_from_value<const N: usize>(value: &Value, field: &str) -> Result<[u64; N], SerdeError> {
    let items = value
        .as_array()
        .ok_or_else(|| SerdeError::expected("array of hex strings", value))?;
    if items.len() != N {
        return Err(SerdeError::custom(format!(
            "field `{field}`: expected {N} hex strings, found {}",
            items.len()
        )));
    }
    let mut bits = [0u64; N];
    for (slot, item) in bits.iter_mut().zip(items) {
        let text = item
            .as_str()
            .ok_or_else(|| SerdeError::expected("hex string", item))?;
        *slot = u64::from_str_radix(text, 16).map_err(|_| {
            SerdeError::custom(format!(
                "field `{field}`: `{text}` is not a hex bit pattern"
            ))
        })?;
    }
    Ok(bits)
}

/// Anything that can go wrong opening or persisting a durable simulation cache (see
/// [`DiskSimCache`](crate::disk::DiskSimCache)).
#[derive(Debug)]
pub enum CacheError {
    /// A filesystem failure reading or appending the backing store.
    Io(std::io::Error),
    /// A stored record that is not a valid cache entry.
    Corrupt {
        /// 1-based line number in the log file.
        line: usize,
        /// What failed to parse.
        message: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(err) => write!(f, "cache io error: {err}"),
            CacheError::Corrupt { line, message } => {
                write!(f, "corrupt cache record at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

/// A concurrent store of completed transient simulations.
///
/// Implementations must be thread-safe: the engine consults the cache from rayon worker
/// threads.  `lookup` and `store` are intentionally split (no `or_insert_with`) so a miss
/// never holds a lock across the milliseconds-long transient solve; the engine's
/// single-flight coordination prevents duplicate solves of one coordinate instead.
pub trait SimulationCache: Send + Sync {
    /// The archived measurement for `key`, if present.  Counts a hit when it answers.
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement>;

    /// Archives a completed measurement.  Counts a miss: a store is exactly one solve
    /// that the cache could not answer.
    fn store(&self, key: SimKey, measurement: TimingMeasurement);

    /// Number of lookups answered from the cache so far.
    fn hits(&self) -> u64;

    /// Number of archived solves so far (simulations paid because the cache missed).
    fn misses(&self) -> u64;

    /// Number of hits answered by the *warm* tier: records loaded from an earlier
    /// process (e.g. a persistent cache's log) rather than solved during this run.
    /// Display-only telemetry; implementations without a warm tier report `0`.
    fn warm_hits(&self) -> u64 {
        0
    }

    /// Makes the archived state durable, for implementations that persist anything.
    ///
    /// Callers that share warm state across processes must call this (and propagate the
    /// error) before handing off — a destructor can only warn, not fail the run.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] when durable state cannot be written; purely in-memory
    /// caches never fail (the default is a no-op).
    fn persist(&self) -> Result<(), CacheError> {
        Ok(())
    }
}

const SHARDS: usize = 16;

/// A sharded in-memory [`SimulationCache`] with hit/miss accounting.
///
/// Each entry remembers which *tier* it came from: `fresh` (archived by this process,
/// via [`archive`](Self::archive)/[`store`](SimulationCache::store)) or `warm` (loaded
/// from an earlier process, via [`insert_warm`](Self::insert_warm)).  Hits are broken
/// down per tier so a post-run summary can show how much a persisted cache actually
/// saved — the tier flag never affects lookup results, only accounting.
#[derive(Debug, Default)]
pub struct InMemorySimCache {
    shards: [Mutex<BTreeMap<SimKey, (TimingMeasurement, Tier)>>; SHARDS],
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
}

/// Which process paid for a cached measurement (see [`InMemorySimCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Solved and archived during this run.
    Fresh,
    /// Loaded from durable state written by an earlier process.
    Warm,
}

impl InMemorySimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of archived measurements.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .len()
            })
            .sum()
    }

    /// Returns `true` when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Archives a paid solve (counting the miss) and returns the previously archived
    /// measurement, if any — the building block [`store`](SimulationCache::store) and
    /// persistent wrappers share.
    pub fn archive(
        &self,
        key: SimKey,
        measurement: TimingMeasurement,
    ) -> Option<TimingMeasurement> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A poisoned shard only means another thread panicked mid-`insert`; the map
        // itself is never left half-written, so recover it rather than cascade.
        self.shard(&key)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, (measurement, Tier::Fresh))
            .map(|(previous, _)| previous)
    }

    /// Inserts warm state **without** touching the hit/miss accounting — for loading
    /// records that were paid for by an earlier process (e.g. a persistent cache's log).
    /// Lookups answered by such records count toward [`warm_hits`](SimulationCache::warm_hits).
    pub fn insert_warm(&self, key: SimKey, measurement: TimingMeasurement) {
        self.shard(&key)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, (measurement, Tier::Warm));
    }

    fn shard(&self, key: &SimKey) -> &Mutex<BTreeMap<SimKey, (TimingMeasurement, Tier)>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }
}

impl SimulationCache for InMemorySimCache {
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement> {
        let found = self
            .shard(key)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(key)
            .copied();
        if let Some((_, tier)) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if tier == Tier::Warm {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        found.map(|(measurement, _)| measurement)
    }

    fn store(&self, key: SimKey, measurement: TimingMeasurement) {
        let _ = self.archive(key, measurement);
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_cells::{Cell, CellKind, DriveStrength, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn key(sin_ps: f64) -> SimKey {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(2.0),
            Volts(0.8),
        );
        SimKey::new(
            "n14",
            &arc,
            &point,
            &ProcessSample::nominal(),
            &TransientConfig::fast(),
        )
    }

    #[test]
    fn lookup_store_and_accounting() {
        let cache = InMemorySimCache::new();
        let m = TimingMeasurement::new(Seconds(1e-12), Seconds(2e-12));
        assert!(cache.lookup(&key(5.0)).is_none());
        cache.store(key(5.0), m);
        assert_eq!(cache.lookup(&key(5.0)), Some(m));
        assert!(cache.lookup(&key(6.0)).is_none());
        assert_eq!(cache.hits(), 1, "one lookup was answered");
        assert_eq!(cache.misses(), 1, "one solve was archived");
        assert_eq!(cache.warm_hits(), 0, "nothing warm was loaded");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn warm_tier_hits_are_accounted_separately() {
        let cache = InMemorySimCache::new();
        let m = TimingMeasurement::new(Seconds(1e-12), Seconds(2e-12));
        cache.insert_warm(key(5.0), m);
        cache.store(key(6.0), m);
        assert_eq!(cache.lookup(&key(5.0)), Some(m), "warm records answer");
        assert_eq!(cache.lookup(&key(5.0)), Some(m));
        assert_eq!(cache.lookup(&key(6.0)), Some(m), "fresh records answer");
        assert_eq!(cache.hits(), 3, "every answered lookup is a hit");
        assert_eq!(cache.warm_hits(), 2, "only warm-tier answers count as warm");
        assert_eq!(cache.misses(), 1, "insert_warm never counts a miss");
        // Re-archiving a warm coordinate promotes it to the fresh tier.
        cache.store(key(5.0), m);
        assert_eq!(cache.lookup(&key(5.0)), Some(m));
        assert_eq!(
            cache.warm_hits(),
            2,
            "promoted records stop counting as warm"
        );
    }

    #[test]
    fn distinct_coordinates_do_not_alias() {
        let a = key(5.0);
        let b = key(5.000000001);
        assert_ne!(a, b, "bitwise-different points must have different keys");
    }

    #[test]
    fn negative_zero_aliases_positive_zero() {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.8),
        );
        let plus = ProcessSample {
            delta_vth_n: 0.0,
            ..ProcessSample::nominal()
        };
        let minus = ProcessSample {
            delta_vth_n: -0.0,
            ..ProcessSample::nominal()
        };
        let config = TransientConfig::fast();
        assert_eq!(
            SimKey::new("n14", &arc, &point, &plus, &config),
            SimKey::new("n14", &arc, &point, &minus, &config),
            "-0.0 and 0.0 compare equal and must share one cache slot"
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_coordinates_are_rejected() {
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.0),
            Farads::from_femtofarads(2.0),
            Volts(0.8),
        );
        let bad = ProcessSample {
            delta_vth_n: f64::NAN,
            ..ProcessSample::nominal()
        };
        let _ = SimKey::new("n14", &arc, &point, &bad, &TransientConfig::fast());
    }

    /// One log line holding `key` (and a fixed measurement), as the disk cache writes it.
    fn log_line(key: &SimKey) -> String {
        let mut line = String::new();
        let m = TimingMeasurement::new(Seconds(1e-12), Seconds(2e-12));
        crate::disk::encode(&mut line, key, &m);
        line
    }

    fn parse_key(line: &str) -> Result<SimKey, String> {
        crate::disk::decode(line).map(|(key, _)| key)
    }

    #[test]
    fn sim_key_round_trips_through_json() {
        let original = key(5.000000001);
        let text = log_line(&original);
        let back: SimKey = parse_key(&text).expect("key parses");
        assert_eq!(back, original, "bit patterns must survive the round trip");
    }

    #[test]
    fn legacy_records_load_as_the_old_kernel_and_never_alias_current_keys() {
        // A record persisted before the kernel field existed: strip the field from a
        // current key's JSON, exactly as a pre-upgrade log line would look.
        let current = key(5.0);
        let text = log_line(&current);
        let kernel_field = format!("\"kernel\":\"{KERNEL_VERSION:x}\",");
        assert!(
            text.contains(&kernel_field),
            "current keys persist a version"
        );
        let legacy_text = text.replace(&kernel_field, "");
        let legacy: SimKey = parse_key(&legacy_text).expect("legacy record parses");
        assert_ne!(
            legacy, current,
            "a pre-upgrade record must never answer a current-kernel lookup"
        );
        // And a legacy key survives its own round trip unchanged.
        let back: SimKey = parse_key(&log_line(&legacy)).unwrap();
        assert_eq!(back, legacy);
    }

    #[test]
    fn sim_key_rejects_malformed_bit_patterns() {
        let text = log_line(&key(5.0));
        let broken = text.replace("\"point\":[\"", "\"point\":[\"zz");
        assert!(
            parse_key(&broken).unwrap_err().contains("hex"),
            "corrupt hex must be reported"
        );
    }
}
