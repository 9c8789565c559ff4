//! Tracing from outside the program: stage timers around the calls into each layer, and
//! `SimulationCache` / `SimulationBackend` decorators handed to the runner through
//! `PipelineRunner::with_parts`.  Nothing here changes what the wrapped layer computes;
//! it only times the calls and counts them.

use slic_spice::{
    CacheError, KernelStatsSnapshot, SimKey, SimRequest, SimResult, SimulationBackend,
    SimulationCache, TimingMeasurement,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nanoseconds since `base`, saturating (a run never lasts 584 years).
fn ns_since(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Named, back-to-back stage timings of one run.  Disabled probes only run the closure,
/// so untraced runs pay nothing.
#[derive(Debug)]
pub struct Stages {
    base: Instant,
    enabled: bool,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Stages {
    /// A probe whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            base: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// The clock every interval of this run is measured against.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Runs `f` as the stage `name`.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = ns_since(self.base);
        let out = f();
        self.spans.push((name, start, ns_since(self.base)));
        out
    }

    /// Total milliseconds spent in stages called `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, s, e)| (e - s) as f64 / 1e6)
            .sum()
    }

    /// The `[start, end)` window of the first stage called `name`.
    pub fn window(&self, name: &str) -> Option<(u64, u64)> {
        self.spans
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, s, e)| (s, e))
    }

    /// Milliseconds covered by all stages together.
    pub fn total_ms(&self) -> f64 {
        self.spans
            .iter()
            .map(|(_, s, e)| (e - s) as f64 / 1e6)
            .sum()
    }
}

/// Busy intervals recorded by a decorator, on the clock of one run.
#[derive(Debug, Default)]
struct Intervals(Mutex<Vec<(u64, u64)>>);

impl Intervals {
    fn push(&self, interval: (u64, u64)) {
        self.0
            .lock()
            .expect("interval log lock poisoned by a panicking engine thread")
            .push(interval);
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.0
            .lock()
            .expect("interval log lock poisoned by a panicking engine thread")
            .clone()
    }
}

/// What a [`TracedCache`] recorded.  Shared with the caller, so the log outlives the
/// runner (and the cache) it was attached to.
#[derive(Debug, Default)]
pub struct CacheLog {
    /// Lookups made.
    pub lookups: AtomicU64,
    /// Lookups answered from the cache.
    pub lookup_hits: AtomicU64,
    /// Nanoseconds spent in lookups, summed across threads.
    pub lookup_ns: AtomicU64,
    /// Nanoseconds spent in stores, summed across threads.
    pub store_ns: AtomicU64,
    intervals: Intervals,
}

impl CacheLog {
    /// Every lookup and store interval.
    pub fn intervals(&self) -> Vec<(u64, u64)> {
        self.intervals.snapshot()
    }
}

/// A [`SimulationCache`] that times every lookup and store of the cache it wraps.
pub struct TracedCache {
    inner: Arc<dyn SimulationCache>,
    base: Instant,
    log: Arc<CacheLog>,
}

impl TracedCache {
    /// Wraps `inner`, timing against `base`.
    pub fn new(inner: Arc<dyn SimulationCache>, base: Instant) -> Self {
        Self {
            inner,
            base,
            log: Arc::default(),
        }
    }

    /// The shared log this decorator records into.
    pub fn log(&self) -> Arc<CacheLog> {
        self.log.clone()
    }
}

impl SimulationCache for TracedCache {
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement> {
        let start = ns_since(self.base);
        let found = self.inner.lookup(key);
        let end = ns_since(self.base);
        self.log.lookups.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            self.log.lookup_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.log.lookup_ns.fetch_add(end - start, Ordering::Relaxed);
        self.log.intervals.push((start, end));
        found
    }

    fn store(&self, key: SimKey, measurement: TimingMeasurement) {
        let start = ns_since(self.base);
        self.inner.store(key, measurement);
        let end = ns_since(self.base);
        self.log.store_ns.fetch_add(end - start, Ordering::Relaxed);
        self.log.intervals.push((start, end));
    }

    fn hits(&self) -> u64 {
        self.inner.hits()
    }

    fn misses(&self) -> u64 {
        self.inner.misses()
    }

    fn warm_hits(&self) -> u64 {
        self.inner.warm_hits()
    }

    fn persist(&self) -> Result<(), CacheError> {
        self.inner.persist()
    }
}

/// Every batch a [`TracedBackend`] solved, as `(start, end, lanes)`.  Shared with the
/// caller like [`CacheLog`].
#[derive(Debug, Default)]
pub struct BatchLog(Mutex<Vec<(u64, u64, usize)>>);

impl BatchLog {
    /// The recorded batches.
    pub fn batches(&self) -> Vec<(u64, u64, usize)> {
        self.0
            .lock()
            .expect("batch log lock poisoned by a panicking engine thread")
            .clone()
    }
}

/// A [`SimulationBackend`] that times every batch the backend it wraps solves.
pub struct TracedBackend {
    inner: Arc<dyn SimulationBackend>,
    base: Instant,
    log: Arc<BatchLog>,
}

impl TracedBackend {
    /// Wraps `inner`, timing against `base`.
    pub fn new(inner: Arc<dyn SimulationBackend>, base: Instant) -> Self {
        Self {
            inner,
            base,
            log: Arc::default(),
        }
    }

    /// The shared log this decorator records into.
    pub fn log(&self) -> Arc<BatchLog> {
        self.log.clone()
    }
}

impl SimulationBackend for TracedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve_batch(&self, requests: &[SimRequest]) -> Vec<SimResult> {
        let start = ns_since(self.base);
        let results = self.inner.solve_batch(requests);
        let end = ns_since(self.base);
        self.log
            .0
            .lock()
            .expect("batch log lock poisoned by a panicking engine thread")
            .push((start, end, requests.len()));
        results
    }

    fn kernel_stats(&self) -> Option<KernelStatsSnapshot> {
        self.inner.kernel_stats()
    }
}

/// CPU seconds this process has used (user + system, all threads), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<f64>().ok()))
        .sum();
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks / 100.0
}

/// Starts a run's memory measurement from the heap a fresh process would have: returns
/// the free pages every malloc arena kept from earlier runs to the OS, then resets the
/// peak resident set size (`VmHWM`) to the current RSS, so the next [`peak_rss_mb`]
/// covers one run only.  Without the trim, how much freed memory the arenas happen to
/// retain swings the per-run peak by a quarter between processes.  On a kernel without
/// the `clear_refs` reset (before Linux 4.0) the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, only releases pages that
        // hold no live allocation, and locks each arena it trims, so it is sound to
        // call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slic_pipeline::{CharacterizationPlan, PipelineRunner, RunConfig};
    use slic_spice::{DiskSimCache, LocalBackend};

    fn quick_config(cache: Option<String>) -> slic_pipeline::ResolvedConfig {
        RunConfig {
            cache,
            ..Default::default()
        }
        .resolve()
        .expect("the default quick config resolves")
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn decorators_delegate_kernel_stats_warm_hits_and_persist() {
        let dir = scratch("delegate");
        let log = dir.join("cache.jsonl");
        let base = Instant::now();
        // A cold traced run persists through the decorator...
        {
            let cache = Arc::new(TracedCache::new(
                Arc::new(DiskSimCache::open(&log).expect("open")),
                base,
            ));
            let backend = Arc::new(TracedBackend::new(Arc::new(LocalBackend::new()), base));
            let runner = PipelineRunner::with_parts(
                quick_config(None),
                cache.clone(),
                Some(backend.clone()),
            )
            .expect("runner");
            let (_, artifact) = runner.run().expect("run");
            cache.persist().expect("persist delegates");
            let stats = backend.kernel_stats().expect("kernel stats delegate");
            assert_eq!(stats.sims, artifact.total_simulations);
            assert!(!backend.log().batches().is_empty());
            assert_eq!(cache.misses(), artifact.cache_misses);
        }
        assert!(std::fs::metadata(&log).expect("log written").len() > 0);
        // ...and a warm one sees the warm tier through it.
        let cache = Arc::new(TracedCache::new(
            Arc::new(DiskSimCache::open(&log).expect("reopen")),
            base,
        ));
        let runner =
            PipelineRunner::with_parts(quick_config(None), cache.clone(), None).expect("runner");
        let (_, artifact) = runner.run().expect("warm run");
        assert_eq!(artifact.total_simulations, 0);
        assert!(cache.warm_hits() > 0);
        assert_eq!(cache.warm_hits(), cache.inner.warm_hits());
        let log = cache.log();
        let (lookups, hits) = (
            log.lookups.load(Ordering::Relaxed),
            log.lookup_hits.load(Ordering::Relaxed),
        );
        assert!(lookups >= hits && hits == cache.hits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decorators_leave_artifacts_unchanged() {
        let plain = PipelineRunner::new(quick_config(None)).expect("runner");
        let (learning, reference) = plain.run().expect("run");
        let base = Instant::now();
        let traced = PipelineRunner::with_parts(
            quick_config(None),
            Arc::new(TracedCache::new(
                Arc::new(slic_spice::InMemorySimCache::new()),
                base,
            )),
            Some(Arc::new(TracedBackend::new(
                Arc::new(LocalBackend::new()),
                base,
            ))),
        )
        .expect("runner");
        let plan = CharacterizationPlan::from_config(traced.config()).expect("plan");
        let traced_learning = traced.learn();
        let artifact = traced
            .characterize(&plan, &traced_learning.database)
            .expect("characterize");
        assert_eq!(
            artifact.to_json().expect("json"),
            reference.to_json().expect("json")
        );
        assert_eq!(
            traced_learning.database.to_json().expect("json"),
            learning.database.to_json().expect("json")
        );
    }

    #[test]
    fn stages_record_only_when_enabled() {
        let mut off = Stages::new(false);
        assert_eq!(off.stage("a", || 7), 7);
        assert_eq!(off.total_ms(), 0.0);
        let mut on = Stages::new(true);
        on.stage("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        on.stage("b", || ());
        assert!(on.ms("a") >= 2.0);
        assert!(on.window("b").is_some() && on.window("c").is_none());
        assert!(on.total_ms() >= on.ms("a"));
    }
}
