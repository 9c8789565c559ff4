//! The four workloads: their configurations, set-up, one timed run each, and the output
//! checks made after a run, outside its timed region.
//!
//! A run makes the public calls `slic characterize` / `report` / `export` make, in the
//! same order.  Untraced runs construct the runner exactly as the CLI does; traced runs
//! hand decorated cache and backend parts to `PipelineRunner::with_parts` and time every
//! stage.

use crate::probe::{process_cpu_s, BatchLog, CacheLog, Stages, TracedBackend, TracedCache};
use crate::stats::{median, run_seed, union_len, union_within};
use slic::liberty::scan_liberty_tables;
use slic::nominal::MethodKind;
use slic_bayes::HistoricalDatabase;
use slic_device::TechnologyNode;
use slic_farm::{FarmBackend, FarmStats, FarmTuning};
use slic_pipeline::{
    BackendChoice, CharacterizationPlan, PipelineRunner, ResolvedConfig, RunArtifact, RunConfig,
    RunProfile, UnitKind, VariationKnobs,
};
use slic_spice::{
    CharacterizationEngine, DiskSimCache, InMemorySimCache, LocalBackend, SimulationBackend,
    SimulationCache,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Any failure that stops a run or a set-up.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Run index of the warm-up run a set-up makes; outside the timed runs' index range.
const WARMUP_RUN: u64 = u64::MAX;

/// Seeds `farm-nominal` cycles through; a local reference artifact for each is made in
/// set-up.
const FARM_SEEDS: u64 = 4;

/// Subprocess workers `farm-nominal` spawns: no more than the two cores of the host the
/// bounds were set on.
const FARM_WORKERS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's nominal flow, learning inline, writing a fresh disk-cache log.
    NominalCold,
    /// The paper's statistical flow: 100 Monte Carlo seeds and an LVF Liberty export.
    StatisticalMc,
    /// Rerun against a stored history and a warm disk-cache log: no kernel work at all.
    TwoStageWarm,
    /// `nominal-cold`'s plan brokered to spawned `slic worker` subprocesses.
    FarmNominal,
}

impl Workload {
    /// Every workload the benchmark runs.  `BENCHMARK.json` lists all but
    /// `farm-nominal`, whose times follow the host's wake-up latency (see `README.md`).
    pub const ALL: [Workload; 4] = [
        Workload::NominalCold,
        Workload::StatisticalMc,
        Workload::TwoStageWarm,
        Workload::FarmNominal,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NominalCold => "nominal-cold",
            Workload::StatisticalMc => "statistical-mc",
            Workload::TwoStageWarm => "two-stage-warm",
            Workload::FarmNominal => "farm-nominal",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_string()).collect()
}

/// `nominal-cold`'s configuration: `standard` on `target_14nm`, accurate profile, all
/// three methods.  The CLI flags that select the same run are [`NOMINAL_FLAGS`].
fn nominal_config(seed: u64) -> RunConfig {
    RunConfig {
        library: Some("standard".to_string()),
        technology: Some("target_14nm".to_string()),
        historical: Some(strings(&["n16_finfet", "n14_finfet"])),
        profile: Some("accurate".to_string()),
        methods: Some(strings(&["bayesian", "lse", "lut"])),
        seed: Some(seed),
        ..Default::default()
    }
}

/// The `slic characterize` flags equivalent to [`nominal_config`], without the seed.
const NOMINAL_FLAGS: [&str; 10] = [
    "--library",
    "standard",
    "--technology",
    "target_14nm",
    "--historical",
    "n16_finfet,n14_finfet",
    "--profile",
    "accurate",
    "--methods",
    "bayesian,lse,lut",
];

/// `statistical-mc`'s configuration: `standard` on `target_28nm` with three historical
/// nodes, variation on at the accurate profile's Monte Carlo seed count.
fn statistical_config(seed: u64) -> RunConfig {
    RunConfig {
        library: Some("standard".to_string()),
        technology: Some("target_28nm".to_string()),
        historical: Some(strings(&["n28_bulk", "n32_soi", "n20_bulk"])),
        profile: Some("accurate".to_string()),
        seed: Some(seed),
        variation: Some(VariationKnobs::default()),
        ..Default::default()
    }
}

/// Where a run gets its historical database from.
enum History<'a> {
    /// `PipelineRunner::learn`, inline, as `slic characterize` without `--history`.
    Learn,
    /// Parsed from a `slic learn` JSON file, as `slic characterize --history`.
    File(&'a Path),
    /// Already in memory (set-up only).
    Given(&'a HistoricalDatabase),
}

/// One run's inputs.  A configuration that spawns workers brokers the solves to them.
struct RunSpec<'a> {
    config: RunConfig,
    history: History<'a>,
    /// After saving, reload the artifact and render the report and the Liberty text from
    /// it, as `slic report` / `slic export` do; otherwise render Liberty from the run, as
    /// `slic characterize --liberty` does.
    reload: bool,
    out_dir: &'a Path,
}

impl<'a> RunSpec<'a> {
    /// A run as `slic characterize --liberty` makes it, learning inline.
    fn cold(config: RunConfig, out_dir: &'a Path) -> Self {
        Self {
            config,
            history: History::Learn,
            reload: false,
            out_dir,
        }
    }
}

/// What one run produced and measured.
pub struct RunOutcome {
    /// Wall time of the run, seconds.
    pub wall_s: f64,
    /// Transient simulations paid to produce the artifact, learning included.
    pub sims_paid: u64,
    /// Mean validation error of the nominal Bayesian units, percent.
    pub error_pct: f64,
    /// The saved artifact JSON.
    pub artifact: String,
    /// The rendered Liberty text.
    pub liberty: String,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    farm: Option<FarmStats>,
}

/// The fleet `slic characterize --spawn-workers N` builds for `config`; `None` for the
/// local backend.
fn connect_farm(config: &ResolvedConfig, slic: &Path) -> BenchResult<Option<FarmBackend>> {
    let BackendChoice::Farm {
        workers,
        spawn_workers,
        tuning,
    } = &config.backend
    else {
        return Ok(None);
    };
    let tuning = FarmTuning {
        retry_budget: tuning.retry_budget,
        reconnect_attempts: tuning.reconnect_attempts,
        backoff_base_ms: tuning.backoff_base_ms,
        backoff_cap_ms: tuning.backoff_cap_ms,
        backoff_seed: tuning.backoff_seed,
        heartbeat: tuning.heartbeat,
        heartbeat_timeout_ms: tuning.heartbeat_timeout_ms,
    };
    Ok(Some(FarmBackend::with_tuning(
        workers,
        *spawn_workers,
        Some(slic),
        tuning,
    )?))
}

/// Liberty text of a run, rendered as `slic characterize --liberty` does.
fn liberty_of_run(
    artifact: &RunArtifact,
    engine: &CharacterizationEngine,
    config: &ResolvedConfig,
) -> BenchResult<String> {
    Ok(match &artifact.variation {
        Some(variation) if !variation.tables.is_empty() => artifact
            .characterized
            .to_liberty_with_variation(engine, config.export_grid, variation)?,
        _ => artifact
            .characterized
            .to_liberty(engine, config.export_grid)?,
    })
}

/// Liberty text of a reloaded artifact, rendered as `slic export` does.
fn liberty_of_artifact(artifact: &RunArtifact) -> BenchResult<String> {
    let technology = TechnologyNode::by_name(&artifact.technology)
        .ok_or_else(|| format!("unknown technology `{}`", artifact.technology))?;
    let profile = RunProfile::from_name(&artifact.profile)
        .ok_or_else(|| format!("unknown profile `{}`", artifact.profile))?;
    let engine = CharacterizationEngine::with_config(technology, profile.transient())?;
    Ok(artifact
        .characterized
        .to_liberty(&engine, profile.export_grid())?)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Executes one run.  The timed region spans configuration to teardown; everything after
/// it (checks, metric arithmetic) is untimed.
fn execute(spec: RunSpec<'_>, slic: &Path, traced: bool) -> BenchResult<RunOutcome> {
    let cpu_before = if traced { process_cpu_s() } else { 0.0 };
    let mut st = Stages::new(traced);
    let base = st.base();
    let start = Instant::now();

    let config = st.stage("config", || spec.config.resolve())?;
    let cache_path = config.cache_path.clone();
    let farm = st
        .stage("farm.connect", || connect_farm(&config, slic))?
        .map(Arc::new);
    let mut logs: Option<(Arc<CacheLog>, Arc<BatchLog>)> = None;
    let runner = if traced {
        let inner_cache: Arc<dyn SimulationCache> = match &cache_path {
            Some(path) => Arc::new(st.stage("cache.open", || DiskSimCache::open(path))?),
            None => Arc::new(InMemorySimCache::new()),
        };
        let inner_backend: Arc<dyn SimulationBackend> = match &farm {
            Some(farm) => farm.clone(),
            None => Arc::new(LocalBackend::new()),
        };
        let cache = TracedCache::new(inner_cache, base);
        let backend = TracedBackend::new(inner_backend, base);
        logs = Some((cache.log(), backend.log()));
        st.stage("runner.build", || {
            PipelineRunner::with_parts(config, Arc::new(cache), Some(Arc::new(backend)))
        })?
    } else {
        // The CLI's construction: the runner opens the configured cache itself.
        st.stage("runner.build", || match &farm {
            Some(farm) => PipelineRunner::with_backend(config, farm.clone()),
            None => PipelineRunner::new(config),
        })?
    };
    let plan = st.stage("plan.build", || {
        CharacterizationPlan::from_config(runner.config())
    })?;
    let (database, learn_sims) = match spec.history {
        History::Learn => {
            let learning = st.stage("learn", || runner.learn());
            (learning.database, learning.simulation_cost)
        }
        History::File(path) => {
            let database = st.stage("history.load", || -> BenchResult<HistoricalDatabase> {
                Ok(HistoricalDatabase::from_json(&std::fs::read_to_string(
                    path,
                )?)?)
            })?;
            (database, 0)
        }
        History::Given(database) => (database.clone(), 0),
    };
    let artifact = st.stage("characterize", || runner.characterize(&plan, &database))?;
    st.stage("cache.persist", || runner.cache().persist())?;
    let run_path = spec.out_dir.join("run.json");
    let artifact_json = st.stage("artifact.save", || -> BenchResult<String> {
        let json = artifact.to_json()?;
        std::fs::write(&run_path, &json)?;
        Ok(json)
    })?;
    let lib_path = spec.out_dir.join("library.lib");
    let liberty = if spec.reload {
        let reloaded = st.stage("artifact.load", || RunArtifact::load(&run_path))?;
        let report = st.stage("report", || reloaded.summary_markdown());
        std::hint::black_box(report);
        st.stage("liberty.export", || -> BenchResult<String> {
            let text = liberty_of_artifact(&reloaded)?;
            std::fs::write(&lib_path, &text)?;
            Ok(text)
        })?
    } else {
        st.stage("liberty.export", || -> BenchResult<String> {
            let text = liberty_of_run(&artifact, runner.engine(), runner.config())?;
            std::fs::write(&lib_path, &text)?;
            Ok(text)
        })?
    };
    let dispatch = runner.engine().dispatch_stats();
    let kernel = runner.engine().backend().kernel_stats();
    let warm_hits = runner.cache().warm_hits();
    let farm_stats = farm.as_ref().map(|farm| farm.stats());
    st.stage("teardown", || {
        drop(runner);
        drop(farm);
    });
    let wall_s = start.elapsed().as_secs_f64();

    // ---- untimed from here on ----
    let mut failures = Vec::new();
    match RunArtifact::from_json(&artifact_json).and_then(|a| a.to_json()) {
        Ok(again) if again == artifact_json => {}
        Ok(_) => failures.push("artifact save -> load -> save is not byte-identical".to_string()),
        Err(err) => failures.push(format!("saved artifact does not load: {err}")),
    }
    match scan_liberty_tables(&liberty) {
        Ok(tables) if !tables.is_empty() => {}
        Ok(_) => failures.push("Liberty text has no tables".to_string()),
        Err(err) => failures.push(format!("Liberty text does not parse back: {err}")),
    }
    if dispatch.lanes_dispatched
        != dispatch.lanes_cached + dispatch.lanes_claimed + dispatch.lanes_deferred
    {
        failures.push(format!("dispatch lanes do not add up: {dispatch:?}"));
    }
    if artifact.units.len() != plan.len() {
        failures.push(format!(
            "artifact has {} units for a plan of {}",
            artifact.units.len(),
            plan.len()
        ));
    }
    let bayesian: Vec<f64> = artifact
        .units
        .iter()
        .filter(|u| u.method == MethodKind::ProposedBayesian && u.kind == UnitKind::Nominal)
        .map(|u| u.error_percent)
        .collect();
    let error_pct = bayesian.iter().sum::<f64>() / bayesian.len().max(1) as f64;

    let mut layers = BTreeMap::new();
    if let Some((cache_log, batch_log)) = logs {
        let wall_ms = wall_s * 1e3;
        let mut put = |name: &'static str, value: f64| {
            layers.insert(name, if value.is_finite() { value } else { 0.0 });
        };
        put("plan.build_ms", st.ms("plan.build"));
        put("plan.units", plan.len() as f64);
        put("learn.ms", st.ms("learn"));
        put("learn.sims", learn_sims as f64);
        if let History::File(path) = spec.history {
            let load_ms = st.ms("history.load");
            put("history.load_ms", load_ms);
            put("history.bytes", file_len(path));
            put(
                "history.load_mb_per_s",
                file_len(path) / 1e6 / (load_ms / 1e3),
            );
        }
        let lookups = cache_log.lookups.load(Ordering::Relaxed) as f64;
        let hits = cache_log.lookup_hits.load(Ordering::Relaxed) as f64;
        put("cache.open_ms", st.ms("cache.open"));
        put("cache.lookup_calls", lookups);
        put("cache.hits", hits);
        put("cache.warm_hits", warm_hits as f64);
        put("cache.misses", artifact.cache_misses as f64);
        put("cache.hit_ratio", hits / lookups);
        put(
            "cache.lookup_busy_ms",
            cache_log.lookup_ns.load(Ordering::Relaxed) as f64 / 1e6,
        );
        put(
            "cache.store_busy_ms",
            cache_log.store_ns.load(Ordering::Relaxed) as f64 / 1e6,
        );
        put("cache.persist_ms", st.ms("cache.persist"));
        put(
            "cache.log_bytes",
            cache_path.as_deref().map_or(0.0, file_len),
        );

        let batches = batch_log.batches();
        let kernel = kernel.unwrap_or_default();
        let solved = if kernel.sims > 0 {
            kernel.sims
        } else {
            artifact.total_simulations
        };
        put("dispatch.lanes", dispatch.lanes_dispatched as f64);
        put("dispatch.lanes_cached", dispatch.lanes_cached as f64);
        put("dispatch.lanes_claimed", dispatch.lanes_claimed as f64);
        put("dispatch.lanes_deferred", dispatch.lanes_deferred as f64);
        put(
            "dispatch.unattributed_sims",
            solved.saturating_sub(dispatch.lanes_claimed + dispatch.lanes_deferred) as f64,
        );
        let lanes: Vec<f64> = batches.iter().map(|b| b.2 as f64).collect();
        let durations_ms: Vec<f64> = batches.iter().map(|b| (b.1 - b.0) as f64 / 1e6).collect();
        let busy_ms: f64 = durations_ms.iter().sum();
        let backend_intervals: Vec<(u64, u64)> = batches.iter().map(|b| (b.0, b.1)).collect();
        put("backend.batches", batches.len() as f64);
        put("backend.lanes_per_batch_p50", median(&lanes));
        put(
            "backend.lanes_per_batch_max",
            lanes.iter().copied().fold(0.0, f64::max),
        );
        put("backend.busy_ms", busy_ms);
        put(
            "backend.covered_ms",
            union_len(&backend_intervals) as f64 / 1e6,
        );
        put("kernel.sims", kernel.sims as f64);
        put("kernel.steps_per_sim", kernel.steps_per_sim());
        put("kernel.device_evals_per_sim", kernel.device_evals_per_sim());
        put(
            "kernel.rejected_steps_per_sim",
            kernel.rejected_steps as f64 / kernel.sims as f64,
        );
        put(
            "kernel.sims_per_busy_s",
            kernel.sims as f64 / (busy_ms / 1e3),
        );

        let window = st.window("characterize").unwrap_or((0, 0));
        let mut busy = backend_intervals;
        busy.extend(cache_log.intervals());
        let covered = union_within(&busy, window);
        put("characterize.ms", st.ms("characterize"));
        put(
            "characterize.self_ms",
            (window.1 - window.0 - covered) as f64 / 1e6,
        );
        put("artifact.save_ms", st.ms("artifact.save"));
        put("artifact.load_ms", st.ms("artifact.load"));
        put("artifact.bytes", artifact_json.len() as f64);
        put("liberty.export_ms", st.ms("liberty.export"));
        put("liberty.bytes", liberty.len() as f64);
        put("report.ms", st.ms("report"));
        if let Some(stats) = farm_stats {
            let lanes = (stats.lanes_remote + stats.lanes_local) as f64;
            put("farm.connect_ms", st.ms("farm.connect"));
            put("farm.jobs", stats.jobs_completed as f64);
            put("farm.lanes_per_job", lanes / stats.jobs_completed as f64);
            put("farm.lanes_remote", stats.lanes_remote as f64);
            put("farm.lanes_local", stats.lanes_local as f64);
            put("farm.failovers", stats.failovers as f64);
            put("farm.roundtrip_ms_p50", median(&durations_ms));
        }
        let cpu_s = process_cpu_s() - cpu_before;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        put("process.cpu_s", cpu_s);
        put("process.cpu_util", cpu_s / (wall_s * cores));
        put("trace.stage_coverage_pct", 100.0 * st.total_ms() / wall_ms);
    }

    Ok(RunOutcome {
        wall_s,
        sims_paid: artifact.total_simulations,
        error_pct,
        artifact: artifact_json,
        liberty,
        failures,
        layers,
        farm: farm_stats,
    })
}

/// Everything the timed runs of a workload reuse, built by [`setup`].
pub struct Prepared {
    workload: Workload,
    workload_seed: u64,
    slic: PathBuf,
    dir: PathBuf,
    /// `two-stage-warm`: the stored history, the warm log, the simulations the learn and
    /// fill stages paid, and the reference artifact and Liberty text.
    history: PathBuf,
    warm_log: PathBuf,
    flow_sims: u64,
    reference: (String, String),
    /// `farm-nominal`: the local reference artifact of each cycled seed.
    farm_references: Vec<String>,
    /// Set-up checks that failed.
    pub failures: Vec<String>,
}

/// Builds a workload's inputs in `dir` (created fresh): warm-up runs, the stored history
/// and warm log, reference artifacts, and the one-time CLI cross-check.
pub fn setup(
    workload: Workload,
    workload_seed: u64,
    slic: &Path,
    dir: &Path,
) -> BenchResult<Prepared> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let mut prepared = Prepared {
        workload,
        workload_seed,
        slic: slic.to_path_buf(),
        dir: dir.to_path_buf(),
        history: dir.join("history.json"),
        warm_log: dir.join("warm.jsonl"),
        flow_sims: 0,
        reference: (String::new(), String::new()),
        farm_references: Vec::new(),
        failures: Vec::new(),
    };
    let warmup_seed = run_seed(workload_seed, WARMUP_RUN);
    match workload {
        Workload::NominalCold => {
            let mut config = nominal_config(warmup_seed);
            config.cache = Some(path_string(&dir.join("warmup.jsonl")));
            let warmup = prepared.checked(RunSpec::cold(config, dir))?;
            prepared.cli_cross_check(warmup_seed, &warmup)?;
        }
        Workload::StatisticalMc => {
            prepared.checked(RunSpec::cold(statistical_config(warmup_seed), dir))?;
        }
        Workload::TwoStageWarm => prepared.fill_two_stage()?,
        Workload::FarmNominal => {
            for k in 0..FARM_SEEDS {
                let local = prepared.checked(RunSpec::cold(
                    nominal_config(run_seed(workload_seed, k)),
                    dir,
                ))?;
                prepared.farm_references.push(local.artifact);
            }
            let warmup = prepared.run(0, false)?;
            prepared.failures.extend(warmup.failures);
        }
    }
    Ok(prepared)
}

fn path_string(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

impl Prepared {
    /// Executes an untraced set-up run, keeping its failed checks.
    fn checked(&mut self, spec: RunSpec<'_>) -> BenchResult<RunOutcome> {
        let outcome = execute(spec, &self.slic, false)?;
        self.failures.extend(outcome.failures.iter().cloned());
        Ok(outcome)
    }

    /// Checks that `slic characterize` with the same flags writes the bytes the
    /// in-process run produced for `seed`.
    fn cli_cross_check(&mut self, seed: u64, in_process: &RunOutcome) -> BenchResult<()> {
        let out = self.dir.join("cli.json");
        let lib = self.dir.join("cli.lib");
        let status = Command::new(&self.slic)
            .arg("characterize")
            .args(NOMINAL_FLAGS)
            .args(["--seed", &seed.to_string()])
            .args(["--cache", &path_string(&self.dir.join("cli.jsonl"))])
            .args(["--out", &path_string(&out)])
            .args(["--liberty", &path_string(&lib)])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .status()?;
        if !status.success() {
            return Err(format!("`slic characterize` exited with {status}").into());
        }
        if std::fs::read_to_string(&out)? != in_process.artifact {
            self.failures
                .push("in-process artifact differs from `slic characterize`'s".to_string());
        }
        if std::fs::read_to_string(&lib)? != in_process.liberty {
            self.failures.push(
                "in-process Liberty differs from `slic characterize --liberty`'s".to_string(),
            );
        }
        Ok(())
    }

    /// `two-stage-warm` set-up: `slic learn` into a history file and a disk-cache log,
    /// one cold characterization at the fixed seed filling the log, and a warm reference
    /// run over the in-memory database.
    fn fill_two_stage(&mut self) -> BenchResult<()> {
        let seed = run_seed(self.workload_seed, 0);
        let mut config = nominal_config(seed);
        config.cache = Some(path_string(&self.warm_log));
        let learning = {
            let runner = PipelineRunner::new(config.clone().resolve()?)?;
            let learning = runner.learn();
            std::fs::write(&self.history, learning.database.to_json()?)?;
            runner.cache().persist()?;
            learning
        };
        let cold_sims = {
            let runner = PipelineRunner::new(config.clone().resolve()?)?;
            let plan = CharacterizationPlan::from_config(runner.config())?;
            let artifact = runner.characterize(&plan, &learning.database)?;
            runner.cache().persist()?;
            artifact.total_simulations
        };
        self.flow_sims = learning.simulation_cost + cold_sims;
        let reference_dir = self.dir.join("reference");
        std::fs::create_dir_all(&reference_dir)?;
        let reference = execute(
            RunSpec {
                config,
                history: History::Given(&learning.database),
                reload: true,
                out_dir: &reference_dir,
            },
            &self.slic,
            false,
        )?;
        self.failures.extend(reference.failures);
        if reference.sims_paid != 0 {
            self.failures.push(format!(
                "warm reference run paid {} simulations",
                reference.sims_paid
            ));
        }
        self.reference = (reference.artifact, reference.liberty);
        Ok(())
    }

    /// Executes timed run `index` and applies the workload's own output checks.
    pub fn run(&self, index: u64, traced: bool) -> BenchResult<RunOutcome> {
        let seed = run_seed(self.workload_seed, index);
        let mut outcome = match self.workload {
            Workload::NominalCold => {
                let log = self.dir.join("cold.jsonl");
                let _ = std::fs::remove_file(&log);
                let mut config = nominal_config(seed);
                config.cache = Some(path_string(&log));
                let outcome = execute(RunSpec::cold(config, &self.dir), &self.slic, traced)?;
                std::fs::remove_file(&log)?;
                outcome
            }
            Workload::StatisticalMc => execute(
                RunSpec::cold(statistical_config(seed), &self.dir),
                &self.slic,
                traced,
            )?,
            Workload::TwoStageWarm => {
                let mut config = nominal_config(run_seed(self.workload_seed, 0));
                config.cache = Some(path_string(&self.warm_log));
                let mut outcome = execute(
                    RunSpec {
                        config,
                        history: History::File(&self.history),
                        reload: true,
                        out_dir: &self.dir,
                    },
                    &self.slic,
                    traced,
                )?;
                if outcome.sims_paid != 0 {
                    outcome
                        .failures
                        .push(format!("warm rerun paid {} simulations", outcome.sims_paid));
                }
                if outcome.artifact != self.reference.0 {
                    outcome
                        .failures
                        .push("warm artifact differs from the set-up reference".to_string());
                }
                if outcome.liberty != self.reference.1 {
                    outcome
                        .failures
                        .push("warm Liberty differs from the set-up reference".to_string());
                }
                // The rerun's artifact was produced by the learn and fill stages' work.
                outcome.sims_paid += self.flow_sims;
                outcome
            }
            Workload::FarmNominal => {
                let k = index % FARM_SEEDS;
                let mut config = nominal_config(run_seed(self.workload_seed, k));
                config.spawn_workers = Some(FARM_WORKERS);
                let mut outcome = execute(RunSpec::cold(config, &self.dir), &self.slic, traced)?;
                let reference = usize::try_from(k)
                    .ok()
                    .and_then(|k| self.farm_references.get(k));
                if reference != Some(&outcome.artifact) {
                    outcome.failures.push(format!(
                        "farm artifact differs from the local run of seed {k}"
                    ));
                }
                match outcome.farm {
                    Some(stats) if stats.lanes_local == 0 && stats.failovers == 0 => {}
                    stats => outcome.failures.push(format!(
                        "farm fell back to local solving or failed over: {stats:?}"
                    )),
                }
                outcome
            }
        };
        if matches!(
            self.workload,
            Workload::NominalCold | Workload::StatisticalMc | Workload::FarmNominal
        ) && outcome.sims_paid == 0
        {
            outcome
                .failures
                .push("a cold run paid no simulations".to_string());
        }
        Ok(outcome)
    }
}
