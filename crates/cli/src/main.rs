//! `slic` — the command-line driver of the characterization pipeline.
//!
//! Subcommands mirror the resumable pipeline stages:
//!
//! ```text
//! slic learn        # historical nodes -> historical-database JSON
//! slic characterize # plan + run -> run-artifact JSON (+ optional Liberty)
//!                   # --shard i/n runs one shard; --cache shares warm state on disk
//!                   # --backend farm --workers a,b | --spawn-workers N farms the sims out
//! slic worker       # serve transient batches for a farm broker (TCP or stdio)
//! slic merge        # shard artifacts -> the whole-run artifact
//! slic export       # run artifact -> Liberty text
//! slic report       # run artifact -> Markdown summary
//! slic cache        # cache maintenance (compact)
//! slic profile      # reconstruct a --trace sidecar into a performance report
//!                   # --diff gates one trace against another; --format chrome exports
//!                   # Perfetto-loadable JSON
//! slic history      # list / diff the cross-run ledger written by --ledger
//! slic bench diff   # gate a fresh kernel bench report against the committed one
//! slic lint         # workspace invariant checker (slic-lint)
//! ```
//!
//! Run `slic help` for the full flag reference.  Argument parsing is hand-rolled
//! (`--flag value` pairs only) because the build environment vendors no CLI crate.

use slic_bayes::HistoricalDatabase;
use slic_device::TechnologyNode;
use slic_farm::{
    serve_listener, serve_stdio, FarmBackend, FarmTuning, FaultPlan, ServeOutcome, WorkerOptions,
};
use slic_obs::{
    Clock, DiffReport, DiffThresholds, MetricsSnapshot, MonotonicClock, Observability,
    ProgressMeter, RunRecord, TraceRecorder,
};
use slic_pipeline::config::{key_flags, ConfigKey};
use slic_pipeline::{
    BackendChoice, CharacterizationPlan, FarmSection, PipelineError, PipelineRunner, RunArtifact,
    RunConfig, RunProfile,
};
use slic_spice::{CharacterizationEngine, CompactionOptions, DiskSimCache};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "slic — statistical library characterization pipeline

USAGE:
    slic <learn|characterize|worker|merge|export|report|cache|profile|history|bench|lint|help> [--flag value]...

RUN FLAGS (learn and characterize).  Each sets one run-config key (configs/quick.toml
lists them all) over the value a --config file gives it:
    --library <name>        paper-trio (default) | standard
    --technology <name>     target node, e.g. target_14nm (default), target_28nm
    --historical <a,b,...>  historical nodes (default n16_finfet,n14_finfet)
    --profile <name>        quick (default) | accurate
    --cells <glob>          cell-kind filter, e.g. 'NAND*'
    --drives <a,b,...>      drive filter, e.g. X1,X2
    --metrics <a,b,...>     delay,slew
    --methods <a,b,...>     bayesian,lse,lut
    --seed <n>              sampling seed
    --cache <file>          persistent simulation cache (JSON lines) shared by shard
                            workers and reruns
    --backend <name>        local (default) | farm
    --workers <a,b,...>     TCP addresses of `slic worker --listen` processes
    --spawn-workers <n>     spawn n subprocess workers of this binary (zero-config
                            multi-process run); combinable with --workers
    --retry-budget <n>      re-dispatch attempts per job before it degrades to the
                            local fallback (default: fleet size)
    --reconnect-attempts <n> re-dials per dead worker per reconnection round, spaced
                            by seeded exponential backoff (default 4)
    --trace <file>          record a JSON-lines span/event trace of the run to <file>
                            (worker and cache compact take it too).  Display-only:
                            artifact bytes are identical with it on or off.  Analyze
                            the sidecar with `slic profile <file>`.
    --ledger <file>         append one run record (config fingerprint, seed, wall time,
                            sims paid vs cached, artifact hash, metrics snapshot) to the
                            cross-run ledger at <file>.  Display-only like --trace.
                            Read it back with `slic history <file>`.
    --progress              render a live stderr progress line (units done, sims paid vs
                            cached, farmed lanes, ETA) even when stderr is not a TTY; on
                            a TTY the line is on by default.  Progress also emits
                            rate-limited `progress` trace events.
  characterize only:
    --variation             add Monte Carlo variation units: every export-grid point
                            under every process seed, reduced to mean/sigma/skew tables
                            in the artifact (and LVF groups in --liberty)
    --variation-seeds <n>   Monte Carlo seeds per unit (implies --variation; default
                            from profile)
    --variation-sigma <a,b> sigma corners reported, e.g. 1,3 (implies --variation)

SUBCOMMANDS:
    learn         Characterize the historical technologies and archive the
                  compact-model fits.  Takes the run flags but --variation*.
                    --config <file>         run config (.json or .toml)
                    --out <file>            output database JSON (default history.json)

    characterize  Run a library-scale characterization plan (or one shard of it).
                  Takes every run flag.
                    --config <file>         run config (.json or .toml)
                    --history <file>        database JSON from `slic learn`;
                                            omitted = learn inline first
                    --shard <i/n>           run shard i of n (1-based), e.g. 2/4;
                                            merge the artifacts with `slic merge`
                    --out <file>            run artifact JSON (default run.json)
                    --liberty <file>        also write the Liberty text here

    worker        Serve transient-simulation batches to a farm broker.  Speaks the
                  JSON-lines wire protocol on stdio by default (the --spawn-workers
                  transport); --listen serves TCP instead.
                    --listen <addr>         bind address, e.g. 127.0.0.1:0 (the actual
                                            port is printed on stdout once bound)
                    --max-batches <n>       serve n batches then drop the connection
                                            without replying (rolling-restart drain /
                                            failover fault injection); exits nonzero
                    --fault-seed <n>        seed for the fault plan's randomized
                                            choices (jittered delays); default 0
                    --fault-drop-after <n>  drop the connection after n messages,
                                            counted per connection (flapping worker)
                    --fault-delay-ms <n>    sleep n ms (plus seeded jitter) before
                                            answering each batch (slow worker)
                    --fault-garbage-every <n> reply to every n-th batch with garbage
                                            bytes instead of results
                    --fault-refuse-reconnects <n> after a fault drop, refuse n broker
                                            re-dials before serving again

    merge         Join shard artifacts into the whole-run artifact.
                    --inputs <a,b,...>      shard artifact JSON files (required)
                    --out <file>            merged artifact JSON (default merged.json)

    export        Render the Liberty text of a finished run.
                    --run <file>            run artifact JSON (default run.json)
                    --out <file>            output .lib path (stdout when omitted)
                    --variation             emit LVF-style ocv_sigma_*/ocv_skewness_*
                                            groups from the artifact's variation tables
                                            (requires a --variation characterization)

    report        Print the Markdown summary of a finished run, including the
                  sigma/skew tables of a statistical run.  A shard artifact is
                  labelled PARTIAL so its totals are never mistaken for the whole run.
                    --run <file>            run artifact JSON (default run.json)

    cache         Cache maintenance.
                    compact --cache <file>  rewrite the append-only simulation-cache log
                                            as a deduplicated last-record-wins snapshot
                                            (taken under the same lock every flush uses)
                                            and report how many records were dropped
                            --drop-legacy   additionally evict records written by a
                                            kernel predating this binary's (they can
                                            never answer a lookup again); reported
                                            separately from the duplicate count
                            --quarantine    salvage a log with corrupt interior lines:
                                            valid records are kept, corrupt lines move
                                            to a `.quarantine` sidecar for inspection
                                            (default: corruption aborts, log untouched)

    profile       Reconstruct the span tree of a `--trace` sidecar: per-phase time,
                  top-N hottest (cell, arc) units, per-worker utilization, cache
                  effectiveness.  A corrupt or truncated tail is salvaged — the report
                  covers the complete prefix, the dropped lines are counted on stderr,
                  and the exit code is nonzero.
                    slic profile <trace.jsonl> [--format md|json|chrome] [--top <n>]
                    slic profile --diff <old.jsonl> <new.jsonl>   regression-gate two
                                            traces: total and per-phase wall deltas plus
                                            cache drift against thresholds; exits nonzero
                                            on regression
                    --format <name>         md (default) | json | chrome (Chrome
                                            trace-event JSON — load in ui.perfetto.dev)
                    --top <n>               hottest-unit rows to keep (default 10)
                    --config <file>         read `observability.diff.*` thresholds
                    --wall-pct <f>          max wall-time rise, percent (default 50)
                    --counter-pct <f>       max gated-counter rise, percent (default 10)
                    --hit-rate-drop <f>     max cache-hit-rate drop, points (default 5)

    history       List the cross-run ledger written by `--ledger`, or gate its newest
                  run against the previous run of the same config fingerprint.
                    slic history <runs.jsonl>            list every recorded run
                    slic history <runs.jsonl> --diff     diff the last two runs with
                                            matching fingerprints; exits nonzero on
                                            regression (wall, sims paid, hit rate,
                                            gated counters, artifact hash drift)
                    --fingerprint <hex>     diff this fingerprint instead of the most
                                            recently recorded one
                    --config/--wall-pct/--counter-pct/--hit-rate-drop   as in profile

    bench         Kernel benchmark gates.
                    bench diff <fresh.json> [<committed.json>]   compare a fresh
                                            `make bench-kernel` report against the
                                            committed baseline (BENCH_transient.json);
                                            exits nonzero when any variant falls below
                                            half the committed throughput

    lint          Run the workspace invariant checker (determinism, float hygiene,
                  panic policy, lock discipline) against the committed baseline.
                  Exits nonzero on any new violation or stale baseline entry.
                    --root <dir>            workspace root (default .)
                    --config <file>         policy file (default configs/lint.toml)
                    --baseline <file>       baseline (default lint-baseline.json)
                    --format <name>         human (default) | json
                    --update-baseline       rewrite the baseline from this run's
                                            baselineable findings (still fails on
                                            deny-class D1/F1/S1 violations)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(command, "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // profile/history/bench mix positionals with their own flag sets and threshold
    // overrides; they dispatch before the generic flag machinery below.
    match command {
        "profile" => return cmd_profile_entry(&args[1..]),
        "history" => return cmd_history_entry(&args[1..]),
        "bench" => return cmd_bench_entry(&args[1..]),
        _ => {}
    }
    // `slic cache <action> --flag value ...` takes a positional action before its flags.
    // `switches` are valueless boolean flags (recorded as "true" when present).
    let (flag_args, allowed, switches): (&[String], Vec<&str>, Vec<&str>) = match command {
        "learn" => {
            let (flags, switches) = config_flags(&["out"], |key| {
                !key.is_under("variation") && !key.is_under("observability.diff")
            });
            (&args[1..], flags, switches)
        }
        "characterize" => {
            let own = ["out", "history", "liberty", "shard"];
            let (flags, switches) = config_flags(&own, |key| !key.is_under("observability.diff"));
            (&args[1..], flags, switches)
        }
        "worker" => (
            &args[1..],
            vec![
                "listen",
                "max-batches",
                "fault-seed",
                "fault-drop-after",
                "fault-delay-ms",
                "fault-garbage-every",
                "fault-refuse-reconnects",
                "trace",
            ],
            vec![],
        ),
        "lint" => (
            &args[1..],
            vec!["root", "config", "baseline", "format"],
            vec!["update-baseline"],
        ),
        "merge" => (&args[1..], vec!["inputs", "out"], vec![]),
        "export" => (&args[1..], vec!["run", "out"], vec!["variation"]),
        "report" => (&args[1..], vec!["run"], vec![]),
        "cache" => match args.get(1).map(String::as_str) {
            Some("compact") => (
                &args[2..],
                vec!["cache", "trace"],
                vec!["drop-legacy", "quarantine"],
            ),
            Some(other) => {
                eprintln!("error: unknown cache action `{other}` (expected `compact`)");
                return ExitCode::from(2);
            }
            None => {
                eprintln!("error: `slic cache` needs an action, e.g. `slic cache compact`");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("error: unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = match parse_flags(flag_args, &allowed, &switches) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let outcome = match command {
        "learn" => cmd_learn(&flags),
        "characterize" => cmd_characterize(&flags),
        "worker" => cmd_worker(&flags),
        "merge" => cmd_merge(&flags),
        "export" => cmd_export(&flags),
        "report" => cmd_report(&flags),
        "cache" => cmd_cache_compact(&flags),
        "lint" => return cmd_lint(&flags),
        _ => unreachable!("unknown subcommands rejected above"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// `slic lint`: run the workspace invariant checker against the committed baseline.
fn cmd_lint(flags: &BTreeMap<String, String>) -> ExitCode {
    let root = std::path::PathBuf::from(flags.get("root").map_or(".", String::as_str));
    let config_path = root.join(
        flags
            .get("config")
            .map_or("configs/lint.toml", String::as_str),
    );
    let baseline_path = root.join(
        flags
            .get("baseline")
            .map_or("lint-baseline.json", String::as_str),
    );
    let format = flags.get("format").map_or("human", String::as_str);
    if !matches!(format, "human" | "json") {
        eprintln!("error: unknown lint format `{format}` (expected human or json)");
        return ExitCode::from(2);
    }
    let fail = |err: &dyn std::fmt::Display| {
        eprintln!("error: {err}");
        ExitCode::from(2)
    };
    let config = match slic_lint::config::LintConfig::load(&config_path) {
        Ok(config) => config,
        Err(err) => return fail(&err),
    };
    if flags.contains_key("update-baseline") {
        let run = match slic_lint::run(&root, &config) {
            Ok(run) => run,
            Err(err) => return fail(&err),
        };
        let baseline = slic_lint::baseline::Baseline::from_violations(&run.violations);
        if let Err(err) = std::fs::write(&baseline_path, baseline.to_json()) {
            eprintln!("error: cannot write `{}`: {err}", baseline_path.display());
            return ExitCode::from(2);
        }
        let deny: Vec<_> = run.violations.iter().filter(|v| v.rule.is_deny()).collect();
        for violation in &deny {
            eprintln!("{violation}");
        }
        eprintln!(
            "baseline rewritten: {} entr(ies) at `{}`",
            run.violations.len() - deny.len(),
            baseline_path.display()
        );
        if deny.is_empty() {
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "{} deny-class violation(s) remain (D1/F1/S1 are never baselineable)",
            deny.len()
        );
        return ExitCode::FAILURE;
    }
    let baseline = match slic_lint::baseline::Baseline::load(&baseline_path) {
        Ok(baseline) => baseline,
        Err(err) => return fail(&err),
    };
    let outcome = match slic_lint::check(&root, &config, &baseline) {
        Ok(outcome) => outcome,
        Err(err) => return fail(&err),
    };
    let report = match format {
        "json" => slic_lint::render_json(&outcome.run, &outcome.diff),
        _ => slic_lint::render_human(&outcome.run, &outcome.diff),
    };
    print!("{report}");
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses `--flag value` pairs plus valueless `switches` (recorded as `"true"`); rejects
/// stray positionals, missing values, and flags the subcommand does not consume (a typo'd
/// flag must not silently fall back to a default).  Errors are printed; the `Err` is the
/// exit code.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<BTreeMap<String, String>, ExitCode> {
    let fail = |message: String| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    };
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.strip_prefix("--").ok_or_else(|| {
            fail(format!(
                "unexpected argument `{arg}` (flags are `--name value`)"
            ))
        })?;
        let value = if switches.contains(&name) {
            "true".to_string()
        } else if allowed.contains(&name) {
            it.next()
                .ok_or_else(|| fail(format!("flag `--{name}` is missing its value")))?
                .clone()
        } else {
            return Err(fail(format!(
                "unknown flag `--{name}` for this subcommand (expected one of: {})",
                allowed
                    .iter()
                    .chain(switches)
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        };
        if flags.insert(name.to_string(), value).is_some() {
            return Err(fail(format!("flag `--{name}` given twice")));
        }
    }
    Ok(flags)
}

/// A subcommand's flags: `--config`, the flags of the config keys `select` keeps, then the
/// subcommand's `own` flags.  Returns `(valued flags, switches)`.
fn config_flags(
    own: &[&'static str],
    select: impl Fn(&ConfigKey) -> bool,
) -> (Vec<&'static str>, Vec<&'static str>) {
    let (keys, switches) = key_flags(select);
    let valued = std::iter::once("config")
        .chain(keys)
        .chain(own.iter().copied());
    (valued.collect(), switches)
}

/// Parses the flags of a regression gate (`profile --diff`, `history`): `--config`, the
/// `observability.diff.*` flags and `own`, and resolves the thresholds they set.  Errors
/// are printed; the `Err` is the exit code.
fn gate_args(
    args: &[String],
    own: &[&'static str],
    switches: &[&str],
) -> Result<(BTreeMap<String, String>, DiffThresholds), ExitCode> {
    let (allowed, _) = config_flags(own, |key| key.is_under("observability.diff"));
    let flags = parse_flags(args, &allowed, switches)?;
    match build_config(&flags) {
        Ok(config) => Ok((flags, config.diff_thresholds())),
        Err(err) => {
            eprintln!("error: {err}");
            Err(ExitCode::from(2))
        }
    }
}

/// The run configuration: the optional `--config` file with every config-key flag set
/// over it.
fn build_config(flags: &BTreeMap<String, String>) -> Result<RunConfig, PipelineError> {
    RunConfig::with_flags(flags.get("config").map(std::path::Path::new), flags)
}

/// The `observability.trace` path of a subcommand that takes `--trace` but no config
/// file (`worker`, `cache compact`).
fn trace_flag(config: &RunConfig) -> Option<&std::path::Path> {
    let knobs = config.observability.as_ref()?;
    knobs.trace.as_deref().map(std::path::Path::new)
}

/// Opens the JSON-lines trace recorder at `path`, or the free disabled one.
fn open_trace(path: Option<&std::path::Path>) -> Result<TraceRecorder, PipelineError> {
    match path {
        Some(path) => TraceRecorder::to_file(path).map_err(|err| {
            PipelineError::config(format!(
                "cannot create trace file `{}`: {err}",
                path.display()
            ))
        }),
        None => Ok(TraceRecorder::disabled()),
    }
}

/// Builds the observability bundle for a resolved configuration: a file-backed trace
/// recorder when `observability.trace` / `--trace` asked for one, the free disabled
/// recorder otherwise.  The metrics registry is always live.
fn build_observability(
    config: &slic_pipeline::ResolvedConfig,
) -> Result<Observability, PipelineError> {
    let trace = open_trace(config.trace_path.as_deref())?;
    // The stderr progress line draws when the config (or `--progress`) forced it, or
    // automatically when a human is watching stderr.  The meter also runs line-less
    // whenever tracing is live, so rate-limited `progress` events land in the
    // sidecar; with neither display it stays the free disabled meter.
    use std::io::IsTerminal as _;
    let render_line = config.progress || std::io::stderr().is_terminal();
    let progress = if render_line || trace.is_enabled() {
        ProgressMeter::new(trace.clone(), render_line)
    } else {
        ProgressMeter::disabled()
    };
    Ok(Observability {
        trace,
        progress,
        ..Observability::default()
    })
}

/// Builds the runner for a resolved configuration, standing a farm fleet up when the
/// backend choice asks for one.  Returns the fleet handle alongside, so callers can
/// report dispatch statistics after the run.
fn build_runner(
    config: slic_pipeline::ResolvedConfig,
    obs: &Observability,
) -> Result<(PipelineRunner, Option<Arc<FarmBackend>>), PipelineError> {
    // Construction opens the disk-cache log (and, for a farm, connects the fleet), so
    // it gets its own span: a warm log's load is otherwise unattributed.
    let attrs: Vec<(&str, String)> = config
        .cache_path
        .iter()
        .map(|path| ("cache", path.display().to_string()))
        .collect();
    let _span = obs.trace.span("runner.build", &attrs);
    match config.backend.clone() {
        BackendChoice::Local => Ok((
            PipelineRunner::new(config)?.with_observability(obs.clone()),
            None,
        )),
        BackendChoice::Farm {
            workers,
            spawn_workers,
            tuning,
        } => {
            let program = if spawn_workers > 0 {
                Some(std::env::current_exe().map_err(|err| {
                    PipelineError::config(format!("cannot locate the slic binary to spawn: {err}"))
                })?)
            } else {
                None
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
            let farm =
                FarmBackend::with_tuning(&workers, spawn_workers, program.as_deref(), tuning)
                    .map_err(|err| PipelineError::config(format!("farm backend: {err}")))?
                    .with_observability(obs.clone());
            println!(
                "farm: {} worker(s) connected ({} remote, {} spawned)",
                farm.fleet_size(),
                workers.len(),
                spawn_workers,
            );
            let farm = Arc::new(farm);
            let runner =
                PipelineRunner::with_backend(config, farm.clone())?.with_observability(obs.clone());
            Ok((runner, Some(farm)))
        }
    }
}

/// Prints the unified post-run summary in one stable, documented order:
///
///   1. `kernel: ...`          — transient kernel cost, when the backend exposes one
///   2. `dispatch: ...`        — batched-dispatch lane accounting, when lanes flowed
///   3. `farm: ...`            — fleet liveness and job totals, farmed runs only
///   4. `farm resilience: ...` — reconnect/heartbeat/degradation counters, farmed runs
///      only (the chaos CI job greps this line; its shape is load-bearing)
///   5. `metrics: ...`         — the unified registry snapshot, sorted, deterministic
///      serialization
///
/// Both `slic learn` and `slic characterize` print through here, so the order can never
/// drift between subcommands.  Before printing, every per-subsystem counter struct
/// (kernel, dispatch, farm, cache tiers) is folded into the metrics registry, and the
/// snapshot is written to the trace as the final `metrics` event — the cache-
/// effectiveness record `slic profile` reads back.  Returns the snapshot so the
/// run-ledger record can carry the identical metrics the summary printed.
fn print_run_summary(runner: &PipelineRunner, farm: Option<&FarmBackend>) -> MetricsSnapshot {
    let obs = runner.observability();
    if let Some(stats) = runner.engine().backend().kernel_stats() {
        obs.metrics.counter_set("kernel.sims", stats.sims);
        obs.metrics.counter_set("kernel.steps", stats.steps);
        obs.metrics
            .counter_set("kernel.rejected_steps", stats.rejected_steps);
        obs.metrics
            .counter_set("kernel.device_evals", stats.device_evals);
        let occupancy = stats
            .quad_occupancy()
            .map(|o| format!(", {:.0}% quad occupancy", o * 100.0))
            .unwrap_or_default();
        println!(
            "kernel: {} sims, {:.1} steps/sim, {:.1} device evals/sim, \
             {} rejected steps{occupancy}",
            stats.sims,
            stats.steps_per_sim(),
            stats.device_evals_per_sim(),
            stats.rejected_steps,
        );
    }
    let dispatch = runner.engine().dispatch_stats();
    obs.metrics
        .counter_set("dispatch.lanes", dispatch.lanes_dispatched);
    obs.metrics
        .counter_set("dispatch.lanes.claimed", dispatch.lanes_claimed);
    obs.metrics
        .counter_set("dispatch.lanes.cached", dispatch.lanes_cached);
    obs.metrics
        .counter_set("dispatch.lanes.deferred", dispatch.lanes_deferred);
    if dispatch.lanes_dispatched > 0 {
        println!(
            "dispatch: {} lanes ({} solved, {} cache hits, {} deferred)",
            dispatch.lanes_dispatched,
            dispatch.lanes_claimed,
            dispatch.lanes_cached,
            dispatch.lanes_deferred,
        );
    }
    if let Some(farm) = farm {
        let stats = farm.stats();
        obs.metrics
            .counter_set("farm.jobs_completed", stats.jobs_completed);
        obs.metrics.counter_set("farm.failovers", stats.failovers);
        obs.metrics.counter_set("farm.reconnects", stats.reconnects);
        obs.metrics
            .counter_set("farm.heartbeats_missed", stats.heartbeats_missed);
        obs.metrics
            .counter_set("farm.degraded_jobs", stats.degraded_jobs);
        obs.metrics
            .counter_set("farm.lanes_remote", stats.lanes_remote);
        obs.metrics
            .counter_set("farm.lanes_local", stats.lanes_local);
        report_farm(farm);
    }
    let cache = runner.cache();
    obs.metrics.counter_set("cache.hits", cache.hits());
    obs.metrics
        .counter_set("cache.hits.warm", cache.warm_hits());
    obs.metrics.counter_set("cache.misses", cache.misses());
    let snapshot = obs.metrics.snapshot();
    let attrs = snapshot.attrs();
    let attr_refs: Vec<(&str, String)> = attrs
        .iter()
        .map(|(name, value)| (name.as_str(), value.clone()))
        .collect();
    obs.trace.event("metrics", &attr_refs);
    obs.trace.flush();
    print!("{}", snapshot.render());
    snapshot
}

/// Appends one [`RunRecord`] to the cross-run ledger when the resolved config named
/// one (`observability.ledger` / `--ledger`).  Called after the artifact is written,
/// so a ledger failure can never cost a run its results — but it still fails the
/// command loudly, because a silently-missing record would defeat `slic history`.
fn append_run_record(
    config: &slic_pipeline::ResolvedConfig,
    kind: &str,
    wall_ns: u64,
    sims_paid: u64,
    sims_cached: u64,
    artifact_json: &str,
    snapshot: MetricsSnapshot,
) -> Result<(), PipelineError> {
    let Some(path) = &config.ledger_path else {
        return Ok(());
    };
    let record = RunRecord {
        kind: kind.to_string(),
        fingerprint: config.fingerprint(),
        seed: config.seed,
        profile: config.profile.name().to_string(),
        backend: match &config.backend {
            BackendChoice::Local => "local".to_string(),
            BackendChoice::Farm { .. } => "farm".to_string(),
        },
        wall_ns,
        sims_paid,
        sims_cached,
        artifact_hash: slic_obs::ledger::content_hash(artifact_json.as_bytes()),
        snapshot,
    };
    slic_obs::ledger::append(path, &record).map_err(|err| {
        PipelineError::config(format!(
            "cannot append to ledger `{}`: {err}",
            path.display()
        ))
    })?;
    println!(
        "ledger: {kind} run recorded (fingerprint {}, artifact {}) -> {}",
        record.fingerprint,
        record.artifact_hash,
        path.display()
    );
    Ok(())
}

/// Prints the fleet's dispatch summary after a farmed run (the chaos CI job greps the
/// resilience counters out of this line).
fn report_farm(farm: &FarmBackend) {
    let stats = farm.stats();
    println!(
        "farm: {}/{} workers live; {} jobs dispatched, {} failovers; {} lanes remote, {} \
         lanes local fallback",
        farm.live_workers(),
        farm.fleet_size(),
        stats.jobs_completed,
        stats.failovers,
        stats.lanes_remote,
        stats.lanes_local,
    );
    println!(
        "farm resilience: {} reconnects, {} heartbeats missed, {} jobs degraded to local \
         solving",
        stats.reconnects, stats.heartbeats_missed, stats.degraded_jobs,
    );
}

/// The farm's post-run record in artifact form (display-only; never serialized).
fn farm_section(farm: &FarmBackend) -> FarmSection {
    let stats = farm.stats();
    FarmSection {
        fleet_size: farm.fleet_size(),
        workers_live: farm.live_workers(),
        jobs_completed: stats.jobs_completed,
        failovers: stats.failovers,
        reconnects: stats.reconnects,
        heartbeats_missed: stats.heartbeats_missed,
        degraded_jobs: stats.degraded_jobs,
        lanes_remote: stats.lanes_remote,
        lanes_local: stats.lanes_local,
    }
}

/// Parses a 1-based `--shard i/n` specification into `(index, count)`.
fn parse_shard_spec(text: &str) -> Result<(usize, usize), PipelineError> {
    let bad = || {
        PipelineError::config(format!(
            "`--shard {text}` is not a shard specification; expected `i/n` with 1 <= i <= n, \
             e.g. `2/4`"
        ))
    };
    let (index, count) = text.split_once('/').ok_or_else(bad)?;
    let index: usize = index.trim().parse().map_err(|_| bad())?;
    let count: usize = count.trim().parse().map_err(|_| bad())?;
    if index == 0 || count == 0 || index > count {
        return Err(bad());
    }
    Ok((index, count))
}

fn cmd_learn(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let wall = MonotonicClock::new();
    let config = build_config(flags)?.resolve()?;
    let obs = build_observability(&config)?;
    let (runner, farm) = build_runner(config, &obs)?;
    let learning = runner.learn();
    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("history.json");
    let database_json = learning.database.to_json()?;
    std::fs::write(out, &database_json)?;
    // A failed cache write must fail the command, not just warn from a destructor:
    // later shard workers rely on the warm state being on disk.
    {
        let _span = obs.trace.span("cache.flush", &[]);
        runner.cache().persist()?;
    }
    println!(
        "learned {} records from {} technologies in {} simulations -> {out}",
        learning.database.len(),
        learning.database.technology_names().len(),
        learning.simulation_cost,
    );
    let snapshot = print_run_summary(&runner, farm.as_deref());
    append_run_record(
        runner.config(),
        "learn",
        wall.now_ns(),
        learning.simulation_cost,
        runner.cache().hits(),
        &database_json,
        snapshot,
    )?;
    Ok(())
}

/// Assembles the worker's fault-injection script from its `--fault-*` flags, `None` when
/// no fault flag was given.
fn build_fault_plan(flags: &BTreeMap<String, String>) -> Result<Option<FaultPlan>, PipelineError> {
    let parse = |flag: &str| -> Result<Option<u64>, PipelineError> {
        flags
            .get(flag)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| PipelineError::config(format!("`--{flag} {v}` is not an integer")))
            })
            .transpose()
    };
    let plan = FaultPlan {
        seed: parse("fault-seed")?.unwrap_or(0),
        drop_after_messages: parse("fault-drop-after")?,
        delay_ms: parse("fault-delay-ms")?,
        garbage_every: parse("fault-garbage-every")?,
        refuse_reconnects: parse("fault-refuse-reconnects")?.unwrap_or(0),
    };
    let scripted = plan.is_active() || flags.contains_key("fault-seed");
    Ok(scripted.then_some(plan))
}

fn cmd_worker(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let max_batches = match flags.get("max-batches") {
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            PipelineError::config(format!("`--max-batches {v}` is not an integer"))
        })?),
        None => None,
    };
    let fault = build_fault_plan(flags)?;
    let trace = open_trace(trace_flag(&build_config(flags)?))?;
    let outcome = match flags.get("listen") {
        Some(address) => {
            let listener = std::net::TcpListener::bind(address).map_err(|err| {
                PipelineError::config(format!("cannot bind worker to `{address}`: {err}"))
            })?;
            let bound = listener.local_addr()?;
            let options = WorkerOptions {
                name: format!("tcp:{bound}"),
                max_batches,
                fault,
                trace: trace.clone(),
            };
            // The broker (or a test) needs the resolved port when binding to :0.
            println!("worker listening on {bound}");
            use std::io::Write as _;
            std::io::stdout().flush()?;
            serve_listener(&listener, &options)?
        }
        None => {
            let options = WorkerOptions {
                name: format!("stdio:{}", std::process::id()),
                max_batches,
                fault,
                trace: trace.clone(),
            };
            serve_stdio(&options)?
        }
    };
    // Flush before interpreting the outcome: the abrupt-death branches below exit
    // nonzero, and the trace's salvaged prefix is exactly what `slic profile` reports.
    trace.flush();
    match outcome {
        ServeOutcome::Shutdown | ServeOutcome::Disconnected => Ok(()),
        // An exhausted batch limit is a deliberate abrupt death: exit nonzero so process
        // supervisors (and the failover tests) can tell it apart from an orderly stop.
        ServeOutcome::BatchLimit => Err(PipelineError::config(
            "worker reached its --max-batches limit and dropped the connection",
        )),
        // Only the stdio transport can surface a fault drop (a TCP listener goes back to
        // accept); the pipe is gone, so exit nonzero like any other abrupt death.
        ServeOutcome::FaultDrop => Err(PipelineError::config(
            "worker's fault plan dropped the stdio connection",
        )),
    }
}

fn cmd_cache_compact(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let config = build_config(flags)?;
    let path = config
        .cache
        .as_deref()
        .ok_or_else(|| PipelineError::config("`slic cache compact` needs `--cache <file>`"))?;
    let options = CompactionOptions {
        drop_legacy: flags.contains_key("drop-legacy"),
        quarantine: flags.contains_key("quarantine"),
    };
    let trace = open_trace(trace_flag(&config))?;
    let report = {
        let _span = trace.span("cache.compact", &[("cache", path.to_string())]);
        DiskSimCache::compact_with(path, options)?
    };
    trace.flush();
    println!(
        "compacted `{path}`: kept {} records, dropped {} superseded duplicates, evicted \
         {} legacy-kernel records, quarantined {} corrupt lines",
        report.kept, report.dropped, report.dropped_legacy, report.quarantined,
    );
    Ok(())
}

fn cmd_characterize(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    if flags.contains_key("shard") && flags.contains_key("liberty") {
        return Err(PipelineError::config(
            "`--liberty` with `--shard` would silently export a partial library; run the \
             shards, join them with `slic merge`, then render with `slic export`",
        ));
    }
    let wall = MonotonicClock::new();
    let config = build_config(flags)?.resolve()?;
    let export_grid = config.export_grid;
    let obs = build_observability(&config)?;
    let (runner, farm) = build_runner(config, &obs)?;
    let full_plan = CharacterizationPlan::from_config(runner.config())?;
    let plan = match flags.get("shard") {
        Some(spec) => {
            let (index, count) = parse_shard_spec(spec)?;
            let shard = full_plan.split(count)?.swap_remove(index - 1);
            println!(
                "shard {index}/{count}: {} of {} units over {} arcs of `{}` on {}",
                shard.len(),
                full_plan.len(),
                shard.arcs().len(),
                shard.library_name(),
                runner.config().technology.name(),
            );
            shard
        }
        None => {
            println!(
                "plan: {} units over {} arcs of `{}` on {}",
                full_plan.len(),
                full_plan.arcs().len(),
                full_plan.library_name(),
                runner.config().technology.name(),
            );
            full_plan
        }
    };

    let database = match flags.get("history") {
        Some(path) => HistoricalDatabase::from_json(&std::fs::read_to_string(path)?)
            .map_err(|err| PipelineError::config(format!("cannot parse `{path}`: {err}")))?,
        None => {
            println!("no --history given; learning inline...");
            runner.learn().database
        }
    };

    let mut artifact = runner.characterize(&plan, &database)?;
    // Attach the fleet record for reporting; the section is display-only and never
    // serialized, so the saved JSON stays byte-identical to a local run's.
    if let Some(farm) = &farm {
        artifact.farm = Some(farm_section(farm));
    }
    // Persist the (possibly disk-backed) cache before reporting success: shard workers
    // and reruns depend on it, and the drop-time flush can only warn.
    {
        let _span = obs.trace.span("cache.flush", &[]);
        runner.cache().persist()?;
    }
    let out = flags.get("out").map(String::as_str).unwrap_or("run.json");
    let artifact_json = artifact.to_json()?;
    std::fs::write(out, &artifact_json)?;
    println!(
        "characterized {}/{} arcs in {} simulations ({} cache hits) -> {out}",
        artifact.characterized.arcs.len(),
        plan.arcs().len(),
        artifact.total_simulations,
        artifact.cache_hits,
    );
    if let Some(variation) = &artifact.variation {
        println!(
            "variation: {} Monte Carlo seeds, {} sigma/skew tables",
            variation.process_seeds,
            variation.tables.len(),
        );
    }
    // Post-run summary — kernel, dispatch, farm, resilience, metrics, in that
    // documented order (see `print_run_summary`).
    let snapshot = print_run_summary(&runner, farm.as_deref());
    append_run_record(
        runner.config(),
        "characterize",
        wall.now_ns(),
        artifact.total_simulations,
        artifact.cache_hits,
        &artifact_json,
        snapshot,
    )?;
    if let Some(liberty_path) = flags.get("liberty") {
        if artifact.characterized.arcs.is_empty() {
            return Err(PipelineError::config(format!(
                "no arc obtained both delay and slew fits, so there is nothing to export to \
                 `{liberty_path}` (the run artifact `{out}` was still written); a Liberty \
                 export needs both metrics and a parameter-producing method (bayesian or lse)"
            )));
        }
        let text = match &artifact.variation {
            Some(variation) if !variation.tables.is_empty() => artifact
                .characterized
                .to_liberty_with_variation(runner.engine(), export_grid, variation)?,
            _ => artifact
                .characterized
                .to_liberty(runner.engine(), export_grid)?,
        };
        std::fs::write(liberty_path, text)?;
        println!("liberty -> {liberty_path}");
    }
    Ok(())
}

/// Argument splitter for `slic profile`: diff mode takes two positional trace files
/// after `--diff`; report mode takes one positional trace file before its flags.
fn cmd_profile_entry(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("--diff") {
        match (args.get(1), args.get(2)) {
            (Some(old), Some(new)) if !old.starts_with("--") && !new.starts_with("--") => {
                return match gate_args(&args[3..], &[], &[]) {
                    Ok((_, thresholds)) => cmd_profile_diff(old, new, &thresholds),
                    Err(code) => code,
                };
            }
            _ => {
                eprintln!(
                    "error: `slic profile --diff` needs two trace files, e.g. `slic profile \
                     --diff old.trace.jsonl new.trace.jsonl`"
                );
                return ExitCode::from(2);
            }
        }
    }
    match args.first().map(String::as_str) {
        Some(path) if !path.starts_with("--") => {
            match parse_flags(&args[1..], &["format", "top"], &[]) {
                Ok(flags) => cmd_profile(path, &flags),
                Err(code) => code,
            }
        }
        _ => {
            eprintln!(
                "error: `slic profile` needs a trace file, e.g. `slic profile run.trace.jsonl`"
            );
            ExitCode::from(2)
        }
    }
}

/// `slic profile <trace.jsonl>`: reconstruct the span tree of a trace sidecar.
///
/// A corrupt or truncated tail never hides the healthy prefix: every well-formed line
/// is salvaged into the report, the dropped-line count goes to stderr, and the exit
/// code is nonzero so CI can't mistake a damaged trace for a complete one.
fn cmd_profile(path: &str, flags: &BTreeMap<String, String>) -> ExitCode {
    let format = flags.get("format").map_or("md", String::as_str);
    if !matches!(format, "md" | "json" | "chrome") {
        eprintln!("error: unknown profile format `{format}` (expected md, json or chrome)");
        return ExitCode::from(2);
    }
    let top = match flags.get("top").map(|v| v.parse::<usize>()) {
        None => 10,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("error: `--top` expects an integer");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("error: cannot read trace `{path}`: {err}");
            return ExitCode::from(2);
        }
    };
    let parsed = slic_obs::profile::parse_trace(&text);
    if parsed.records.is_empty() {
        eprintln!(
            "error: `{path}` contains no parseable trace records ({} corrupt line(s))",
            parsed.dropped
        );
        return ExitCode::from(2);
    }
    match format {
        // The Perfetto export is a direct re-encoding of the salvaged records; it
        // needs no report (and `--top` has nothing to truncate).
        "chrome" => print!("{}", slic_obs::perfetto::render_chrome(&parsed)),
        "json" => print!(
            "{}",
            slic_obs::profile::render_json(&slic_obs::profile::build_report(&parsed, top))
        ),
        _ => print!(
            "{}",
            slic_obs::profile::render_md(&slic_obs::profile::build_report(&parsed, top))
        ),
    }
    if parsed.dropped > 0 {
        eprintln!(
            "warning: dropped {} corrupt/truncated line(s) from `{path}`; the report \
             covers the salvaged prefix only",
            parsed.dropped
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `slic profile --diff <old> <new>`: regression-gate one trace against another.
///
/// Exits `FAILURE` on any gated regression (or a corrupt tail in either trace), `2`
/// on unreadable inputs — so CI distinguishes "slower" from "broken invocation".
fn cmd_profile_diff(old_path: &str, new_path: &str, thresholds: &DiffThresholds) -> ExitCode {
    let load = |path: &str| -> Result<(slic_obs::profile::ProfileReport, usize), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read trace `{path}`: {err}"))?;
        let parsed = slic_obs::profile::parse_trace(&text);
        if parsed.records.is_empty() {
            return Err(format!(
                "`{path}` contains no parseable trace records ({} corrupt line(s))",
                parsed.dropped
            ));
        }
        Ok((slic_obs::profile::build_report(&parsed, 0), parsed.dropped))
    };
    let ((old, old_dropped), (new, new_dropped)) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let report = slic_obs::diff::diff_profiles(&old, &new, thresholds);
    print!(
        "{}",
        report.render_md(&format!("profile diff: {old_path} -> {new_path}"))
    );
    let mut failed = !report.is_clean();
    if old_dropped + new_dropped > 0 {
        eprintln!(
            "warning: dropped {} corrupt/truncated line(s) across the two traces",
            old_dropped + new_dropped
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Argument splitter for `slic history`: one positional ledger file, then flags.
fn cmd_history_entry(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|p| !p.starts_with("--")) else {
        eprintln!("error: `slic history` needs a ledger file, e.g. `slic history runs.jsonl`");
        return ExitCode::from(2);
    };
    // The thresholds resolve before the list/diff branch, so a bad threshold flag or
    // `--config` fails both modes alike.
    match gate_args(&args[1..], &["fingerprint"], &["diff"]) {
        Ok((flags, thresholds)) => cmd_history(path, &flags, &thresholds),
        Err(code) => code,
    }
}

/// Renders monotonic nanoseconds as seconds with millisecond resolution.
fn format_wall(ns: u64) -> String {
    format!(
        "{}.{:03}s",
        ns / 1_000_000_000,
        ns % 1_000_000_000 / 1_000_000
    )
}

/// `slic history <runs.jsonl>`: list the cross-run ledger, or (`--diff`) gate the
/// newest run against the previous run with the same config fingerprint.
///
/// Alignment is by fingerprint, never by position: the ledger interleaves runs of
/// different configs (and of `learn` vs `characterize`), and comparing across
/// fingerprints would diff two different workloads.
fn cmd_history(
    path: &str,
    flags: &BTreeMap<String, String>,
    thresholds: &DiffThresholds,
) -> ExitCode {
    let parsed = match slic_obs::ledger::load(std::path::Path::new(path)) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("error: cannot read ledger `{path}`: {err}");
            return ExitCode::from(2);
        }
    };
    if parsed.records.is_empty() {
        eprintln!(
            "error: `{path}` holds no readable run records ({} dropped line(s))",
            parsed.dropped
        );
        return ExitCode::from(2);
    }
    let dropped_warning = |failed: bool| -> ExitCode {
        if parsed.dropped > 0 {
            eprintln!(
                "warning: dropped {} corrupt/truncated line(s) from `{path}`; the \
                 ledger covers the salvaged records only",
                parsed.dropped
            );
            return ExitCode::FAILURE;
        }
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    };
    if !flags.contains_key("diff") {
        println!("# run ledger: {path}\n");
        println!("| # | kind | fingerprint | profile | backend | seed | wall | sims paid | cached | artifact |");
        println!("|--:|------|-------------|---------|---------|------|-----:|----------:|-------:|----------|");
        for (index, record) in parsed.records.iter().enumerate() {
            println!(
                "| {} | {} | {} | {} | {} | {:016x} | {} | {} | {} | {} |",
                index + 1,
                record.kind,
                record.fingerprint,
                record.profile,
                record.backend,
                record.seed,
                format_wall(record.wall_ns),
                record.sims_paid,
                record.sims_cached,
                record.artifact_hash,
            );
        }
        return dropped_warning(false);
    }
    let fingerprint = flags.get("fingerprint").cloned().unwrap_or_else(|| {
        parsed
            .records
            .last()
            .expect("records is non-empty")
            .fingerprint
            .clone()
    });
    let matching: Vec<_> = parsed
        .records
        .iter()
        .filter(|record| record.fingerprint == fingerprint)
        .collect();
    if matching.len() < 2 {
        eprintln!(
            "error: ledger `{path}` holds {} run(s) with fingerprint {fingerprint}; a diff \
             needs two",
            matching.len()
        );
        return ExitCode::from(2);
    }
    let old = matching[matching.len() - 2];
    let new = matching[matching.len() - 1];
    let report = slic_obs::diff::diff_runs(old, new, thresholds);
    print!(
        "{}",
        report.render_md(&format!(
            "history diff: fingerprint {fingerprint} ({} vs {})",
            old.kind, new.kind
        ))
    );
    dropped_warning(!report.is_clean())
}

/// Argument splitter for `slic bench`: `diff <fresh.json> [<committed.json>]`.
fn cmd_bench_entry(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("diff") => {}
        Some(other) => {
            eprintln!("error: unknown bench action `{other}` (expected `diff`)");
            return ExitCode::from(2);
        }
        None => {
            eprintln!(
                "error: `slic bench` needs an action, e.g. `slic bench diff \
                 target/bench_fresh.json`"
            );
            return ExitCode::from(2);
        }
    }
    let Some(fresh) = args.get(1).filter(|p| !p.starts_with("--")) else {
        eprintln!(
            "error: `slic bench diff` needs a fresh report, e.g. `slic bench diff \
             target/bench_fresh.json [BENCH_transient.json]`"
        );
        return ExitCode::from(2);
    };
    let committed = match args.get(2) {
        Some(p) if !p.starts_with("--") => p.as_str(),
        Some(other) => {
            eprintln!("error: unexpected argument `{other}` for `slic bench diff`");
            return ExitCode::from(2);
        }
        None => "BENCH_transient.json",
    };
    if args.len() > 3 {
        eprintln!("error: `slic bench diff` takes at most two report paths");
        return ExitCode::from(2);
    }
    cmd_bench_diff(committed, fresh)
}

/// `slic bench diff <fresh.json> [<committed.json>]`: gate a fresh transient-kernel
/// bench report against the committed baseline.
///
/// Replaces `tools/bench_kernel_diff.py` with the same contract: one row per
/// committed `(variant, preset)` pair, a derived-speedup table, and a nonzero exit
/// when any fresh variant falls below half its committed throughput — the same
/// noise-tolerant floor the CI speedup gate applies.  A variant missing from the
/// fresh (reduced-mode) report is informational, not a regression.
fn cmd_bench_diff(committed_path: &str, fresh_path: &str) -> ExitCode {
    use serde_json::Value;
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read bench report `{path}`: {err}"))?;
        serde_json::from_str(&text).map_err(|err| format!("`{path}`: {err}"))
    };
    let (committed, fresh) = match (load(committed_path), load(fresh_path)) {
        (Ok(committed), Ok(fresh)) => (committed, fresh),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // One (variant-name, preset) row per bench variant, in the report's file order.
    let variants = |report: &Value| -> Vec<(String, String, u64)> {
        let Some(items) = report.get("variants").and_then(Value::as_array) else {
            return Vec::new();
        };
        items
            .iter()
            .filter_map(|v| {
                // Throughputs are fractional; the gate compares whole sims/s.
                let sims_per_sec = v.get("sims_per_sec")?.as_f64().filter(|n| *n >= 0.0)?;
                Some((
                    v.get("name")?.as_str()?.to_string(),
                    v.get("config")?.as_str()?.to_string(),
                    sims_per_sec as u64,
                ))
            })
            .collect()
    };
    let committed_variants = variants(&committed);
    let fresh_variants = variants(&fresh);
    if committed_variants.is_empty() {
        eprintln!("error: `{committed_path}` holds no bench variants");
        return ExitCode::from(2);
    }
    let mode = |report: &Value| match report.get("reduced").and_then(Value::as_bool) {
        Some(true) => "reduced",
        _ => "full",
    };
    let mut report = DiffReport::default();
    for (name, config, base) in &committed_variants {
        match fresh_variants
            .iter()
            .find(|(n, c, _)| n == name && c == config)
        {
            // Below half the committed throughput (a 50% drop) is the regression
            // floor; anything above it is run-to-run noise.
            Some((_, _, now)) => {
                report.push_drop_gated(&format!("{name}/{config} sims/s"), *base, *now, 50.0, 1)
            }
            None => report.push_info(&format!("{name}/{config} sims/s (missing)"), *base, 0),
        }
    }
    print!(
        "{}",
        report.render_md(&format!(
            "transient-kernel diff vs {committed_path} (committed {}, fresh {})",
            mode(&committed),
            mode(&fresh)
        ))
    );
    // The derived speedup ratios, committed vs fresh, for context (never gated: the
    // per-variant rows above already cover the regression surface).
    if let Some(speedups) = committed.get("speedups").and_then(Value::as_object) {
        println!("\n{:<44}{:>10}{:>10}", "speedup", "committed", "fresh");
        for (key, base) in speedups {
            let Some(base) = base.as_f64() else { continue };
            let now = match fresh
                .get("speedups")
                .and_then(|s| s.get(key))
                .and_then(Value::as_f64)
            {
                Some(now) => format!("{now:>9.2}x"),
                _ => format!("{:>10}", "(missing)"),
            };
            println!("{key:<44}{base:>9.2}x{now}");
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_merge(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let inputs = flags
        .get("inputs")
        .ok_or_else(|| PipelineError::config("`slic merge` needs `--inputs a.json,b.json,...`"))?;
    let paths: Vec<&str> = inputs
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if paths.is_empty() {
        return Err(PipelineError::config("`--inputs` lists no artifact files"));
    }
    let mut shards = Vec::with_capacity(paths.len());
    for path in &paths {
        shards.push(RunArtifact::load(path).map_err(|err| {
            PipelineError::config(format!("cannot load shard artifact `{path}`: {err}"))
        })?);
    }
    let merged = RunArtifact::merge(&shards)?;
    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("merged.json");
    merged.save(out)?;
    println!(
        "merged {} shards: {} of {} planned units, {} arcs characterized, {} simulations \
         ({} cache hits, {} misses) -> {out}",
        shards.len(),
        merged.units.len(),
        merged.planned_units,
        merged.characterized.arcs.len(),
        merged.total_simulations,
        merged.cache_hits,
        merged.cache_misses,
    );
    Ok(())
}

/// Rebuilds the artifact's engine (technology + profile transient settings) for export.
fn engine_for(
    artifact: &RunArtifact,
) -> Result<(CharacterizationEngine, RunProfile), PipelineError> {
    let technology = TechnologyNode::by_name(&artifact.technology).ok_or_else(|| {
        PipelineError::config(format!(
            "artifact references unknown technology `{}`",
            artifact.technology
        ))
    })?;
    let profile = RunProfile::from_name(&artifact.profile).ok_or_else(|| {
        PipelineError::config(format!(
            "artifact references unknown profile `{}`",
            artifact.profile
        ))
    })?;
    let engine = CharacterizationEngine::with_config(technology, profile.transient())?;
    Ok((engine, profile))
}

fn cmd_export(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let run_path = flags.get("run").map(String::as_str).unwrap_or("run.json");
    let artifact = RunArtifact::load(run_path)?;
    if artifact.is_partial() {
        return Err(PipelineError::config(format!(
            "`{run_path}` is a shard artifact covering {} of {} planned units; exporting \
             it would silently produce a partial library — join the shards with `slic \
             merge` first",
            artifact.units.len(),
            artifact.planned_units
        )));
    }
    if artifact.characterized.arcs.is_empty() {
        return Err(PipelineError::config(format!(
            "`{run_path}` contains no fully characterized arcs to export"
        )));
    }
    let (engine, profile) = engine_for(&artifact)?;
    let text = if flags.contains_key("variation") {
        let variation = artifact
            .variation
            .as_ref()
            .filter(|v| !v.tables.is_empty())
            .ok_or_else(|| {
                PipelineError::config(format!(
                    "`{run_path}` has no variation tables to export; rerun `slic \
                     characterize --variation` first"
                ))
            })?;
        artifact.characterized.to_liberty_with_variation(
            &engine,
            profile.export_grid(),
            variation,
        )?
    } else {
        artifact
            .characterized
            .to_liberty(&engine, profile.export_grid())?
    };
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!(
                "exported {} arcs of `{}` -> {path}",
                artifact.characterized.arcs.len(),
                artifact.library,
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_report(flags: &BTreeMap<String, String>) -> Result<(), PipelineError> {
    let run_path = flags.get("run").map(String::as_str).unwrap_or("run.json");
    let artifact = RunArtifact::load(run_path)?;
    print!("{}", artifact.summary_markdown());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_documents_every_config_key_flag() {
        let (valued, switches) = key_flags(|_| true);
        for flag in valued.iter().chain(&switches) {
            assert!(
                USAGE.contains(&format!("--{flag} ")),
                "`slic help` does not document `--{flag}`"
            );
        }
    }
}
