//! `perfbench` — the slic pipeline benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --slic <path>
//! ```
//!
//! Sets the workload up several times (reporting the median as `setup_s`), then runs it
//! as a closed loop with one client for `--seconds`: each run starts after the previous
//! one ends, with a fresh runner and cache.  With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` traced and untraced runs alternate and it prints the
//! per-layer metrics and the tracing overhead.  The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.  See `README.md`.

mod probe;
mod stats;
mod workload;

use stats::{median, tail, Digest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{BenchResult, Workload};

/// Times each workload is set up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Runs made even when `--seconds` has already elapsed, so every run measures something
/// and the traced mode has both a traced and an untraced run.
const MIN_RUNS: u64 = 2;

/// Runs whose artifact and Liberty bytes feed the fixed-length digest: few enough that
/// every workload completes them within any `--seconds`.
const DIGEST_PREFIX: u64 = 2;

/// End-to-end metrics (`--trace 0`), with units.  `run_s_tail` is printed beside them
/// but not gated: see `README.md`.
const END_TO_END: [(&str, &str); 6] = [
    ("run_s_p50", "s"),
    ("setup_s", "s"),
    ("sims_paid", "count"),
    ("error_pct", "%"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.  Layers a workload does not exercise
/// read 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("plan.build_ms", "ms"),
    ("plan.units", "count"),
    ("learn.ms", "ms"),
    ("learn.sims", "count"),
    ("history.load_ms", "ms"),
    ("history.bytes", "B"),
    ("history.load_mb_per_s", "MB/s"),
    ("cache.open_ms", "ms"),
    ("cache.lookup_calls", "count"),
    ("cache.hits", "count"),
    ("cache.warm_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_busy_ms", "ms"),
    ("cache.store_busy_ms", "ms"),
    ("cache.persist_ms", "ms"),
    ("cache.log_bytes", "B"),
    ("dispatch.lanes", "count"),
    ("dispatch.lanes_cached", "count"),
    ("dispatch.lanes_claimed", "count"),
    ("dispatch.lanes_deferred", "count"),
    ("dispatch.unattributed_sims", "count"),
    ("backend.batches", "count"),
    ("backend.lanes_per_batch_p50", "count"),
    ("backend.lanes_per_batch_max", "count"),
    ("backend.busy_ms", "ms"),
    ("backend.covered_ms", "ms"),
    ("kernel.sims", "count"),
    ("kernel.steps_per_sim", "count"),
    ("kernel.device_evals_per_sim", "count"),
    ("kernel.rejected_steps_per_sim", "count"),
    ("kernel.sims_per_busy_s", "1/s"),
    ("characterize.ms", "ms"),
    ("characterize.self_ms", "ms"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.bytes", "B"),
    ("liberty.export_ms", "ms"),
    ("liberty.bytes", "B"),
    ("report.ms", "ms"),
    ("farm.connect_ms", "ms"),
    ("farm.jobs", "count"),
    ("farm.lanes_per_job", "count"),
    ("farm.lanes_remote", "count"),
    ("farm.lanes_local", "count"),
    ("farm.failovers", "count"),
    ("farm.roundtrip_ms_p50", "ms"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("trace.stage_coverage_pct", "%"),
    ("trace.run_s_p50", "s"),
    ("trace.untraced_run_s_p50", "s"),
    ("trace.runs", "count"),
    ("trace_overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    slic: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        if flags.insert(name.to_string(), value).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing `--{name}`"))
    };
    let workload = take("workload")?;
    let workload =
        Workload::from_name(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = take("seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("`--seed {seed}` is not an unsigned integer"))?;
    let seconds = take("seconds")?;
    let seconds = seconds
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("`--seconds {seconds}` is not a positive number"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}` must be 0 or 1")),
    };
    let slic = PathBuf::from(take("slic")?);
    if let Some(name) = flags.keys().next() {
        return Err(format!("unknown flag `--{name}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        slic,
    })
}

fn json_number(value: f64) -> String {
    // `+ 0.0` folds the `-0` an empty float sum yields onto `0`.
    if value.is_finite() {
        format!("{}", value + 0.0)
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = bench(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only when no other run is still using the directory.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {}: {err}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args, work: &std::path::Path) -> BenchResult<()> {
    if !args.slic.is_file() {
        return Err(format!("no slic binary at `{}`", args.slic.display()).into());
    }
    let mut setup_s = Vec::new();
    let mut setup_failures = Vec::new();
    let mut prepared = None;
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let ready = workload::setup(
            args.workload,
            args.seed,
            &args.slic,
            &work.join(format!("setup-{i}")),
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_failures.extend(ready.failures.iter().cloned());
        prepared = Some(ready);
    }
    let prepared = prepared.expect("SETUP_REPEATS is nonzero");

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut sims = Vec::new();
    let mut errors = Vec::new();
    let mut peak_rss = Vec::new();
    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut digest = Digest::default();
    let mut prefix_digest = Digest::default();
    let mut failed_runs = 0u64;
    let mut index = 0u64;
    while index < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        // In traced mode every other run is untraced: the pair gives the overhead.
        let traced = args.trace && index.is_multiple_of(2);
        probe::reset_peak_rss();
        let outcome = prepared.run(index, traced)?;
        peak_rss.push(probe::peak_rss_mb());
        for bytes in [outcome.artifact.as_bytes(), outcome.liberty.as_bytes()] {
            digest.update(bytes);
            if index < DIGEST_PREFIX {
                prefix_digest.update(bytes);
            }
        }
        if !outcome.failures.is_empty() {
            failed_runs += 1;
            for failure in &outcome.failures {
                eprintln!("perfbench: run {index}: check failed: {failure}");
            }
        }
        if traced {
            traced_walls.push(outcome.wall_s);
            for (name, value) in outcome.layers {
                layers.entry(name).or_default().push(value);
            }
        } else {
            walls.push(outcome.wall_s);
        }
        sims.push(outcome.sims_paid as f64);
        errors.push(outcome.error_pct);
        index += 1;
    }
    for failure in &setup_failures {
        eprintln!("perfbench: set-up check failed: {failure}");
    }
    let attempted = index;
    let ok_frac = (attempted - failed_runs) as f64 / attempted as f64;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.run_s_p50" => median(&traced_walls),
                "trace.untraced_run_s_p50" => median(&walls),
                "trace.runs" => traced_walls.len() as f64,
                "trace_overhead_pct" => 100.0 * (median(&traced_walls) / median(&walls) - 1.0),
                _ => layers.get(name).map_or(0.0, |v| median(v)),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let run_tail = tail(&walls);
        println!(
            "run_s_tail = {} s: p{:.1} of {} runs ({} beyond it)",
            json_number(run_tail.value),
            run_tail.percentile,
            run_tail.samples,
            run_tail.beyond
        );
        for (name, unit) in END_TO_END {
            let value = match name {
                "run_s_p50" => median(&walls),
                "setup_s" => median(&setup_s),
                "sims_paid" => median(&sims),
                "error_pct" => median(&errors),
                "ok_frac" => ok_frac,
                "peak_rss_mb" => peak_rss.iter().copied().fold(f64::INFINITY, f64::min),
                _ => unreachable!("every end-to-end metric has a value"),
            };
            metrics.push((name, value, unit));
        }
    }
    println!(
        "workload {} seed {}: {attempted} runs, {failed_runs} failed (failed_frac {}), \
         {} set-up check failures",
        args.workload.name(),
        args.seed,
        failed_runs as f64 / attempted as f64,
        setup_failures.len()
    );
    println!(
        "digest {}: {} over all {attempted} runs, {} over the first {DIGEST_PREFIX}",
        args.workload.name(),
        digest.hex(),
        prefix_digest.hex()
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {} {unit}", json_number(*value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed_runs}, \"metrics\": {{{}}}}}",
        failed_runs == 0 && setup_failures.is_empty(),
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of `field` in the entries of one top-level array of `BENCHMARK.json`,
    /// in order.
    fn field_in(manifest: &str, key: &str, field: &str) -> Vec<String> {
        let start = manifest
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split(&format!("\"{field}\": \""))
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("value closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_manifest_matches_the_metrics_printed() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<String> = list.iter().map(|(n, _)| (*n).to_string()).collect();
            let units: Vec<String> = list.iter().map(|(_, u)| (*u).to_string()).collect();
            assert_eq!(field_in(&manifest, key, "name"), names, "{key} names");
            assert_eq!(field_in(&manifest, key, "unit"), units, "{key} units");
        }
        // `farm-nominal` stays runnable but out of the manifest (see README.md).
        let workloads = field_in(&manifest, "workloads", "name");
        assert_eq!(
            workloads,
            ["nominal-cold", "statistical-mc", "two-stage-warm"]
        );
        assert!(workloads.iter().all(|w| Workload::from_name(w).is_some()));
    }
}
