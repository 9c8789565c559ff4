//! End-to-end integration test of the library-scale pipeline: learn → plan →
//! characterize (parallel, shared counter + cache) → persist → export.

use slic_pipeline::{CharacterizationPlan, PipelineRunner, RunArtifact, RunConfig};

fn quick_config() -> RunConfig {
    // The documented defaults are exactly the paper's quick setup; pin the seed so the
    // cache-replay assertions below are about determinism, not luck.
    RunConfig {
        seed: Some(99),
        ..RunConfig::default()
    }
}

#[test]
fn quick_profile_characterizes_the_paper_trio_end_to_end() {
    let resolved = quick_config()
        .resolve()
        .expect("default quick config resolves");
    let runner = PipelineRunner::new(resolved).expect("quick profile is valid");
    let plan = CharacterizationPlan::from_config(runner.config()).expect("non-empty plan");
    // paper trio: 3 cells x 2 primary arcs x 2 metrics x 1 method.
    assert_eq!(plan.len(), 12);

    // Stage 1: learn. All cost flows through the runner's shared counter.
    let learning = runner.learn();
    assert!(!learning.database.is_empty());
    assert_eq!(learning.simulation_cost, runner.counter().count());

    // The learning stage must survive a JSON round trip (the resumable `slic learn` path).
    let db_json = learning.database.to_json().expect("database serializes");
    let reloaded =
        slic::prelude::HistoricalDatabase::from_json(&db_json).expect("database reloads");
    assert_eq!(reloaded, learning.database);

    // Stage 2: characterize against the reloaded database.
    let artifact = runner
        .characterize(&plan, &reloaded)
        .expect("characterization runs");
    assert_eq!(artifact.planned_units, 12);
    assert_eq!(artifact.units.len(), 12);
    assert_eq!(
        artifact.characterized.arcs.len(),
        6,
        "every arc obtains both metric fits"
    );
    // The shared counter total is reported in the artifact and covers learn + characterize.
    assert_eq!(artifact.total_simulations, runner.counter().count());
    assert!(artifact.total_simulations > learning.simulation_cost);
    // Delay/slew unit pairs share sampling points, so each transient serves two metrics:
    // the second metric of every arc is answered entirely from the cache.
    assert!(
        artifact.cache_hits > 0,
        "metric pairing must produce cache hits"
    );
    // Quick-profile Bayesian fits on the target node are accurate.
    for unit in &artifact.units {
        assert!(
            unit.error_percent.is_finite() && unit.error_percent < 10.0,
            "{} {}: {}%",
            unit.arc_id,
            unit.metric,
            unit.error_percent
        );
        assert!(unit.params.is_some(), "Bayesian units carry parameters");
    }

    // Stage 3: persist and reload the run artifact.
    let json = artifact.to_json().expect("artifact serializes");
    let back = RunArtifact::from_json(&json).expect("artifact reloads");
    assert_eq!(back, artifact);

    // Stage 4: Liberty export from the fitted parameters, at zero simulation cost.
    let sims_before = runner.counter().count();
    let liberty = artifact
        .characterized
        .to_liberty(runner.engine(), runner.config().export_grid)
        .expect("fitted arcs exist");
    assert_eq!(
        runner.counter().count(),
        sims_before,
        "fitted export must not simulate"
    );
    for cell in runner.config().library.cells() {
        assert!(
            liberty.contains(&format!("cell ({})", cell.name())),
            "liberty must contain {}",
            cell.name()
        );
    }
    assert!(liberty.contains("cell_rise"));
    assert!(liberty.contains("cell_fall"));
    assert!(liberty.contains("rise_transition"));
    assert!(liberty.contains("fall_transition"));
    assert_eq!(liberty.matches('{').count(), liberty.matches('}').count());
}

#[test]
fn repeated_run_on_a_warm_cache_pays_almost_nothing() {
    let resolved = quick_config().resolve().expect("config resolves");
    let first = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let (_, first_artifact) = first.run().expect("first run completes");
    assert!(first_artifact.total_simulations > 0);

    // Second run, same configuration, sharing the first run's cache.
    let second =
        PipelineRunner::with_cache(resolved, first.cache().clone()).expect("runner builds");
    let (_, second_artifact) = second.run().expect("second run completes");

    assert!(
        second_artifact.cache_hits > first_artifact.cache_hits,
        "a repeated run must hit the warm cache"
    );
    assert_eq!(
        second_artifact.total_simulations, 0,
        "an identical run replays entirely from the cache"
    );
    // And it reproduces the same fits.
    assert_eq!(second_artifact.characterized, first_artifact.characterized);
}

#[test]
fn warm_rerun_from_a_cache_log_is_byte_identical_to_the_cold_artifact() {
    let dir = std::env::temp_dir().join(format!("slic-warm-rerun-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("cache.jsonl");
    std::fs::remove_file(&log).ok();
    let resolved = RunConfig {
        cache: Some(log.display().to_string()),
        ..quick_config()
    }
    .resolve()
    .expect("config resolves");

    // Cold run: every coordinate is solved and appended to the log when the runner drops.
    let cold_runner = PipelineRunner::new(resolved.clone()).expect("runner builds");
    let (_, cold) = cold_runner.run().expect("cold run completes");
    drop(cold_runner);
    assert!(cold.total_simulations > 0);

    // Warm rerun in a fresh runner, answered entirely from the log.
    let warm_runner = PipelineRunner::new(resolved).expect("runner builds");
    let (_, warm) = warm_runner.run().expect("warm rerun completes");
    assert_eq!(warm.total_simulations, 0, "the log answers every lookup");
    assert_eq!(warm.cache_misses, 0);

    // Only the run-cost totals may differ; every other byte is the cold artifact's.
    let rebased = RunArtifact {
        total_simulations: cold.total_simulations,
        cache_hits: cold.cache_hits,
        cache_misses: cold.cache_misses,
        ..warm
    };
    assert_eq!(
        rebased.to_json().expect("serializes"),
        cold.to_json().expect("serializes"),
        "a warm rerun must reproduce the cold artifact byte for byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_files_round_trip_on_disk() {
    let resolved = quick_config().resolve().expect("config resolves");
    let runner = PipelineRunner::new(resolved).expect("runner builds");
    let (_, artifact) = runner.run().expect("pipeline runs");

    let dir = std::env::temp_dir().join(format!("slic-pipeline-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.json");
    artifact.save(&path).expect("artifact saves");
    let reloaded = RunArtifact::load(&path).expect("artifact loads");
    assert_eq!(reloaded, artifact);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_transient_configuration_is_surfaced_as_an_error() {
    use slic_spice::{CharacterizationEngine, TransientConfig};
    let bad = TransientConfig {
        dv_max_fraction: 0.5,
        ..TransientConfig::fast()
    };
    let err =
        CharacterizationEngine::with_config(slic::prelude::TechnologyNode::target_14nm(), bad)
            .expect_err("invalid config must be rejected");
    assert!(err.to_string().contains("dv_max_fraction"));
}

/// Every method and the Monte Carlo variation section, at a pinned seed: the run whose
/// artifact and Liberty bytes are committed under `tests/fixtures/`.
fn fixture_config() -> RunConfig {
    RunConfig {
        seed: Some(7),
        methods: Some(vec!["bayesian".into(), "lse".into(), "lut".into()]),
        variation: Some(slic_pipeline::VariationKnobs {
            process_seeds: Some(4),
            sigma_corners: None,
        }),
        ..RunConfig::default()
    }
}

/// The artifact JSON and LVF Liberty text of one [`fixture_config`] run.
fn fixture_run() -> (String, String) {
    let runner =
        PipelineRunner::new(fixture_config().resolve().expect("config resolves")).expect("runner");
    let (_, artifact) = runner.run().expect("run completes");
    let variation = artifact.variation.as_ref().expect("variation section");
    let liberty = artifact
        .characterized
        .to_liberty_with_variation(runner.engine(), runner.config().export_grid, variation)
        .expect("fitted arcs exist");
    (artifact.to_json().expect("serializes"), liberty)
}

#[test]
fn runner_reproduces_the_committed_artifact_and_liberty_bytes() {
    let (json, liberty) = fixture_run();
    assert!(
        json == include_str!("fixtures/paper_trio_all_methods_mc.json"),
        "artifact bytes changed"
    );
    assert!(
        liberty == include_str!("fixtures/paper_trio_all_methods_mc.lib"),
        "Liberty bytes changed"
    );
}

#[test]
fn traced_quick_run_fills_quads_and_attributes_every_paid_lane() {
    use slic_obs::{Observability, TraceRecorder};
    let dir = std::env::temp_dir().join(format!("slic-batch-fill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let obs = Observability {
        trace: TraceRecorder::to_file(&dir.join("run.trace.jsonl")).expect("trace file opens"),
        ..Observability::default()
    };
    let runner = PipelineRunner::new(quick_config().resolve().expect("config resolves"))
        .expect("runner builds")
        .with_observability(obs.clone());
    let (learning, artifact) = runner.run().expect("run completes");
    obs.trace.flush();

    // The whole plan is one worklist, so backend batches are full quads, not the
    // 1–2 lane scraps a per-unit loop produced.
    let snapshot = obs.metrics.snapshot();
    let (_, lanes) = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "engine.batch.lanes")
        .expect("batch-size histogram recorded");
    assert!(
        lanes.quantile(0.5) >= 4,
        "batch p50 {}",
        lanes.quantile(0.5)
    );

    // Learning runs on the runner's engine, so the run-wide dispatch counters see
    // every paid lane: each kernel simulation was claimed (or waited for) by a solve.
    let kernel = runner
        .engine()
        .backend()
        .kernel_stats()
        .expect("the local backend reports kernel counters");
    let dispatch = runner.engine().dispatch_stats();
    assert!(learning.simulation_cost > 0);
    assert_eq!(kernel.sims, artifact.total_simulations);
    assert_eq!(
        kernel.sims,
        dispatch.lanes_claimed + dispatch.lanes_deferred,
        "{dispatch:?}"
    );
    assert_eq!(
        dispatch.lanes_dispatched,
        dispatch.lanes_cached + dispatch.lanes_claimed + dispatch.lanes_deferred
    );
    std::fs::remove_dir_all(&dir).ok();
}
