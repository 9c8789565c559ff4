//! Belief-propagation study: which historical technologies should the prior trust?
//!
//! Section IV of the paper notes that "the best historical technologies would be those with
//! the same design or process choices as the target technology", and that selecting them is
//! a bias–variance trade-off.  This example quantifies that trade-off for the 14-nm FinFET
//! target:
//!
//! * priors learned from *matched* nodes (the FinFET ones) vs. *mismatched* nodes (the old
//!   planar ones) vs. the full suite;
//! * priors learned from a growing number of historical technologies (`Ntech` sweep);
//! * prior sharpness ablation (covariance scaled down / up).
//!
//! Every variant is scored by the delay prediction error after a two-simulation MAP
//! extraction of the NOR2 fall arc — the regime where the prior matters most.
//!
//! Run with `cargo run --release --example cross_node_prior`.

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::prelude::*;
use slic::report::markdown_table;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scores a prior variant: MAP-extract from `k` simulations, return the mean validation
/// error in percent.
fn score(
    engine: &CharacterizationEngine,
    cell: Cell,
    arc: &TimingArc,
    extractor: &MapExtractor,
    k: usize,
    validation: &[(InputPoint, f64, Amperes)],
) -> f64 {
    let mut rng = StdRng::seed_from_u64(99);
    let nominal = ProcessSample::nominal();
    let points = engine.input_space().sample_latin_hypercube(&mut rng, k);
    let solved = engine.solve(&points.iter().map(|&p| (cell, *arc, p, nominal)).collect());
    let samples: Vec<TimingSample> = points
        .iter()
        .zip(&solved)
        .map(|(p, m)| TimingSample::new(*p, engine.ieff(arc, p, &nominal), m.delay))
        .collect();
    let fit = extractor.extract(&samples);
    let errors: Vec<f64> = validation
        .iter()
        .map(|(p, reference, ieff)| {
            100.0 * (fit.params.evaluate(p, *ieff).value() - reference).abs() / reference
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

fn main() {
    let library = Library::paper_trio();
    println!("characterizing the full historical suite once...");
    let learning = HistoricalLearner::new(HistoricalLearningConfig::default())
        .learn(&TechnologyNode::historical_suite(), &library);
    let db = &learning.database;

    let target = TechnologyNode::target_14nm();
    let engine = CharacterizationEngine::with_config(target, TransientConfig::fast())
        .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);

    // Shared validation baseline.
    let mut rng = StdRng::seed_from_u64(5);
    let nominal = ProcessSample::nominal();
    let points = engine.input_space().sample_uniform(&mut rng, 250);
    let solved = engine.solve(&points.iter().map(|&p| (cell, arc, p, nominal)).collect());
    let validation: Vec<(InputPoint, f64, Amperes)> = points
        .into_iter()
        .zip(&solved)
        .map(|(p, m)| (p, m.delay.value(), engine.ieff(&arc, &p, &nominal)))
        .collect();

    let space = engine.input_space();
    let build_extractor = |subset: &HistoricalDatabase, inflation: f64| -> MapExtractor {
        let prior = PriorBuilder {
            covariance_inflation: inflation,
            ..PriorBuilder::new()
        }
        .build(subset, TimingMetric::Delay, Some("NOR2"))
        .expect("NOR2 delay records present");
        let precision = PrecisionModel::learn(
            subset,
            TimingMetric::Delay,
            &space,
            PrecisionConfig::default(),
        );
        MapExtractor::new(prior, precision)
    };

    // --- Ablation A2: matched vs mismatched historical nodes -------------------------------
    let matched = db.select_technologies(&["hist-16nm-finfet", "hist-14nm-finfet"]);
    let mismatched = db.select_technologies(&["hist-45nm-bulk", "hist-32nm-soi"]);
    let k = 2;
    let headers: Vec<String> = ["prior source", "records", "error @ k=2 (%)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (label, subset) in [
        ("matched FinFET nodes", &matched),
        ("mismatched planar nodes", &mismatched),
        ("all six nodes", db),
    ] {
        let err = score(
            &engine,
            cell,
            &arc,
            &build_extractor(subset, 1.5),
            k,
            &validation,
        );
        rows.push(vec![
            label.to_string(),
            subset.len().to_string(),
            format!("{err:.2}"),
        ]);
    }
    println!("\nAblation A2 — prior source selection (bias–variance trade-off):");
    println!("{}", markdown_table(&headers, &rows));

    // --- Ablation A3: number of historical technologies ------------------------------------
    let order = [
        "hist-14nm-finfet",
        "hist-16nm-finfet",
        "hist-20nm-bulk",
        "hist-28nm-bulk",
        "hist-32nm-soi",
        "hist-45nm-bulk",
    ];
    let headers: Vec<String> = ["Ntech", "technologies", "error @ k=2 (%)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for n in 1..=order.len() {
        let names: Vec<&str> = order[..n].to_vec();
        let subset = db.select_technologies(&names);
        let err = score(
            &engine,
            cell,
            &arc,
            &build_extractor(&subset, 1.5),
            k,
            &validation,
        );
        rows.push(vec![n.to_string(), names.join(", "), format!("{err:.2}")]);
    }
    println!("Ablation A3 — growing the historical suite (Ntech sweep):");
    println!("{}", markdown_table(&headers, &rows));

    // --- Prior sharpness ------------------------------------------------------------------
    let headers: Vec<String> = ["covariance scale", "error @ k=2 (%)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for inflation in [0.25, 1.0, 1.5, 4.0, 16.0] {
        let err = score(
            &engine,
            cell,
            &arc,
            &build_extractor(db, inflation),
            k,
            &validation,
        );
        rows.push(vec![format!("{inflation:.2}x"), format!("{err:.2}")]);
    }
    println!("Prior-strength ablation (covariance inflation):");
    println!("{}", markdown_table(&headers, &rows));
    println!(
        "total target-technology simulations spent in this study: {}",
        engine.simulation_count()
    );
}
