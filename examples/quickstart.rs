//! Quickstart: characterize one cell of a brand-new technology from three simulations.
//!
//! The example walks the whole flow of the paper once, end to end, at a size that runs in a
//! few seconds:
//!
//! 1. characterize two historical technologies on a small reference grid and archive the
//!    compact-model fits (Table I's "extracted parameters");
//! 2. learn the Gaussian prior and the per-condition precisions from that archive;
//! 3. simulate only three conditions of the new 14-nm technology and extract the NOR2 delay
//!    parameters by MAP;
//! 4. validate against 200 random conditions simulated directly.
//!
//! Run with `cargo run --release --example quickstart`.

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::prelude::*;
use slic::report::markdown_table;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Historical learning over two older nodes.
    let library = Library::paper_trio();
    let historical = [TechnologyNode::n16_finfet(), TechnologyNode::n14_finfet()];
    let learner = HistoricalLearner::new(HistoricalLearningConfig::default());
    let learning = learner.learn(&historical, &library);
    println!(
        "historical learning: {} records from {} technologies ({} simulations)\n",
        learning.database.len(),
        learning.database.technology_names().len(),
        learning.simulation_cost
    );

    // Print the Table I analogue for the delay metric.
    let headers: Vec<String> = [
        "tech",
        "cell",
        "kd",
        "Cpar (fF)",
        "V' (V)",
        "alpha (fF/ps)",
        "fit error (%)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = learning
        .database
        .records()
        .iter()
        .filter(|r| r.metric == TimingMetric::Delay && r.arc_id.ends_with("FALL"))
        .map(|r| {
            vec![
                r.tech_name.clone(),
                r.cell_name.clone(),
                format!("{:.3}", r.params.kd),
                format!("{:.3}", r.params.cpar),
                format!("{:.3}", r.params.v_prime),
                format!("{:.3}", r.params.alpha),
                format!("{:.2}", r.fit_error_percent),
            ]
        })
        .collect();
    println!(
        "Extracted delay-model parameters (Table I analogue):\n{}",
        markdown_table(&headers, &rows)
    );

    // 2 + 3. Learn the prior/precisions and MAP-extract the target technology's NOR2 delay
    // from three fresh simulations.
    let target = TechnologyNode::target_14nm();
    let engine = CharacterizationEngine::with_config(target.clone(), TransientConfig::fast())
        .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);

    let prior = PriorBuilder::new()
        .build(&learning.database, TimingMetric::Delay, Some("NOR2"))
        .expect("NOR2 delay records exist");
    let precision = PrecisionModel::learn(
        &learning.database,
        TimingMetric::Delay,
        &engine.input_space(),
        PrecisionConfig::default(),
    );
    let extractor = MapExtractor::new(prior, precision);

    let mut rng = StdRng::seed_from_u64(7);
    let fitting_points = engine.input_space().sample_latin_hypercube(&mut rng, 3);
    let nominal = ProcessSample::nominal();
    let sweep = |points: &[InputPoint]| {
        engine.solve(&points.iter().map(|&p| (cell, arc, p, nominal)).collect())
    };
    let solved = sweep(&fitting_points);
    let samples: Vec<TimingSample> = fitting_points
        .iter()
        .zip(&solved)
        .map(|(p, m)| TimingSample::new(*p, engine.ieff(&arc, p, &nominal), m.delay))
        .collect();
    let fit = extractor.extract(&samples);
    println!(
        "MAP extraction for {} in {} from {} simulations:\n  {}\n  posterior sd = {}\n",
        arc.id(),
        target.name(),
        samples.len(),
        fit.params,
        fit.posterior_std_devs()
    );

    // 4. Validate against directly simulated random conditions.
    let validation = engine.input_space().sample_uniform(&mut rng, 200);
    let references = sweep(&validation);
    let mut errors = Vec::new();
    for (p, m) in validation.iter().zip(&references) {
        let reference = m.delay.value();
        let predicted = fit
            .params
            .evaluate(p, engine.ieff(&arc, p, &nominal))
            .value();
        errors.push(100.0 * (predicted - reference).abs() / reference);
    }
    let mean_error = errors.iter().sum::<f64>() / errors.len() as f64;
    println!(
        "validation over {} random conditions: mean delay error = {:.2}% (total target-tech simulations used for fitting: {})",
        validation.len(),
        mean_error,
        samples.len()
    );
}
