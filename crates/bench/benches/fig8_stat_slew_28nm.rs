//! Fig. 8: average testing error of the mean and standard deviation of output slew `Sout`
//! for a 28-nm library under process variation, comparing "Proposed Model + Bayesian
//! Inference" against "Proposed Model + LSE" (the paper reports 18×/19× reductions).

use criterion::{criterion_group, criterion_main, Criterion};
use slic::nominal::MethodKind;
use slic::prelude::*;
use slic::statistical::{StatMetric, StatisticalStudy, StatisticalStudyConfig};
use slic_bench::{banner, bench_historical_db, planar_history};

fn study_config() -> StatisticalStudyConfig {
    StatisticalStudyConfig {
        validation_points: 40,
        process_seeds: 80,
        training_counts: vec![1, 2, 3, 5, 10, 20],
        ..StatisticalStudyConfig::default()
    }
}

fn regenerate(db: &HistoricalDatabase) {
    banner(
        "Fig. 8",
        "Statistical 28-nm output-slew characterization: E(mu_Sout) and E(sigma_Sout) vs training samples",
    );
    let study = StatisticalStudy::new(TechnologyNode::target_28nm(), db, study_config());
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Rise);
    let result = study.run(cell, &arc);
    for (metric, title) in [
        (StatMetric::MeanSlew, "E(mu_Sout)"),
        (StatMetric::StdSlew, "E(sigma_Sout)"),
    ] {
        println!("\n{title} for {}:", arc.id());
        println!("{}", result.to_markdown(metric));
        let bayes = result
            .curves_for(MethodKind::ProposedBayesian)
            .as_method_curve(metric);
        let lse = result
            .curves_for(MethodKind::ProposedLse)
            .as_method_curve(metric);
        let target = bayes.final_error().max(lse.final_error());
        let vs_lse = result.speedup_at(
            metric,
            target,
            MethodKind::ProposedBayesian,
            MethodKind::ProposedLse,
        );
        let vs_lut = result.speedup_at(
            metric,
            target,
            MethodKind::ProposedBayesian,
            MethodKind::Lut,
        );
        println!(
            "simulation speedup at {target:.2}%: vs LSE = {}, vs statistical LUT = {}",
            vs_lse.map_or("n/a".to_string(), |x| format!("{x:.1}x")),
            vs_lut.map_or("n/a".to_string(), |x| format!("{x:.1}x")),
        );
    }
    println!("\n(paper: the Bayesian prior gives 18x / 19x reductions for the slew statistics)");
}

fn bench(c: &mut Criterion) {
    let db = bench_historical_db(&planar_history());
    regenerate(&db);

    // Kernel: a single per-seed extraction pair (delay + slew) from 3 conditions — the unit
    // of the proposed statistical flow's cost.
    let config = study_config();
    let study = StatisticalStudy::new(TechnologyNode::target_28nm(), &db, config);
    let engine = study.engine();
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Rise);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let seed = engine.tech().variation().sample(&mut rng);
    let points = engine.input_space().sample_latin_hypercube(&mut rng, 3);
    let sweep: LaneSet = points.iter().map(|&p| (cell, arc, p, seed)).collect();
    c.bench_function("fig8_three_condition_seed_simulation", |b| {
        b.iter(|| engine.solve(&sweep))
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
