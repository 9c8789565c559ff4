//! Fig. 6: average testing error for delay `Td` when characterizing a 14-nm library, as a
//! function of the number of training samples, for "Proposed Model + Bayesian Inference",
//! "Proposed Model + LSE" and the lookup table — plus the resulting simulation-count
//! speedups (the paper reports ≈15× total: ≈6× from the model, ≈2.5× from the prior).

use criterion::{criterion_group, criterion_main, Criterion};
use slic::nominal::{MethodKind, NominalStudy, NominalStudyConfig};
use slic::prelude::*;
use slic_bench::{banner, bench_historical_db, finfet_history};

fn study_config() -> NominalStudyConfig {
    NominalStudyConfig {
        validation_points: 250,
        training_counts: vec![1, 2, 3, 5, 10, 20, 50],
        ..NominalStudyConfig::default()
    }
}

fn regenerate(db: &HistoricalDatabase) {
    banner(
        "Fig. 6",
        "Nominal 14-nm delay characterization error vs training samples (three methods)",
    );
    let study = NominalStudy::new(TechnologyNode::target_14nm(), db, study_config());
    for kind in CellKind::PAPER_TRIO {
        let cell = Cell::new(kind, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let result = study.run(cell, &arc, TimingMetric::Delay);
        println!("\n{} / delay:", arc.id());
        println!("{}", result.to_markdown());
        let bayes = result.curve(MethodKind::ProposedBayesian);
        let lse = result.curve(MethodKind::ProposedLse);
        let lut = result.curve(MethodKind::Lut);
        let target = bayes
            .final_error()
            .max(lut.final_error())
            .max(lse.final_error());
        let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.1}x"));
        println!(
            "speedups at {target:.2}% accuracy: total (Bayesian vs LUT) = {}, model alone (LSE vs LUT) = {}, prior (Bayesian vs LSE) = {}",
            fmt(result.speedup_at(target, MethodKind::ProposedBayesian, MethodKind::Lut)),
            fmt(result.speedup_at(target, MethodKind::ProposedLse, MethodKind::Lut)),
            fmt(result.speedup_at(target, MethodKind::ProposedBayesian, MethodKind::ProposedLse)),
        );
    }
    println!("\n(paper: ~4.3% error with a prior plus two fitting points; up to 15x fewer simulations than the LUT)");
}

fn bench(c: &mut Criterion) {
    let db = bench_historical_db(&finfet_history());
    regenerate(&db);

    // Kernel: one MAP extraction from two fresh simulations (the inner step of the sweep).
    let study = NominalStudy::new(TechnologyNode::target_14nm(), &db, study_config());
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let extractor = study.map_extractor(cell, TimingMetric::Delay);
    let engine = study.engine();
    let nominal = ProcessSample::nominal();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let points = engine.input_space().sample_latin_hypercube(&mut rng, 2);
    let solved = engine.solve(&points.iter().map(|&p| (cell, arc, p, nominal)).collect());
    let samples: Vec<TimingSample> = points
        .iter()
        .zip(&solved)
        .map(|(p, m)| TimingSample::new(*p, engine.ieff(&arc, p, &nominal), m.delay))
        .collect();
    c.bench_function("fig6_map_extraction_k2", |b| {
        b.iter(|| extractor.extract(&samples))
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
