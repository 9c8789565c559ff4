//! Fig. 7: average testing error of the mean and standard deviation of delay `Td` for a
//! 28-nm library under process variation, vs the number of training samples (the paper
//! reports 17×/20× fewer simulations than the statistical LUT at matched accuracy).

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

fn regenerate(db: &'static HistoricalDatabase) -> StatisticalStudyResultHolder {
    banner(
        "Fig. 7",
        "Statistical 28-nm delay characterization: E(mu_Td) and E(sigma_Td) vs training samples",
    );
    let study = StatisticalStudy::new(TechnologyNode::target_28nm(), db, study_config());
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let result = study.run(cell, &arc);
    for (metric, title) in [
        (StatMetric::MeanDelay, "E(mu_Td)"),
        (StatMetric::StdDelay, "E(sigma_Td)"),
    ] {
        println!("\n{title} for {}:", arc.id());
        println!("{}", result.to_markdown(metric));
        let bayes = result
            .curves_for(MethodKind::ProposedBayesian)
            .as_method_curve(metric);
        let lut = result.curves_for(MethodKind::Lut).as_method_curve(metric);
        let target = bayes.final_error().max(lut.final_error());
        if let Some(speedup) = result.speedup_at(
            metric,
            target,
            MethodKind::ProposedBayesian,
            MethodKind::Lut,
        ) {
            println!("simulation speedup vs statistical LUT at {target:.2}%: {speedup:.1}x");
        }
    }
    println!(
        "\nbaseline: {} simulations over {} seeds  (paper reports 17x / 20x reductions)",
        result.baseline_simulations, result.process_seeds
    );
    StatisticalStudyResultHolder { study, cell, arc }
}

/// Keeps the study alive for the Criterion kernel.
struct StatisticalStudyResultHolder {
    study: StatisticalStudy<'static>,
    cell: Cell,
    arc: TimingArc,
}

fn bench(c: &mut Criterion) {
    // Leak the database so the study can borrow it with a 'static lifetime inside the
    // holder; the process exits right after the bench, so this is deliberate and bounded.
    let db: &'static HistoricalDatabase =
        Box::leak(Box::new(bench_historical_db(&planar_history())));
    let holder = regenerate(db);

    // Kernel: one Monte Carlo ensemble at a single validation condition (the unit of the
    // statistical baseline's cost).
    let engine = holder.study.engine();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let seeds = engine.tech().variation().sample_n(&mut rng, 40);
    let point = engine.input_space().center();
    let ensemble: LaneSet = seeds
        .iter()
        .map(|&seed| (holder.cell, holder.arc, point, seed))
        .collect();
    c.bench_function("fig7_monte_carlo_40_seeds_one_condition", |b| {
        b.iter(|| engine.solve(&ensemble))
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
