//! Table I: extracted delay-model parameters `{kd, Cpar, V', α}` and fitting error for INV,
//! NAND2 and NOR2 across three technologies.
//!
//! The regenerated table is printed; Criterion then times a single full-grid least-squares
//! extraction (the kernel each table row costs).

use criterion::{criterion_group, criterion_main, Criterion};
use slic::prelude::*;
use slic::report::markdown_table;
use slic_bench::banner;

fn fit_cell(
    engine: &CharacterizationEngine,
    cell: Cell,
    points: &[InputPoint],
) -> (TimingParams, f64) {
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let nominal = ProcessSample::nominal();
    let solved = engine.solve(&points.iter().map(|&p| (cell, arc, p, nominal)).collect());
    let samples: Vec<TimingSample> = points
        .iter()
        .zip(&solved)
        .map(|(p, m)| TimingSample::new(*p, engine.ieff(&arc, p, &nominal), m.delay))
        .collect();
    let fit = LeastSquaresFitter::new().fit(&samples);
    let error = fit.params.mean_relative_error_percent(&samples);
    (fit.params, error)
}

fn regenerate() {
    banner(
        "Table I",
        "Extracted delay-model parameters for INV/NAND2/NOR2 in three technologies",
    );
    // Three technologies labelled A/B/C as in the paper.
    let technologies = [
        ("A", TechnologyNode::n14_finfet()),
        ("B", TechnologyNode::n16_finfet()),
        ("C", TechnologyNode::n20_bulk()),
    ];
    let headers: Vec<String> = [
        "Tech",
        "Cell",
        "kd",
        "Cpar (fF)",
        "V' (V)",
        "alpha (fF/ps)",
        "% error",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for (label, tech) in technologies {
        let engine = CharacterizationEngine::with_config(tech, TransientConfig::fast())
            .expect("valid transient configuration");
        let points = engine.input_space().lut_grid(4, 4, 3);
        for kind in CellKind::PAPER_TRIO {
            let cell = Cell::new(kind, DriveStrength::X1);
            let (params, error) = fit_cell(&engine, cell, &points);
            rows.push(vec![
                label.to_string(),
                kind.name().to_string(),
                format!("{:.3}", params.kd),
                format!("{:.3}", params.cpar),
                format!("{:.3}", params.v_prime),
                format!("{:.3}", params.alpha),
                format!("{:.2}%", error),
            ]);
        }
    }
    println!("{}", markdown_table(&headers, &rows));
    println!("(paper: kd 0.356-0.416, Cpar 0.95-1.47 fF, V' -0.29..-0.21 V, errors 0.9-2.1 %)");
}

fn bench(c: &mut Criterion) {
    regenerate();
    let engine =
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("valid transient configuration");
    let points = engine.input_space().lut_grid(3, 3, 2);
    c.bench_function("table1_single_cell_extraction", |b| {
        b.iter(|| {
            fit_cell(
                &engine,
                Cell::new(CellKind::Nor2, DriveStrength::X1),
                &points,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
