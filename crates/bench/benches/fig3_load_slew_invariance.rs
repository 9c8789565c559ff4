//! Fig. 3: `Td/(Cload+Cpar+α·Sin)` and `Sout/(Cload+Cpar+α·Sin)` are approximately constant
//! across (Cload, Sin) combinations for a NOR2 cell in the 14-nm technology.

use criterion::{criterion_group, criterion_main, Criterion};
use slic::prelude::*;
use slic_bench::banner;
use slic_timing_model::load_slew_collapse;

fn collect_samples(
    engine: &CharacterizationEngine,
    cell: Cell,
) -> (Vec<TimingSample>, Vec<TimingSample>) {
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let nominal = ProcessSample::nominal();
    let combos: Vec<(f64, f64)> = (0..14)
        .map(|i| (0.5 + 5.0 * i as f64 / 13.0, 1.0 + 13.0 * i as f64 / 13.0))
        .collect();
    let points: Vec<InputPoint> = [0.7, 0.85, 1.0]
        .iter()
        .flat_map(|&vdd| {
            combos.iter().map(move |&(cload, sin)| {
                InputPoint::new(
                    Seconds::from_picoseconds(sin),
                    Farads::from_femtofarads(cload),
                    Volts(vdd),
                )
            })
        })
        .collect();
    let solved = engine.solve(&points.iter().map(|&p| (cell, arc, p, nominal)).collect());
    let mut delay = Vec::new();
    let mut slew = Vec::new();
    for (&point, m) in points.iter().zip(&solved) {
        let ieff = engine.ieff(&arc, &point, &nominal);
        delay.push(TimingSample::new(point, ieff, m.delay));
        slew.push(TimingSample::new(point, ieff, m.output_slew));
    }
    (delay, slew)
}

fn regenerate() -> (Vec<TimingSample>, TimingParams) {
    banner(
        "Fig. 3",
        "Td/(Cload+Cpar+alpha*Sin) vs 14 load/slew combinations for a 14-nm NOR2 (constant per Vdd)",
    );
    let engine =
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let fitter = LeastSquaresFitter::new();
    let (delay, slew) = collect_samples(&engine, cell);
    let delay_params = fitter.fit(&delay).params;
    let slew_params = fitter.fit(&slew).params;
    for (samples, params, quantity) in
        [(&delay, &delay_params, "Td"), (&slew, &slew_params, "Sout")]
    {
        println!(
            "\n{quantity} (Cpar = {:.3} fF, alpha = {:.3} fF/ps):",
            params.cpar, params.alpha
        );
        for series in load_slew_collapse(samples, params) {
            let mean = series.y.iter().sum::<f64>() / series.y.len() as f64;
            println!(
                "  {:<12} cv = {:>6.2}%   mean collapsed value = {:.3e}",
                series.label,
                100.0 * series.coefficient_of_variation,
                mean
            );
        }
    }
    println!("\n(paper: the collapsed quantity is flat across the 14 combinations at every Vdd)");
    (delay, delay_params)
}

fn bench(c: &mut Criterion) {
    let (samples, params) = regenerate();
    c.bench_function("fig3_load_slew_collapse", |b| {
        b.iter(|| load_slew_collapse(&samples, &params))
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
