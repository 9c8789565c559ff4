//! Fig. 2: `Td·Ieff/(Vdd+V')` and `Sout·Ieff/(Vdd+V')` are approximately constant across
//! supply voltages for a NOR2 cell in the 14-nm technology.
//!
//! The regenerated series (one per `(Cload, Sin)` group, for both delay and slew and both
//! transitions) are printed together with their coefficients of variation; Criterion times
//! the collapse computation itself.

use criterion::{criterion_group, criterion_main, Criterion};
use slic::prelude::*;
use slic_bench::banner;
use slic_timing_model::vdd_collapse;

fn collect_samples(
    engine: &CharacterizationEngine,
    cell: Cell,
    transition: Transition,
) -> (Vec<TimingSample>, Vec<TimingSample>) {
    let arc = TimingArc::new(cell, 0, transition);
    let nominal = ProcessSample::nominal();
    let points: Vec<InputPoint> = [0.65, 0.72, 0.79, 0.86, 0.93, 1.0]
        .iter()
        .flat_map(|&vdd| {
            [(1.0, 2.0), (2.5, 5.0), (4.5, 10.0)].map(|(cload, sin)| {
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

fn regenerate() -> Vec<TimingSample> {
    banner(
        "Fig. 2",
        "Td*Ieff/(Vdd+V') and Sout*Ieff/(Vdd+V') vs Vdd for a 14-nm NOR2 (constant per group)",
    );
    let engine =
        CharacterizationEngine::with_config(TechnologyNode::n14_finfet(), TransientConfig::fast())
            .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let fitter = LeastSquaresFitter::new();
    let mut kept = Vec::new();
    for transition in Transition::BOTH {
        let (delay, slew) = collect_samples(&engine, cell, transition);
        for (samples, quantity) in [(&delay, "Td"), (&slew, "Sout")] {
            let v_prime = fitter.fit(samples).params.v_prime;
            let series = vdd_collapse(samples, v_prime);
            println!("\n{quantity}, output {transition} (V' = {v_prime:.3} V):");
            for s in &series {
                let values: Vec<String> =
                    s.x.iter()
                        .zip(&s.y)
                        .map(|(vdd, y)| format!("{vdd:.2}V -> {y:.3e}"))
                        .collect();
                println!(
                    "  {:<24} cv = {:>6.2}%   [{}]",
                    s.label,
                    100.0 * s.coefficient_of_variation,
                    values.join(", ")
                );
            }
        }
        kept = delay;
    }
    println!("\n(paper: the collapsed quantity is flat across Vdd for every group)");
    kept
}

fn bench(c: &mut Criterion) {
    let samples = regenerate();
    let v_prime = LeastSquaresFitter::new().fit(&samples).params.v_prime;
    c.bench_function("fig2_vdd_collapse", |b| {
        b.iter(|| vdd_collapse(&samples, v_prime))
    });
}

criterion_group! {
    name = benches;
    config = slic_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
