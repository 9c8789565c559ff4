//! Integration test of the compact model's physical invariances on *simulated* (not
//! model-generated) data — the Figs. 2/3 and Table I claims.

use slic::prelude::*;
use slic_timing_model::{load_slew_collapse, vdd_collapse};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulates a NOR2 fall arc over a structured (Vdd × (Cload, Sin)) grid in the 14-nm node
/// and returns delay and slew samples with their effective currents.
fn nor2_grid_samples() -> (Vec<TimingSample>, Vec<TimingSample>) {
    let tech = TechnologyNode::n14_finfet();
    let engine = CharacterizationEngine::with_config(tech, TransientConfig::fast())
        .expect("valid transient configuration");
    let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let nominal = ProcessSample::nominal();
    let points: Vec<InputPoint> = [0.68, 0.76, 0.84, 0.92, 1.0]
        .iter()
        .flat_map(|&vdd| {
            [(1.0, 2.0), (2.0, 5.0), (3.5, 8.0), (5.0, 12.0)].map(|(cload, sin)| {
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

#[test]
fn table1_analogue_four_parameter_fit_is_accurate_for_simulated_cells() {
    let tech = TechnologyNode::n14_finfet();
    let engine = CharacterizationEngine::with_config(tech, TransientConfig::fast())
        .expect("valid transient configuration");
    let mut rng = StdRng::seed_from_u64(4);
    let points = engine.input_space().sample_uniform(&mut rng, 60);
    let nominal = ProcessSample::nominal();
    let fitter = LeastSquaresFitter::new();
    for kind in [CellKind::Inv, CellKind::Nand2, CellKind::Nor2] {
        let cell = Cell::new(kind, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let solved = engine.solve(&points.iter().map(|&p| (cell, arc, p, nominal)).collect());
        let samples: Vec<TimingSample> = points
            .iter()
            .zip(&solved)
            .map(|(p, m)| TimingSample::new(*p, engine.ieff(&arc, p, &nominal), m.delay))
            .collect();
        let fit = fitter.fit(&samples);
        let error = fit.params.mean_relative_error_percent(&samples);
        // Table I reports 0.9-2.1 % fitting error; our oracle is a different simulator, so
        // allow a looser but still tight bound.
        assert!(error < 5.0, "{kind:?}: fit error = {error}%");
        assert!(
            fit.params.kd > 0.05 && fit.params.kd < 2.0,
            "{kind:?}: kd = {}",
            fit.params.kd
        );
        assert!(
            fit.params.v_prime < 0.2,
            "{kind:?}: V' = {}",
            fit.params.v_prime
        );
    }
}

#[test]
fn fig2_analogue_vdd_collapse_holds_on_simulated_data() {
    let (delay, slew) = nor2_grid_samples();
    let fitter = LeastSquaresFitter::new();
    let delay_params = fitter.fit(&delay).params;
    let slew_params = fitter.fit(&slew).params;

    for (samples, params, label) in [
        (&delay, &delay_params, "delay"),
        (&slew, &slew_params, "slew"),
    ] {
        let series = vdd_collapse(samples, params.v_prime);
        assert_eq!(
            series.len(),
            4,
            "{label}: one series per (Cload, Sin) group"
        );
        for s in &series {
            assert!(
                s.coefficient_of_variation < 0.08,
                "{label} {}: Td*Ieff/(Vdd+V') should be nearly constant, cv = {}",
                s.label,
                s.coefficient_of_variation
            );
        }
    }
}

#[test]
fn fig3_analogue_load_slew_collapse_holds_on_simulated_data() {
    let (delay, _) = nor2_grid_samples();
    let params = LeastSquaresFitter::new().fit(&delay).params;
    let series = load_slew_collapse(&delay, &params);
    assert_eq!(series.len(), 5, "one series per Vdd level");
    for s in &series {
        assert!(
            s.coefficient_of_variation < 0.08,
            "{}: Td/(Cload+Cpar+alpha*Sin) should be nearly constant, cv = {}",
            s.label,
            s.coefficient_of_variation
        );
    }
}

#[test]
fn extended_model_with_cross_term_does_not_fit_worse() {
    let (delay, _) = nor2_grid_samples();
    let base_fit = LeastSquaresFitter::new().fit(&delay);
    let base_err = base_fit.params.mean_relative_error_percent(&delay);
    // Seed the extended model with the base fit and a zero cross term: its error can only
    // match or improve once gamma is allowed to move (here we simply verify the evaluation
    // plumbing agrees at gamma = 0 and that the base fit is already tight).
    let extended = ExtendedTimingParams::new(base_fit.params, 0.0);
    let ext_err = extended.mean_relative_error_percent(&delay);
    assert!((ext_err - base_err).abs() < 1e-9);
    assert!(base_err < 5.0);
}
