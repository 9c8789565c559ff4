//! Quad-kernel parity suite: the production SIMD quad kernel against the scalar
//! embedded-pair oracle, across the same (cell × arc × slew × load × vdd) grid as the
//! golden-parity suite.
//!
//! Three invariants are asserted:
//!
//! 1. **Accuracy envelope** — every quad lane stays within 0.5 % (relative) of its scalar
//!    simulation for delay and output slew, at both configuration presets (the same bound
//!    the CI bench gate enforces against the RK4 golden);
//! 2. **Determinism** — repeating a quad batch reproduces identical bits;
//! 3. **Grouping independence** — a lane's delay and slew bits and its work counters are
//!    the same solved alone, in any slot of a quad and inside any batch, so shard/merge,
//!    farm/local and warm/cold artifacts stay byte-identical.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use slic_cells::{Cell, CellKind, DriveStrength, EquivalentInverter, TimingArc, Transition};
use slic_device::TechnologyNode;
use slic_spice::simd::LaneResult;
use slic_spice::{
    simulate_switching, simulate_switching_batch, simulate_switching_mixed_batch_with_stats,
    InputPoint, TransientConfig,
};
use slic_units::{Farads, Seconds, Volts};

const SIMD_TOLERANCE: f64 = 0.005;

fn grid_points() -> Vec<InputPoint> {
    let mut points = Vec::new();
    for sin_ps in [1.0, 5.0, 15.0] {
        for cload_ff in [0.5, 2.0, 5.0] {
            for vdd in [0.65, 0.8, 1.0] {
                points.push(InputPoint::new(
                    Seconds::from_picoseconds(sin_ps),
                    Farads::from_femtofarads(cload_ff),
                    Volts(vdd),
                ));
            }
        }
    }
    points
}

fn grid_cells() -> Vec<Cell> {
    vec![
        Cell::new(CellKind::Inv, DriveStrength::X1),
        Cell::new(CellKind::Nand2, DriveStrength::X2),
        Cell::new(CellKind::Nor2, DriveStrength::X1),
    ]
}

fn relative_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

fn preset(fast: u32) -> TransientConfig {
    if fast == 1 {
        TransientConfig::fast()
    } else {
        TransientConfig::accurate()
    }
}

/// The exact bits of one lane's outcome: delay, slew and work counters, or the error.
type LaneBits = Result<(u64, u64, u64, u64, u64), String>;

fn lane_bits(lane: &LaneResult) -> LaneBits {
    match lane {
        Ok((m, stats)) => Ok((
            m.delay.value().to_bits(),
            m.output_slew.value().to_bits(),
            stats.steps,
            stats.rejected_steps,
            stats.device_evals,
        )),
        Err(err) => Err(err.to_string()),
    }
}

#[test]
fn simd_lanes_stay_within_half_percent_of_scalar_across_the_grid() {
    let tech = TechnologyNode::n14_finfet();
    let mut rng = StdRng::seed_from_u64(2015);
    let seeds = tech.variation().sample_n(&mut rng, 6);
    let mut worst = 0.0_f64;
    for config in [TransientConfig::accurate(), TransientConfig::fast()] {
        for cell in grid_cells() {
            // Six seeded lanes: one full quad plus a scalar tail of two.
            let lanes: Vec<EquivalentInverter> = seeds
                .iter()
                .map(|s| EquivalentInverter::build(&tech, cell, s))
                .collect();
            for transition in Transition::BOTH {
                let arc = TimingArc::new(cell, 0, transition);
                for point in grid_points() {
                    let batch = simulate_switching_batch(&lanes, &arc, &point, &config)
                        .expect("valid config");
                    for (i, (eq, lane)) in lanes.iter().zip(batch).enumerate() {
                        let simd = lane.expect("lane completes");
                        let scalar = simulate_switching(eq, &arc, &point, &config).unwrap();
                        let delay_err = relative_err(simd.delay.value(), scalar.delay.value());
                        let slew_err =
                            relative_err(simd.output_slew.value(), scalar.output_slew.value());
                        assert!(
                            delay_err < SIMD_TOLERANCE && slew_err < SIMD_TOLERANCE,
                            "{cell} {transition} lane {i} at {point}: delay err {delay_err:.5}, \
                             slew err {slew_err:.5}"
                        );
                        worst = worst.max(delay_err).max(slew_err);
                    }
                }
            }
        }
    }
    // The envelope must not be sitting on the edge; rounding differences across
    // platforms must not flake the suite.
    assert!(worst < 0.8 * SIMD_TOLERANCE, "margin too thin: {worst:.5}");
}

#[test]
fn simd_batches_are_bitwise_deterministic() {
    let tech = TechnologyNode::n28_bulk();
    let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
    let arc = TimingArc::new(cell, 0, Transition::Fall);
    let mut rng = StdRng::seed_from_u64(7);
    let seeds = tech.variation().sample_n(&mut rng, 5);
    let lanes: Vec<EquivalentInverter> = seeds
        .iter()
        .map(|s| EquivalentInverter::build(&tech, cell, s))
        .collect();
    let config = TransientConfig::fast();
    for point in grid_points() {
        let a = simulate_switching_batch(&lanes, &arc, &point, &config).unwrap();
        let b = simulate_switching_batch(&lanes, &arc, &point, &config).unwrap();
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.delay.value().to_bits(), y.delay.value().to_bits());
            assert_eq!(
                x.output_slew.value().to_bits(),
                y.output_slew.value().to_bits()
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random input conditions and process seeds: every SIMD lane within the accuracy
    /// envelope of its scalar simulation, at whichever preset.
    #[test]
    fn simd_lane_tracks_scalar_within_envelope(
        sin_ps in 0.5f64..30.0,
        cload_ff in 0.2f64..8.0,
        vdd in 0.6f64..1.1,
        seed in 0u64..1000,
        fast in 0u32..2,
    ) {
        let tech = TechnologyNode::n14_finfet();
        let cell = Cell::new(CellKind::Nor2, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds = tech.variation().sample_n(&mut rng, 4);
        let lanes: Vec<EquivalentInverter> = seeds
            .iter()
            .map(|s| EquivalentInverter::build(&tech, cell, s))
            .collect();
        let config = preset(fast);
        let point = InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(vdd),
        );
        let batch = simulate_switching_batch(&lanes, &arc, &point, &config).unwrap();
        for (eq, lane) in lanes.iter().zip(batch) {
            let simd = lane.unwrap();
            let scalar = simulate_switching(eq, &arc, &point, &config).unwrap();
            prop_assert!(
                relative_err(simd.delay.value(), scalar.delay.value()) < SIMD_TOLERANCE
            );
            prop_assert!(
                relative_err(simd.output_slew.value(), scalar.output_slew.value())
                    < SIMD_TOLERANCE
            );
        }
    }

    /// Grouping independence: a random problem set spanning cells, arcs, input points and
    /// process seeds.  Every lane's bits and counters are those of the lane solved alone
    /// (a padded quad), whichever quad slot it occupies, and inside shuffled batches of
    /// one to nine lanes.
    #[test]
    fn lane_results_are_independent_of_quad_grouping(
        case in 0u64..1_000_000,
        n in 1usize..10,
        fast in 0u32..2,
    ) {
        let tech = TechnologyNode::n14_finfet();
        let config = preset(fast);
        let mut rng = StdRng::seed_from_u64(case);
        let cells = grid_cells();
        let seeds = tech.variation().sample_n(&mut rng, n);
        let mut eqs = Vec::with_capacity(n);
        let mut coords = Vec::with_capacity(n);
        for seed in &seeds {
            let cell = cells[rng.gen_range(0..cells.len())];
            let arcs = TimingArc::all_arcs(cell);
            let arc = arcs[rng.gen_range(0..arcs.len())];
            let point = InputPoint::new(
                Seconds::from_picoseconds(rng.gen_range(0.5..30.0)),
                Farads::from_femtofarads(rng.gen_range(0.2..8.0)),
                Volts(rng.gen_range(0.6..1.1)),
            );
            eqs.push(EquivalentInverter::build(&tech, cell, seed));
            coords.push((arc, point));
        }
        let lane = |i: usize| (&eqs[i], coords[i].0, coords[i].1);
        let solve = |order: &[usize]| -> Vec<LaneBits> {
            let lanes: Vec<_> = order.iter().map(|&i| lane(i)).collect();
            simulate_switching_mixed_batch_with_stats(&lanes, &config)
                .expect("valid config")
                .iter()
                .map(lane_bits)
                .collect()
        };
        let alone: Vec<_> = (0..n).map(|i| solve(&[i]).remove(0)).collect();

        // Every slot of a full quad, the other three slots filled by the lane's successors.
        for (i, bits) in alone.iter().enumerate() {
            for slot in 0..4 {
                let quad: Vec<usize> = (0..4).map(|s| (i + 4 * n + s - slot) % n).collect();
                prop_assert_eq!(&solve(&quad)[slot], bits);
            }
        }

        // Shuffled batches of every size from one to nine lanes (cycling through the set
        // when it is smaller), so lanes land in different quads, slots and padded tails.
        let mut perm: Vec<usize> = (0..n).collect();
        for size in 1..10 {
            perm.shuffle(&mut rng);
            let order: Vec<usize> = (0..size).map(|k| perm[k % n]).collect();
            for (pos, bits) in solve(&order).iter().enumerate() {
                prop_assert_eq!(bits, &alone[order[pos]]);
            }
        }
    }
}
