//! SPICE-class transient simulation of standard-cell switching events.
//!
//! The paper uses HSPICE with industrial BSIM design kits as its ground-truth oracle: given
//! a cell, an input slew, a load capacitance, a supply voltage and a process corner, the
//! oracle returns the propagation delay `Td` and the output transition time `Sout`.  This
//! crate is the from-scratch substitute: it integrates the nonlinear ODE of the cell's
//! equivalent inverter driving its load, using the virtual-source device model from
//! [`slic_device`].
//!
//! The crate is organized as follows:
//!
//! * [`input`] — the library input space `ξ = (Sin, Cload, Vdd)`: the [`InputPoint`] type,
//!   the [`InputSpace`] box and its sampling plans (uniform, Latin hypercube, LUT grid);
//! * [`measure`] — waveform threshold definitions and the [`TimingMeasurement`] result;
//! * [`transient`] — the adaptive-step Bogacki–Shampine integrator of one switching event:
//!   per-lane state and step control, plus the scalar embedded-pair kernel and the seed
//!   RK4, both kept as test and bench oracles;
//! * [`simd`] — the production kernel: lanes integrated four at a time through a SIMD
//!   quad worklist, each lane's result independent of how lanes were grouped;
//! * [`backend`] — the [`SimulationBackend`] boundary: where a batch of solves actually
//!   executes ([`LocalBackend`] in-process; the `slic-farm` crate adds remote workers);
//! * [`lanes`] — the compact [`LaneSet`] worklist (interned arc/point/seed tables, index
//!   triples per lane) that [`CharacterizationEngine::solve`] takes;
//! * [`engine`] — the "simulator front-end": a [`CharacterizationEngine`] bound to one
//!   technology whose one entry point, [`CharacterizationEngine::solve`], runs (and
//!   counts) every lane of a [`LaneSet`] — single simulations, sweeps and Monte Carlo
//!   ensembles alike, in the role of the paper's SPICE + `.ALTER` + Monte Carlo flow.
//!
//! Simulation counting matters: every speedup the paper reports is a ratio of *simulation
//! counts* needed to reach equal accuracy, so [`engine::SimulationCounter`] is threaded
//! through every experiment.
//!
//! # Examples
//!
//! ```
//! use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
//! use slic_device::{ProcessSample, TechnologyNode};
//! use slic_spice::{CharacterizationEngine, InputPoint, LaneSet};
//! use slic_units::{Farads, Seconds, Volts};
//!
//! let engine = CharacterizationEngine::new(TechnologyNode::n14_finfet());
//! let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
//! let arc = TimingArc::new(cell, 0, Transition::Fall);
//! let loads = [1.0, 2.0, 4.0].map(|ff| {
//!     InputPoint::new(Seconds::from_picoseconds(5.0), Farads::from_femtofarads(ff), Volts(0.8))
//! });
//! let lanes: LaneSet = loads.iter().map(|&p| (cell, arc, p, ProcessSample::nominal())).collect();
//! let ms = engine.solve(&lanes);
//! assert_eq!(engine.simulation_count(), 3);
//! assert!(ms.windows(2).all(|w| w[1].delay > w[0].delay), "more load, more delay");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod disk;
pub mod engine;
pub mod input;
pub mod lanes;
pub mod measure;
pub mod simd;
pub mod transient;

pub use backend::{KernelStatsSnapshot, LocalBackend, SimRequest, SimResult, SimulationBackend};
pub use cache::{CacheError, InMemorySimCache, SimKey, SimulationCache, KERNEL_VERSION};
pub use disk::{CompactionOptions, CompactionReport, DiskSimCache};
pub use engine::{CharacterizationEngine, ConfigError, DispatchSnapshot, SimulationCounter};
pub use input::{InputPoint, InputSpace};
pub use lanes::LaneSet;
pub use measure::TimingMeasurement;
pub use simd::{
    simulate_switching_batch, simulate_switching_batch_with_stats,
    simulate_switching_mixed_batch_with_stats, simulate_switching_sweep_batch,
};
pub use transient::{
    simulate_switching, simulate_switching_rk4, simulate_switching_rk4_with_stats,
    simulate_switching_with_stats, TransientConfig, TransientStats,
};
