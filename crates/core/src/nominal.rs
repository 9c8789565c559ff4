//! The nominal characterization study (Fig. 6 of the paper).
//!
//! For a cell arc in the *target* technology, three methods are compared as a function of
//! the number of training simulations `k`:
//!
//! * **Proposed model + Bayesian inference** — `k` Latin-hypercube conditions are simulated,
//!   the compact model is extracted by MAP with the historically learned prior and
//!   precisions, and timing everywhere else is predicted by the model;
//! * **Proposed model + LSE** — the same `k` conditions, plain least squares, no prior;
//! * **Lookup table** — the `k` simulations are spent on a characterization grid and timing
//!   elsewhere is interpolated.
//!
//! Accuracy is measured against a dense random-validation baseline (the paper uses 1000
//! points).  From the resulting error-vs-`k` curves the study also derives the paper's
//! headline number: how many times fewer simulations the proposed method needs to reach the
//! same accuracy as the LUT.

use crate::report::markdown_table;
use serde::{Deserialize, Serialize};
use slic_bayes::{
    HistoricalDatabase, MapExtractor, PrecisionConfig, PrecisionModel, PriorBuilder, TimingMetric,
};
use slic_cells::{Cell, TimingArc};
use slic_device::{ProcessSample, TechnologyNode};
use slic_lut::LutBuilder;
use slic_spice::{CharacterizationEngine, InputPoint, TransientConfig};
use slic_stats::distance::mean_relative_error_percent;
use slic_timing_model::{LeastSquaresFitter, TimingParams, TimingSample};
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The characterization method a result row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MethodKind {
    /// Compact model extracted by MAP with the historical prior ("Proposed Model + Bayesian
    /// Inference").
    ProposedBayesian,
    /// Compact model extracted by plain least squares ("Proposed Model + LSE").
    ProposedLse,
    /// Lookup-table characterization with interpolation.
    Lut,
}

impl MethodKind {
    /// All methods in presentation order.
    pub const ALL: [MethodKind; 3] = [
        MethodKind::ProposedBayesian,
        MethodKind::ProposedLse,
        MethodKind::Lut,
    ];
}

impl fmt::Display for MethodKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodKind::ProposedBayesian => f.write_str("Proposed Model + Bayesian Inference"),
            MethodKind::ProposedLse => f.write_str("Proposed Model + LSE"),
            MethodKind::Lut => f.write_str("Lookup Table"),
        }
    }
}

/// An error-vs-training-samples curve for one method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodCurve {
    /// The method this curve belongs to.
    pub method: MethodKind,
    /// Training sample counts (the x axis of Fig. 6).
    pub training_counts: Vec<usize>,
    /// Mean relative prediction error against the baseline, in percent, per count.
    pub errors_percent: Vec<f64>,
    /// Transient simulations actually spent per count (equals the training count for the
    /// model-based methods; may be smaller for the LUT when the budget does not factor).
    pub simulations: Vec<u64>,
}

impl MethodCurve {
    /// The smallest number of simulations at which the curve reaches `target_percent` error,
    /// if it ever does.
    pub fn simulations_to_reach(&self, target_percent: f64) -> Option<u64> {
        self.errors_percent
            .iter()
            .zip(&self.simulations)
            .filter(|(err, _)| **err <= target_percent)
            .map(|(_, sims)| *sims)
            .min()
    }

    /// The error achieved at the largest training count.
    pub fn final_error(&self) -> f64 {
        *self
            .errors_percent
            .last()
            .expect("curve has at least one point")
    }
}

/// Configuration of the nominal study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NominalStudyConfig {
    /// Number of random validation points that define the baseline (1000 in the paper).
    pub validation_points: usize,
    /// Training sample counts to sweep (the paper uses 1, 2, 3, 5, 10, 20, 50, 100).
    pub training_counts: Vec<usize>,
    /// RNG seed for validation and training-point sampling.
    pub seed: u64,
    /// Transient solver settings for both baseline and training simulations.
    pub transient: TransientConfig,
    /// Whether the prior is restricted to records of the same cell kind (paper behaviour)
    /// or pooled across all cells.
    pub cell_kind_matched_prior: bool,
}

impl Default for NominalStudyConfig {
    fn default() -> Self {
        Self {
            validation_points: 1000,
            training_counts: vec![1, 2, 3, 5, 10, 20, 50, 100],
            seed: 20150313,
            transient: TransientConfig::fast(),
            cell_kind_matched_prior: true,
        }
    }
}

impl NominalStudyConfig {
    /// A reduced configuration for unit tests and quick demos.
    pub fn quick() -> Self {
        Self {
            validation_points: 60,
            training_counts: vec![2, 5, 20],
            ..Self::default()
        }
    }
}

/// The outcome of a nominal study for one (cell, arc, metric).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NominalStudyResult {
    /// The metric that was characterized.
    pub metric: TimingMetric,
    /// The error curves, one per method.
    pub curves: Vec<MethodCurve>,
    /// Simulations spent establishing the validation baseline.
    pub baseline_simulations: u64,
}

impl NominalStudyResult {
    /// The curve of one method.
    ///
    /// # Panics
    ///
    /// Panics if the method was not part of the study (all three always are).
    pub fn curve(&self, method: MethodKind) -> &MethodCurve {
        self.curves
            .iter()
            .find(|c| c.method == method)
            .expect("method present in study")
    }

    /// Speedup of `fast` over `slow` at matched accuracy: the ratio of simulations each
    /// method needs to reach the given target error.  Returns `None` when either method
    /// never reaches the target.
    pub fn speedup_at(
        &self,
        target_percent: f64,
        fast: MethodKind,
        slow: MethodKind,
    ) -> Option<f64> {
        let fast_sims = self.curve(fast).simulations_to_reach(target_percent)? as f64;
        let slow_sims = self.curve(slow).simulations_to_reach(target_percent)? as f64;
        Some(slow_sims / fast_sims)
    }

    /// The paper's headline comparison: the speedup of the Bayesian method over the LUT at
    /// the accuracy the Bayesian method achieves with its largest training budget (clamped
    /// to no tighter than the LUT's own best accuracy so the ratio is defined).
    pub fn headline_speedup(&self) -> Option<f64> {
        let target = self
            .curve(MethodKind::ProposedBayesian)
            .final_error()
            .max(self.curve(MethodKind::Lut).final_error() * 1.0001)
            .max(1e-9);
        self.speedup_at(target, MethodKind::ProposedBayesian, MethodKind::Lut)
    }

    /// Renders the error table as Markdown (rows = training counts, columns = methods).
    pub fn to_markdown(&self) -> String {
        let counts = &self.curves[0].training_counts;
        let mut headers = vec!["training samples".to_string()];
        headers.extend(self.curves.iter().map(|c| format!("{} (%)", c.method)));
        let rows: Vec<Vec<String>> = counts
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut row = vec![k.to_string()];
                row.extend(
                    self.curves
                        .iter()
                        .map(|c| format!("{:.2}", c.errors_percent[i])),
                );
                row
            })
            .collect();
        markdown_table(&headers, &rows)
    }
}

/// The nominal characterization study runner.
#[derive(Debug, Clone)]
pub struct NominalStudy<'a> {
    engine: CharacterizationEngine,
    database: &'a HistoricalDatabase,
    config: NominalStudyConfig,
}

impl<'a> NominalStudy<'a> {
    /// Creates a study of `target` using the archived `database` of historical fits.
    ///
    /// # Panics
    ///
    /// Panics if `config.transient` is invalid; use [`try_new`](Self::try_new) to handle
    /// that as an error.
    pub fn new(
        target: TechnologyNode,
        database: &'a HistoricalDatabase,
        config: NominalStudyConfig,
    ) -> Self {
        Self::try_new(target, database, config)
            .expect("study transient configuration must be valid")
    }

    /// Creates a study of `target`, surfacing an invalid transient configuration as an
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`slic_spice::ConfigError`] when `config.transient` fails
    /// validation.
    pub fn try_new(
        target: TechnologyNode,
        database: &'a HistoricalDatabase,
        config: NominalStudyConfig,
    ) -> Result<Self, slic_spice::ConfigError> {
        Ok(Self::with_engine(
            CharacterizationEngine::with_config(target, config.transient)?,
            database,
            config,
        ))
    }

    /// Creates a study running on an existing engine — the reusable-stage entry point for
    /// library-scale pipelines, which share one engine (counter, cache) across studies.
    ///
    /// The engine's transient configuration takes precedence over `config.transient`.
    pub fn with_engine(
        engine: CharacterizationEngine,
        database: &'a HistoricalDatabase,
        config: NominalStudyConfig,
    ) -> Self {
        Self {
            engine,
            database,
            config,
        }
    }

    /// The engine bound to the target technology.
    pub fn engine(&self) -> &CharacterizationEngine {
        &self.engine
    }

    /// The configuration in use.
    pub fn config(&self) -> &NominalStudyConfig {
        &self.config
    }

    /// Builds the MAP extractor (prior + precisions) for one metric and cell.
    pub fn map_extractor(&self, cell: Cell, metric: TimingMetric) -> MapExtractor {
        let cell_kind = if self.config.cell_kind_matched_prior {
            Some(cell.kind().name())
        } else {
            None
        };
        let prior = PriorBuilder::new()
            .build(self.database, metric, cell_kind)
            .or_else(|_| PriorBuilder::new().build(self.database, metric, None))
            .expect("historical database must contain records for the requested metric");
        let precision = PrecisionModel::learn(
            self.database,
            metric,
            &self.engine.input_space(),
            PrecisionConfig::default(),
        );
        MapExtractor::new(prior, precision)
    }

    /// Runs the full study for one arc and metric.
    pub fn run(&self, cell: Cell, arc: &TimingArc, metric: TimingMetric) -> NominalStudyResult {
        let nominal = ProcessSample::nominal();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let space = self.engine.input_space();

        // Baseline: dense random validation set simulated directly.
        let validation = space.sample_uniform(&mut rng, self.config.validation_points);
        let sweep = |points: &[InputPoint]| {
            let lanes = points.iter().map(|&p| (cell, *arc, p, nominal)).collect();
            self.engine.solve(&lanes)
        };
        let counter_before = self.engine.simulation_count();
        let reference_measurements = sweep(&validation);
        let baseline_simulations = self.engine.simulation_count() - counter_before;
        let reference: Vec<f64> = reference_measurements
            .iter()
            .map(|m| match metric {
                TimingMetric::Delay => m.delay.value(),
                TimingMetric::OutputSlew => m.output_slew.value(),
            })
            .collect();
        let validation_ieffs: Vec<f64> = validation
            .iter()
            .map(|p| self.engine.ieff(arc, p, &nominal).value())
            .collect();

        let extractor = self.map_extractor(cell, metric);
        let lut_builder = LutBuilder::new(&self.engine);
        let fitter = LeastSquaresFitter::new();

        let mut curves: Vec<MethodCurve> = MethodKind::ALL
            .iter()
            .map(|&method| MethodCurve {
                method,
                training_counts: self.config.training_counts.clone(),
                errors_percent: Vec::new(),
                simulations: Vec::new(),
            })
            .collect();

        for &k in &self.config.training_counts {
            // Shared training conditions for both model-based methods.
            let mut training_rng =
                StdRng::seed_from_u64(self.config.seed ^ (k as u64).wrapping_mul(0x9E37_79B9));
            let training_points = space.sample_latin_hypercube(&mut training_rng, k);
            let before = self.engine.simulation_count();
            let training_measurements = sweep(&training_points);
            let model_simulations = self.engine.simulation_count() - before;
            let training_samples: Vec<TimingSample> = training_points
                .iter()
                .zip(&training_measurements)
                .map(|(p, m)| {
                    let observed = match metric {
                        TimingMetric::Delay => m.delay,
                        TimingMetric::OutputSlew => m.output_slew,
                    };
                    TimingSample::new(*p, self.engine.ieff(arc, p, &nominal), observed)
                })
                .collect();

            // Proposed + Bayesian.
            let map_fit = extractor.extract(&training_samples);
            self.push_model_error(
                &mut curves,
                MethodKind::ProposedBayesian,
                &map_fit.params,
                &validation,
                &validation_ieffs,
                &reference,
                model_simulations,
            );

            // Proposed + LSE.
            let lse_fit = fitter.fit(&training_samples);
            self.push_model_error(
                &mut curves,
                MethodKind::ProposedLse,
                &lse_fit.params,
                &validation,
                &validation_ieffs,
                &reference,
                model_simulations,
            );

            // LUT with the same simulation budget.
            let before = self.engine.simulation_count();
            let lut = lut_builder.build_nominal_with_budget(cell, arc, k);
            let lut_simulations = self.engine.simulation_count() - before;
            let lut_predictions: Vec<f64> = validation
                .iter()
                .map(|p| {
                    let m = lut.predict(p);
                    match metric {
                        TimingMetric::Delay => m.delay.value(),
                        TimingMetric::OutputSlew => m.output_slew.value(),
                    }
                })
                .collect();
            let lut_error = mean_relative_error_percent(&lut_predictions, &reference);
            let lut_curve = curves
                .iter_mut()
                .find(|c| c.method == MethodKind::Lut)
                .expect("curve exists");
            lut_curve.errors_percent.push(lut_error);
            lut_curve.simulations.push(lut_simulations);
        }

        NominalStudyResult {
            metric,
            curves,
            baseline_simulations,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_model_error(
        &self,
        curves: &mut [MethodCurve],
        method: MethodKind,
        params: &TimingParams,
        validation: &[InputPoint],
        validation_ieffs: &[f64],
        reference: &[f64],
        simulations: u64,
    ) {
        let predictions: Vec<f64> = validation
            .iter()
            .zip(validation_ieffs)
            .map(|(p, ieff)| params.evaluate(p, slic_units::Amperes(*ieff)).value())
            .collect();
        let error = mean_relative_error_percent(&predictions, reference);
        let curve = curves
            .iter_mut()
            .find(|c| c.method == method)
            .expect("curve exists");
        curve.errors_percent.push(error);
        curve.simulations.push(simulations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::historical::{HistoricalLearner, HistoricalLearningConfig};
    use slic_cells::{CellKind, DriveStrength, Library, Transition};

    fn learned_database() -> HistoricalDatabase {
        let config = HistoricalLearningConfig {
            grid_levels: (3, 3, 2),
            transient: TransientConfig::fast(),
        };
        HistoricalLearner::new(config)
            .learn(
                &[TechnologyNode::n16_finfet(), TechnologyNode::n14_finfet()],
                &Library::paper_trio(),
            )
            .database
    }

    #[test]
    fn study_produces_three_monotone_ish_curves() {
        let db = learned_database();
        let study = NominalStudy::new(
            TechnologyNode::target_14nm(),
            &db,
            NominalStudyConfig::quick(),
        );
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let result = study.run(cell, &arc, TimingMetric::Delay);

        assert_eq!(result.curves.len(), 3);
        assert_eq!(result.baseline_simulations, 60);
        for curve in &result.curves {
            assert_eq!(curve.errors_percent.len(), 3);
            assert!(curve
                .errors_percent
                .iter()
                .all(|e| e.is_finite() && *e >= 0.0));
            // Errors at the largest budget are better than (or close to) the smallest.
            assert!(
                curve.final_error() <= curve.errors_percent[0] + 2.0,
                "{}",
                curve.method
            );
        }
        // The Bayesian curve at k = 2 must already be decent thanks to the prior.
        let bayes = result.curve(MethodKind::ProposedBayesian);
        assert!(
            bayes.errors_percent[0] < 15.0,
            "k=2 error = {}",
            bayes.errors_percent[0]
        );
        // And it must beat the LUT at the same tiny budget.
        let lut = result.curve(MethodKind::Lut);
        assert!(bayes.errors_percent[0] < lut.errors_percent[0]);
        let text = result.to_markdown();
        assert!(text.contains("Lookup Table"));
    }

    #[test]
    fn speedup_accounting_is_consistent() {
        let curve_fast = MethodCurve {
            method: MethodKind::ProposedBayesian,
            training_counts: vec![2, 5, 10],
            errors_percent: vec![6.0, 4.0, 3.0],
            simulations: vec![2, 5, 10],
        };
        let curve_slow = MethodCurve {
            method: MethodKind::Lut,
            training_counts: vec![2, 5, 10],
            errors_percent: vec![40.0, 12.0, 5.0],
            simulations: vec![2, 4, 9],
        };
        let result = NominalStudyResult {
            metric: TimingMetric::Delay,
            curves: vec![curve_fast, curve_slow],
            baseline_simulations: 100,
        };
        assert_eq!(
            result.curve(MethodKind::Lut).simulations_to_reach(5.0),
            Some(9)
        );
        assert_eq!(
            result
                .curve(MethodKind::ProposedBayesian)
                .simulations_to_reach(5.0),
            Some(5)
        );
        assert!(
            (result
                .speedup_at(5.0, MethodKind::ProposedBayesian, MethodKind::Lut)
                .unwrap()
                - 1.8)
                .abs()
                < 1e-12
        );
        assert!(result
            .speedup_at(0.1, MethodKind::ProposedBayesian, MethodKind::Lut)
            .is_none());
    }
}
