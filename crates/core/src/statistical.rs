//! The statistical characterization study (Figs. 7, 8 and 9 of the paper).
//!
//! Statistical characterization asks for the *distribution* of delay and output slew at
//! every input condition under process variation.  The baseline answer simulates every
//! condition under every Monte Carlo seed; the proposed flow simulates only `k` conditions
//! per seed, extracts the compact-model parameters `P_T^{(j)}, P_S^{(j)}` per seed by MAP,
//! and reconstructs the distribution at *any* condition by evaluating the model over the
//! per-seed parameter sets — `O(k·Nsample)` instead of `O(NLUT·Nsample)` simulations.

use crate::nominal::{MethodCurve, MethodKind};
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
use slic_stats::moments;
use slic_timing_model::{LeastSquaresFitter, TimingParams, TimingSample};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the statistical study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticalStudyConfig {
    /// Number of random validation input conditions (1000 in the paper).
    pub validation_points: usize,
    /// Number of Monte Carlo process seeds (1000 in the paper).
    pub process_seeds: usize,
    /// Training condition counts to sweep.
    pub training_counts: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Transient solver settings.
    pub transient: TransientConfig,
    /// Whether the prior is restricted to records of the same cell kind.
    pub cell_kind_matched_prior: bool,
}

impl Default for StatisticalStudyConfig {
    fn default() -> Self {
        Self {
            validation_points: 200,
            process_seeds: 300,
            training_counts: vec![1, 2, 3, 5, 10, 20, 50],
            seed: 20150313,
            transient: TransientConfig::fast(),
            cell_kind_matched_prior: true,
        }
    }
}

impl StatisticalStudyConfig {
    /// A heavily reduced configuration for unit tests.
    pub fn quick() -> Self {
        Self {
            validation_points: 20,
            process_seeds: 30,
            training_counts: vec![3, 8],
            ..Self::default()
        }
    }
}

/// Error curves of one method for the four statistical metrics of Eqs. (16)–(19).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatMethodCurves {
    /// The method.
    pub method: MethodKind,
    /// Training condition counts.
    pub training_counts: Vec<usize>,
    /// Error of the delay mean, percent.
    pub mean_delay_error: Vec<f64>,
    /// Error of the delay standard deviation, percent.
    pub std_delay_error: Vec<f64>,
    /// Error of the slew mean, percent.
    pub mean_slew_error: Vec<f64>,
    /// Error of the slew standard deviation, percent.
    pub std_slew_error: Vec<f64>,
    /// Transient simulations spent per training count.
    pub simulations: Vec<u64>,
}

impl StatMethodCurves {
    /// Extracts one of the four statistical error curves as a plain [`MethodCurve`] so the
    /// nominal-study speedup helpers can be reused.
    pub fn as_method_curve(&self, which: StatMetric) -> MethodCurve {
        let errors = match which {
            StatMetric::MeanDelay => &self.mean_delay_error,
            StatMetric::StdDelay => &self.std_delay_error,
            StatMetric::MeanSlew => &self.mean_slew_error,
            StatMetric::StdSlew => &self.std_slew_error,
        };
        MethodCurve {
            method: self.method,
            training_counts: self.training_counts.clone(),
            errors_percent: errors.clone(),
            simulations: self.simulations.clone(),
        }
    }
}

/// Which of the four statistical error metrics (Eqs. 16–19) to look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StatMetric {
    /// `E(µ_Td)`.
    MeanDelay,
    /// `E(σ_Td)`.
    StdDelay,
    /// `E(µ_Sout)`.
    MeanSlew,
    /// `E(σ_Sout)`.
    StdSlew,
}

impl StatMetric {
    /// All four metrics in the order the paper plots them.
    pub const ALL: [StatMetric; 4] = [
        StatMetric::MeanDelay,
        StatMetric::StdDelay,
        StatMetric::MeanSlew,
        StatMetric::StdSlew,
    ];
}

/// Result of the statistical study for one arc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticalStudyResult {
    /// Per-method error curves.
    pub curves: Vec<StatMethodCurves>,
    /// Simulations spent on the Monte Carlo baseline.
    pub baseline_simulations: u64,
    /// Number of process seeds used.
    pub process_seeds: usize,
}

impl StatisticalStudyResult {
    /// The curves of one method.
    ///
    /// # Panics
    ///
    /// Panics if the method was not part of the study.
    pub fn curves_for(&self, method: MethodKind) -> &StatMethodCurves {
        self.curves
            .iter()
            .find(|c| c.method == method)
            .expect("method present in study")
    }

    /// Speedup of `fast` over `slow` for one statistical metric at a target error.
    pub fn speedup_at(
        &self,
        metric: StatMetric,
        target_percent: f64,
        fast: MethodKind,
        slow: MethodKind,
    ) -> Option<f64> {
        let fast_sims = self
            .curves_for(fast)
            .as_method_curve(metric)
            .simulations_to_reach(target_percent)? as f64;
        let slow_sims = self
            .curves_for(slow)
            .as_method_curve(metric)
            .simulations_to_reach(target_percent)? as f64;
        Some(slow_sims / fast_sims)
    }

    /// Renders one statistical metric's error table as Markdown.
    pub fn to_markdown(&self, metric: StatMetric) -> String {
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
                        .map(|c| format!("{:.2}", c.as_method_curve(metric).errors_percent[i])),
                );
                row
            })
            .collect();
        markdown_table(&headers, &rows)
    }
}

/// The Fig. 9 comparison: delay samples across process seeds at one input condition, as
/// produced by the baseline, the proposed method and a per-seed LUT interpolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayPdfComparison {
    /// The input condition the densities are evaluated at.
    pub point: InputPoint,
    /// Baseline Monte Carlo delays, one per seed (seconds).
    pub baseline: Vec<f64>,
    /// Proposed-method delays reconstructed from the per-seed MAP parameters (seconds).
    pub proposed: Vec<f64>,
    /// LUT-interpolated delays, one per seed (seconds).
    pub lut: Vec<f64>,
    /// Number of training conditions the proposed method used.
    pub proposed_training_conditions: usize,
    /// Number of grid conditions the LUT used.
    pub lut_training_conditions: usize,
}

impl DelayPdfComparison {
    /// Mean absolute relative error of the proposed method's delay samples against the
    /// baseline (seed-by-seed), in percent.
    pub fn proposed_error_percent(&self) -> f64 {
        mean_relative_error_percent(&self.proposed, &self.baseline)
    }

    /// Mean absolute relative error of the LUT delay samples against the baseline, percent.
    pub fn lut_error_percent(&self) -> f64 {
        mean_relative_error_percent(&self.lut, &self.baseline)
    }

    /// Skewness of the baseline delay distribution (the Fig. 9 non-Gaussianity indicator).
    pub fn baseline_skewness(&self) -> f64 {
        moments::skewness(&self.baseline)
    }
}

/// The statistical characterization study runner.
#[derive(Debug, Clone)]
pub struct StatisticalStudy<'a> {
    engine: CharacterizationEngine,
    database: &'a HistoricalDatabase,
    config: StatisticalStudyConfig,
}

impl<'a> StatisticalStudy<'a> {
    /// Creates a study of `target` using the archived historical fits.
    ///
    /// # Panics
    ///
    /// Panics if `config.transient` is invalid; use [`try_new`](Self::try_new) to handle
    /// that as an error.
    pub fn new(
        target: TechnologyNode,
        database: &'a HistoricalDatabase,
        config: StatisticalStudyConfig,
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
        config: StatisticalStudyConfig,
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
        config: StatisticalStudyConfig,
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
    pub fn config(&self) -> &StatisticalStudyConfig {
        &self.config
    }

    fn map_extractor(&self, cell: Cell, metric: TimingMetric) -> MapExtractor {
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

    /// Per-seed parameter extraction for both metrics at the given training conditions.
    ///
    /// Returns `(delay params, slew params, simulations spent)`; `use_prior = false` gives
    /// the "Proposed Model + LSE" variant.
    fn extract_per_seed(
        &self,
        cell: Cell,
        arc: &TimingArc,
        training_points: &[InputPoint],
        seeds: &[ProcessSample],
        use_prior: bool,
    ) -> (Vec<TimingParams>, Vec<TimingParams>, u64) {
        let delay_extractor = self.map_extractor(cell, TimingMetric::Delay);
        let slew_extractor = self.map_extractor(cell, TimingMetric::OutputSlew);
        let fitter = LeastSquaresFitter::new();
        let before = self.engine.simulation_count();
        let mut delay_params = Vec::with_capacity(seeds.len());
        let mut slew_params = Vec::with_capacity(seeds.len());
        // One cross-seed mega-batch instead of one sweep per seed: every
        // (training point, seed) lane enters the kernel as a single worklist, so the
        // SIMD dispatcher sees full quads even when the training grid is tiny.
        let flat = self.engine.solve(
            &training_points
                .iter()
                .flat_map(|&p| seeds.iter().map(move |&seed| (cell, *arc, p, seed)))
                .collect(),
        );
        for (s, seed) in seeds.iter().enumerate() {
            let measurements: Vec<_> = flat.chunks(seeds.len()).map(|row| row[s]).collect();
            let ieffs: Vec<_> = training_points
                .iter()
                .map(|p| self.engine.ieff(arc, p, seed))
                .collect();
            let delay_samples: Vec<TimingSample> = training_points
                .iter()
                .zip(&measurements)
                .zip(&ieffs)
                .map(|((p, m), ieff)| TimingSample::new(*p, *ieff, m.delay))
                .collect();
            let slew_samples: Vec<TimingSample> = training_points
                .iter()
                .zip(&measurements)
                .zip(&ieffs)
                .map(|((p, m), ieff)| TimingSample::new(*p, *ieff, m.output_slew))
                .collect();
            if use_prior {
                delay_params.push(delay_extractor.extract(&delay_samples).params);
                slew_params.push(slew_extractor.extract(&slew_samples).params);
            } else {
                delay_params.push(fitter.fit(&delay_samples).params);
                slew_params.push(fitter.fit(&slew_samples).params);
            }
        }
        let cost = self.engine.simulation_count() - before;
        (delay_params, slew_params, cost)
    }

    /// Runs the full statistical study for one arc, comparing the proposed Bayesian flow,
    /// the proposed-LSE variant and the statistical LUT.
    pub fn run(&self, cell: Cell, arc: &TimingArc) -> StatisticalStudyResult {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let space = self.engine.input_space();
        let seeds = self
            .engine
            .tech()
            .variation()
            .sample_n(&mut rng, self.config.process_seeds);
        let validation = space.sample_uniform(&mut rng, self.config.validation_points);

        // Monte Carlo baseline: every validation point under every seed.
        let before = self.engine.simulation_count();
        let flat = self.engine.solve(
            &validation
                .iter()
                .flat_map(|&p| seeds.iter().map(move |&seed| (cell, *arc, p, seed)))
                .collect(),
        );
        let baseline_grid: Vec<_> = flat.chunks(seeds.len()).collect();
        let baseline_simulations = self.engine.simulation_count() - before;
        let baseline_mean_delay: Vec<f64> = baseline_grid
            .iter()
            .map(|row| moments::mean(&row.iter().map(|m| m.delay.value()).collect::<Vec<_>>()))
            .collect();
        let baseline_std_delay: Vec<f64> = baseline_grid
            .iter()
            .map(|row| moments::std_dev(&row.iter().map(|m| m.delay.value()).collect::<Vec<_>>()))
            .collect();
        let baseline_mean_slew: Vec<f64> = baseline_grid
            .iter()
            .map(|row| {
                moments::mean(
                    &row.iter()
                        .map(|m| m.output_slew.value())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let baseline_std_slew: Vec<f64> = baseline_grid
            .iter()
            .map(|row| {
                moments::std_dev(
                    &row.iter()
                        .map(|m| m.output_slew.value())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();

        // Per-seed effective currents at the validation points are needed to evaluate the
        // model; they are DC evaluations, not transient simulations.
        let validation_ieffs_per_seed: Vec<Vec<f64>> = seeds
            .iter()
            .map(|seed| {
                validation
                    .iter()
                    .map(|p| self.engine.ieff(arc, p, seed).value())
                    .collect()
            })
            .collect();

        let mut curves: Vec<StatMethodCurves> = [
            MethodKind::ProposedBayesian,
            MethodKind::ProposedLse,
            MethodKind::Lut,
        ]
        .iter()
        .map(|&method| StatMethodCurves {
            method,
            training_counts: self.config.training_counts.clone(),
            mean_delay_error: Vec::new(),
            std_delay_error: Vec::new(),
            mean_slew_error: Vec::new(),
            std_slew_error: Vec::new(),
            simulations: Vec::new(),
        })
        .collect();

        let lut_builder = LutBuilder::new(&self.engine);

        for &k in &self.config.training_counts {
            let mut training_rng =
                StdRng::seed_from_u64(self.config.seed ^ (k as u64).wrapping_mul(0x9E37_79B9));
            let training_points = space.sample_latin_hypercube(&mut training_rng, k);

            for (method, use_prior) in [
                (MethodKind::ProposedBayesian, true),
                (MethodKind::ProposedLse, false),
            ] {
                let (delay_params, slew_params, cost) =
                    self.extract_per_seed(cell, arc, &training_points, &seeds, use_prior);
                let (md, sd, ms, ss) = self.model_moment_errors(
                    &validation,
                    &validation_ieffs_per_seed,
                    &delay_params,
                    &slew_params,
                    (
                        &baseline_mean_delay,
                        &baseline_std_delay,
                        &baseline_mean_slew,
                        &baseline_std_slew,
                    ),
                );
                let curve = curves
                    .iter_mut()
                    .find(|c| c.method == method)
                    .expect("curve exists");
                curve.mean_delay_error.push(md);
                curve.std_delay_error.push(sd);
                curve.mean_slew_error.push(ms);
                curve.std_slew_error.push(ss);
                curve.simulations.push(cost);
            }

            // Statistical LUT with the same number of training conditions.
            let before = self.engine.simulation_count();
            let lut = lut_builder.build_statistical_with_budget(cell, arc, k, &seeds);
            let lut_cost = self.engine.simulation_count() - before;
            let mut pred = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for p in &validation {
                let (md, sd, ms, ss) = lut.predict(p);
                pred.0.push(md);
                pred.1.push(sd);
                pred.2.push(ms);
                pred.3.push(ss);
            }
            let curve = curves
                .iter_mut()
                .find(|c| c.method == MethodKind::Lut)
                .expect("curve exists");
            curve
                .mean_delay_error
                .push(mean_relative_error_percent(&pred.0, &baseline_mean_delay));
            curve
                .std_delay_error
                .push(mean_relative_error_percent(&pred.1, &baseline_std_delay));
            curve
                .mean_slew_error
                .push(mean_relative_error_percent(&pred.2, &baseline_mean_slew));
            curve
                .std_slew_error
                .push(mean_relative_error_percent(&pred.3, &baseline_std_slew));
            curve.simulations.push(lut_cost);
        }

        StatisticalStudyResult {
            curves,
            baseline_simulations,
            process_seeds: seeds.len(),
        }
    }

    /// Computes Eqs. (16)–(19) (expressed as relative errors in percent) for a model-based
    /// method described by its per-seed parameters.
    fn model_moment_errors(
        &self,
        validation: &[InputPoint],
        ieffs_per_seed: &[Vec<f64>],
        delay_params: &[TimingParams],
        slew_params: &[TimingParams],
        baseline: (&[f64], &[f64], &[f64], &[f64]),
    ) -> (f64, f64, f64, f64) {
        let mut mean_delay = Vec::with_capacity(validation.len());
        let mut std_delay = Vec::with_capacity(validation.len());
        let mut mean_slew = Vec::with_capacity(validation.len());
        let mut std_slew = Vec::with_capacity(validation.len());
        for (i, point) in validation.iter().enumerate() {
            let delays: Vec<f64> = delay_params
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    p.evaluate(point, slic_units::Amperes(ieffs_per_seed[j][i]))
                        .value()
                })
                .collect();
            let slews: Vec<f64> = slew_params
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    p.evaluate(point, slic_units::Amperes(ieffs_per_seed[j][i]))
                        .value()
                })
                .collect();
            mean_delay.push(moments::mean(&delays));
            std_delay.push(moments::std_dev(&delays));
            mean_slew.push(moments::mean(&slews));
            std_slew.push(moments::std_dev(&slews));
        }
        (
            mean_relative_error_percent(&mean_delay, baseline.0),
            mean_relative_error_percent(&std_delay, baseline.1),
            mean_relative_error_percent(&mean_slew, baseline.2),
            mean_relative_error_percent(&std_slew, baseline.3),
        )
    }

    /// Reproduces Fig. 9: the delay distribution at one input condition as seen by the
    /// baseline, the proposed method (with `proposed_k` training conditions) and a per-seed
    /// LUT interpolation (with `lut_budget` grid conditions).
    pub fn delay_pdf(
        &self,
        cell: Cell,
        arc: &TimingArc,
        point: InputPoint,
        proposed_k: usize,
        lut_budget: usize,
    ) -> DelayPdfComparison {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(9));
        let seeds = self
            .engine
            .tech()
            .variation()
            .sample_n(&mut rng, self.config.process_seeds);
        let space = self.engine.input_space();

        // Baseline Monte Carlo at the probe point.
        let baseline: Vec<f64> = self
            .engine
            .solve(
                &seeds
                    .iter()
                    .map(|&seed| (cell, *arc, point, seed))
                    .collect(),
            )
            .iter()
            .map(|m| m.delay.value())
            .collect();

        // Proposed: per-seed MAP extraction from `proposed_k` conditions.
        let training_points = space.sample_latin_hypercube(&mut rng, proposed_k);
        let (delay_params, _slew_params, _) =
            self.extract_per_seed(cell, arc, &training_points, &seeds, true);
        let proposed: Vec<f64> = delay_params
            .iter()
            .zip(&seeds)
            .map(|(p, seed)| {
                p.evaluate(&point, self.engine.ieff(arc, &point, seed))
                    .value()
            })
            .collect();

        // LUT: a per-seed nominal grid of `lut_budget` conditions, interpolated at the
        // probe.  One solve covers grid × seeds (seed-major, so each seed's grid is one
        // contiguous chunk of the result).
        let levels = slic_lut::grid_levels_for_budget(lut_budget);
        let grid = space.lut_grid(levels.0, levels.1, levels.2);
        let axis = |coord: fn(&InputPoint) -> f64| -> Vec<f64> {
            grid.iter().map(coord).fold(Vec::new(), dedup_push)
        };
        let (sin_axis, cload_axis, vdd_axis) = (
            axis(|p| p.sin.value()),
            axis(|p| p.cload.value()),
            axis(|p| p.vdd.value()),
        );
        let measurements = self.engine.solve(
            &seeds
                .iter()
                .flat_map(|&seed| grid.iter().map(move |&p| (cell, *arc, p, seed)))
                .collect(),
        );
        let lut: Vec<f64> = measurements
            .chunks(grid.len())
            .map(|chunk| {
                slic_lut::Lut3d::from_values(
                    sin_axis.clone(),
                    cload_axis.clone(),
                    vdd_axis.clone(),
                    chunk.iter().map(|m| m.delay.value()).collect(),
                )
                .interpolate(&point)
            })
            .collect();

        DelayPdfComparison {
            point,
            baseline,
            proposed,
            lut,
            proposed_training_conditions: proposed_k,
            lut_training_conditions: levels.0 * levels.1 * levels.2,
        }
    }
}

/// Accumulates sorted unique axis values (the LUT grid enumerates the axes in row-major
/// order, so duplicates are adjacent after sorting).
fn dedup_push(mut acc: Vec<f64>, value: f64) -> Vec<f64> {
    if !acc.iter().any(|v| (*v - value).abs() < 1e-18) {
        acc.push(value);
        acc.sort_by(|a, b| a.partial_cmp(b).expect("finite axis values"));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::historical::{HistoricalLearner, HistoricalLearningConfig};
    use slic_cells::{CellKind, DriveStrength, Library, Transition};
    use slic_units::{Farads, Seconds, Volts};

    fn learned_database() -> HistoricalDatabase {
        let config = HistoricalLearningConfig {
            grid_levels: (3, 3, 2),
            transient: TransientConfig::fast(),
        };
        HistoricalLearner::new(config)
            .learn(
                &[TechnologyNode::n28_bulk(), TechnologyNode::n20_bulk()],
                &Library::paper_trio(),
            )
            .database
    }

    #[test]
    fn statistical_study_produces_consistent_curves() {
        let db = learned_database();
        let study = StatisticalStudy::new(
            TechnologyNode::target_28nm(),
            &db,
            StatisticalStudyConfig::quick(),
        );
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let result = study.run(cell, &arc);

        assert_eq!(result.curves.len(), 3);
        assert_eq!(result.process_seeds, 30);
        assert_eq!(result.baseline_simulations, 20 * 30);
        for curve in &result.curves {
            assert_eq!(curve.mean_delay_error.len(), 2);
            for metric in StatMetric::ALL {
                let mc = curve.as_method_curve(metric);
                assert!(mc.errors_percent.iter().all(|e| e.is_finite() && *e >= 0.0));
            }
        }
        // Mean-delay reconstruction by the Bayesian method must be accurate even at k = 3.
        let bayes = result.curves_for(MethodKind::ProposedBayesian);
        assert!(
            bayes.mean_delay_error[0] < 12.0,
            "mean-delay error = {}",
            bayes.mean_delay_error[0]
        );
        // And it must beat the 3-condition statistical LUT on mean delay.
        let lut = result.curves_for(MethodKind::Lut);
        assert!(bayes.mean_delay_error[0] < lut.mean_delay_error[0]);
        let table = result.to_markdown(StatMetric::MeanDelay);
        assert!(table.contains("Lookup Table"));
    }

    #[test]
    fn delay_pdf_reproduces_baseline_distribution() {
        let db = learned_database();
        let mut config = StatisticalStudyConfig::quick();
        config.process_seeds = 40;
        let study = StatisticalStudy::new(TechnologyNode::target_28nm(), &db, config);
        let cell = Cell::new(CellKind::Inv, DriveStrength::X1);
        let arc = TimingArc::new(cell, 0, Transition::Fall);
        let point = InputPoint::new(
            Seconds::from_picoseconds(5.09),
            Farads::from_femtofarads(1.67),
            Volts(0.734),
        );
        let pdf = study.delay_pdf(cell, &arc, point, 7, 12);
        assert_eq!(pdf.baseline.len(), 40);
        assert_eq!(pdf.proposed.len(), 40);
        assert_eq!(pdf.lut.len(), 40);
        assert_eq!(pdf.proposed_training_conditions, 7);
        assert!(pdf.lut_training_conditions <= 12);
        // The proposed reconstruction tracks the baseline seed by seed.
        assert!(
            pdf.proposed_error_percent() < 15.0,
            "proposed error = {}",
            pdf.proposed_error_percent()
        );
        // Both reconstructions are positive delays of comparable magnitude.
        let base_mean = moments::mean(&pdf.baseline);
        let prop_mean = moments::mean(&pdf.proposed);
        assert!((prop_mean - base_mean).abs() / base_mean < 0.15);
        assert!(pdf.lut.iter().all(|d| *d > 0.0));
    }
}
