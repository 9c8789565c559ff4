//! The parallel pipeline runner: one shared engine, counter and cache; results assembled
//! into a [`RunArtifact`].
//!
//! [`PipelineRunner::characterize`] runs a plan in three phases:
//!
//! 1. **Enumerate** — every transient every unit requests goes into one compact
//!    [`LaneSet`]: the validation and training points of each nominal unit (shared per
//!    arc through [`WorkUnit::sampling_seed`]), the LUT grid of
//!    `grid_levels_for_budget(k)`, and each Monte Carlo unit's export grid under every
//!    process seed.  Units that want the same transients share one table of lanes and
//!    declare extra requests on it.
//! 2. **Solve** — one [`CharacterizationEngine::solve`] call deduplicates the set by
//!    cache key and pays the missing keys in full-quad batches on one flat worker pool.
//! 3. **Fit** — a `par_iter` over units runs the MAP, LSE and LUT fits and the Monte
//!    Carlo moment reduction from the solved table; no unit solves or touches the cache.
//!
//! Historical learning ([`PipelineRunner::learn`]) runs on the same engine rebound to
//! each historical node, so its lanes pay into the same counter, cache and dispatch
//! counters.

use crate::artifact::{
    CharacterizedLibrary, RunArtifact, UnitResult, VariationSection, SCHEMA_VERSION,
};
use crate::config::ResolvedConfig;
use crate::error::PipelineError;
use crate::plan::{CharacterizationPlan, UnitKind, WorkUnit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use slic::historical::{HistoricalLearner, HistoricalLearningConfig, HistoricalLearningResult};
use slic::nominal::MethodKind;
use slic_bayes::{
    HistoricalDatabase, MapExtractor, PrecisionConfig, PrecisionModel, PriorBuilder, TimingMetric,
};
use slic_cells::{CellKind, TimingArc};
use slic_device::ProcessSample;
use slic_lut::{grid_levels_for_budget, LutBuilder, LutGrid};
use slic_obs::Observability;
use slic_spice::{
    CharacterizationEngine, DiskSimCache, InMemorySimCache, InputPoint, LaneSet, SimulationBackend,
    SimulationCache, SimulationCounter, TimingMeasurement,
};
use slic_stats::distance::mean_relative_error_percent;
use slic_timing_model::{LeastSquaresFitter, TimingSample};
use slic_variation::{VariationExtractor, VariationTable};
// BTreeMap (not HashMap) everywhere a collection can feed an artifact: iteration order
// must be process-independent (lint rule D1).
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Executes characterization plans against one target technology.
///
/// All stages — historical learning, per-unit characterization, validation — run through a
/// single [`CharacterizationEngine`] clone family sharing one [`SimulationCounter`], one
/// [`SimulationCache`] and one set of dispatch counters, so the artifact reports one true
/// cost total and repeated coordinates are simulated once.
pub struct PipelineRunner {
    config: ResolvedConfig,
    engine: CharacterizationEngine,
    counter: SimulationCounter,
    cache: Arc<dyn SimulationCache>,
    obs: Observability,
}

impl PipelineRunner {
    /// Creates a runner with a fresh counter and cache.
    ///
    /// With a `cache_path` in the configuration the cache is a [`DiskSimCache`] opened
    /// (warm) from that file and flushed when the runner is dropped; otherwise it is a
    /// fresh [`InMemorySimCache`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Engine`] when the profile's transient configuration is
    /// invalid, or a [`PipelineError::Cache`] when the configured cache file cannot be
    /// opened.
    pub fn new(config: ResolvedConfig) -> Result<Self, PipelineError> {
        let cache = Self::open_cache(&config)?;
        Self::with_parts(config, cache, None)
    }

    /// Creates a runner reusing an existing (possibly warm) simulation cache — the
    /// repeated-run and shard-worker entry point.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Engine`] when the profile's transient configuration is
    /// invalid.
    pub fn with_cache(
        config: ResolvedConfig,
        cache: Arc<dyn SimulationCache>,
    ) -> Result<Self, PipelineError> {
        Self::with_parts(config, cache, None)
    }

    /// Creates a runner whose engines route every solve through `backend` (e.g. a
    /// `slic-farm` fleet), with the cache resolved from the configuration as in
    /// [`new`](Self::new).  The counter/cache/single-flight policy stays runner-side, so
    /// backends cannot change what a run pays for or produces — only where it executes.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Engine`] when the profile's transient configuration is
    /// invalid, or a [`PipelineError::Cache`] when the configured cache file cannot be
    /// opened.
    pub fn with_backend(
        config: ResolvedConfig,
        backend: Arc<dyn SimulationBackend>,
    ) -> Result<Self, PipelineError> {
        let cache = Self::open_cache(&config)?;
        Self::with_parts(config, cache, Some(backend))
    }

    /// Fully explicit construction: a (possibly warm) cache plus an optional backend.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Engine`] when the profile's transient configuration is
    /// invalid, or a [`PipelineError::Config`] when the configuration selects the farm
    /// backend but no backend instance is supplied — silently running a farm-configured
    /// plan in-process would be worse than failing (this crate cannot construct the
    /// fleet itself; build a `slic_farm::FarmBackend` and pass it, as the CLI does).
    pub fn with_parts(
        config: ResolvedConfig,
        cache: Arc<dyn SimulationCache>,
        backend: Option<Arc<dyn SimulationBackend>>,
    ) -> Result<Self, PipelineError> {
        if backend.is_none() && config.backend != crate::config::BackendChoice::Local {
            return Err(PipelineError::config(
                "the configuration selects the farm backend but no backend instance was \
                 supplied; construct the worker fleet (e.g. slic_farm::FarmBackend) and \
                 pass it via PipelineRunner::with_backend",
            ));
        }
        let counter = SimulationCounter::new();
        let mut engine =
            CharacterizationEngine::with_config(config.technology.clone(), config.transient)?
                .with_shared_counter(counter.clone())
                .with_cache(cache.clone());
        if let Some(backend) = backend {
            engine = engine.with_backend(backend);
        }
        Ok(Self {
            config,
            engine,
            counter,
            cache,
            obs: Observability::default(),
        })
    }

    /// Attaches the display-only observability bundle, threading it through to the
    /// engine so batch/cache spans land in the same trace as the runner's stage spans.
    /// Tracing never feeds back into scheduling or results: a traced run's artifact is
    /// byte-identical to an untraced one (CI `cmp`-gates this).
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.engine = self.engine.with_observability(obs.clone());
        self.obs = obs;
        self
    }

    /// The observability bundle in use (disabled/no-op by default).
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Opens the configured disk cache, or a fresh in-memory one.
    fn open_cache(config: &ResolvedConfig) -> Result<Arc<dyn SimulationCache>, PipelineError> {
        Ok(match &config.cache_path {
            Some(path) => Arc::new(DiskSimCache::open(path)?),
            None => Arc::new(InMemorySimCache::new()),
        })
    }

    /// The resolved configuration.
    pub fn config(&self) -> &ResolvedConfig {
        &self.config
    }

    /// The shared engine (bound to the target technology).
    pub fn engine(&self) -> &CharacterizationEngine {
        &self.engine
    }

    /// The shared simulation counter.
    pub fn counter(&self) -> &SimulationCounter {
        &self.counter
    }

    /// The shared simulation cache.
    pub fn cache(&self) -> &Arc<dyn SimulationCache> {
        &self.cache
    }

    /// Runs the historical learning stage over the configured historical nodes on the
    /// runner's engine ([`HistoricalLearner::learn_on`]): the shared counter, cache,
    /// backend and dispatch counters all apply.
    pub fn learn(&self) -> HistoricalLearningResult {
        let _span = self.obs.trace.span(
            "learn",
            &[("nodes", self.config.historical.len().to_string())],
        );
        let learner = HistoricalLearner::new(HistoricalLearningConfig {
            grid_levels: self.config.profile.learning_grid(),
            transient: self.config.transient,
        });
        learner.learn_on(&self.engine, &self.config.historical, &self.config.library)
    }

    /// Executes every unit of `plan` against `database` in three phases and assembles the
    /// run artifact: **enumerate** every request of every unit into one [`LaneSet`],
    /// **solve** it in one engine call, then **fit** the units in parallel from the
    /// solved table.  Units (and variation tables) are recorded in canonical identity
    /// order, so a merged shard set is bit-identical to the single-process artifact.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] when a Bayesian unit is planned but the
    /// database lacks records for its metric, or when a Monte Carlo unit is planned but
    /// the configuration carries no variation section (a plan from a different config).
    pub fn characterize(
        &self,
        plan: &CharacterizationPlan,
        database: &HistoricalDatabase,
    ) -> Result<RunArtifact, PipelineError> {
        let root = self
            .obs
            .trace
            .span("characterize", &[("units", plan.units().len().to_string())]);
        let extractors = self.build_extractors(plan, database)?;
        let variation = self.variation_grid(plan)?;
        let lanes = self.enumerate(plan, variation.as_ref());
        let solved = self.engine.solve(&lanes.set);
        // Unit spans run on rayon worker threads, where the root is not on the local
        // span stack — parent them explicitly so the profile tree stays connected.
        let root_id = root.id();
        self.obs.progress.begin(plan.units().len() as u64);
        let outcomes: Vec<Result<(UnitResult, Option<VariationTable>), PipelineError>> = lanes
            .units
            .par_iter()
            .map(|unit_lanes| {
                let unit = unit_lanes.unit;
                let _span = self.obs.trace.span_under(
                    root_id,
                    "unit",
                    &[
                        ("cell", unit.cell.name()),
                        ("arc", unit.arc.id()),
                        ("metric", unit.metric.to_string()),
                        ("method", format!("{:?}", unit.method)),
                    ],
                );
                let outcome =
                    self.fit_unit(unit_lanes, &lanes, &solved, &extractors, variation.as_ref());
                // Absolute totals, not deltas: the shared counters already aggregate
                // across threads.
                self.obs
                    .progress
                    .unit_done(self.counter.count(), self.cache.hits());
                outcome
            })
            .collect();
        self.obs.progress.finish();
        let mut outcomes = outcomes
            .into_iter()
            .collect::<Result<Vec<_>, PipelineError>>()?;
        outcomes.sort_by_cached_key(|(unit, _)| unit.unit_id());
        let mut units = Vec::with_capacity(outcomes.len());
        let mut tables = Vec::new();
        for (unit, table) in outcomes {
            units.push(unit);
            tables.extend(table);
        }
        let variation = self.config.variation.as_ref().map(|vc| VariationSection {
            process_seeds: vc.process_seeds,
            sigma_corners: vc.sigma_corners.clone(),
            seed: vc.seed,
            tables,
        });
        let characterized = CharacterizedLibrary::from_units(
            &self.config.library_name,
            self.config.technology.name(),
            &units,
        );
        Ok(RunArtifact {
            schema_version: SCHEMA_VERSION,
            library: self.config.library_name.clone(),
            technology: self.config.technology.name().to_string(),
            profile: self.config.profile.name().to_string(),
            seed: self.config.seed,
            planned_units: plan.planned_units(),
            units,
            characterized,
            total_simulations: self.counter.count(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            variation,
            // Attached by the caller (the CLI) after the run when the backend is a farm;
            // this crate cannot see through the `dyn SimulationBackend` it was handed.
            farm: None,
        })
    }

    /// The whole resumable flow in one call: learn, characterize, return both artifacts.
    ///
    /// # Errors
    ///
    /// Propagates plan and characterization errors.
    pub fn run(&self) -> Result<(HistoricalLearningResult, RunArtifact), PipelineError> {
        let plan = {
            let _span = self.obs.trace.span("plan.build", &[]);
            CharacterizationPlan::from_config(&self.config)?
        };
        let learning = self.learn();
        let artifact = self.characterize(&plan, &learning.database)?;
        Ok((learning, artifact))
    }

    /// Builds one MAP extractor per `(cell kind, metric)` pair the plan needs, so the
    /// prior/precision learning cost is paid once instead of per unit.
    fn build_extractors(
        &self,
        plan: &CharacterizationPlan,
        database: &HistoricalDatabase,
    ) -> Result<BTreeMap<(CellKind, TimingMetric), MapExtractor>, PipelineError> {
        let mut extractors = BTreeMap::new();
        for unit in plan.units() {
            if unit.method != MethodKind::ProposedBayesian {
                continue;
            }
            let key = (unit.cell.kind(), unit.metric);
            if extractors.contains_key(&key) {
                continue;
            }
            let prior = PriorBuilder::new()
                .build(database, unit.metric, Some(unit.cell.kind().name()))
                .or_else(|_| PriorBuilder::new().build(database, unit.metric, None))
                .map_err(|err| {
                    PipelineError::config(format!(
                        "cannot build a prior for {} / {}: {err} (run the learn stage first?)",
                        unit.cell.kind().name(),
                        unit.metric
                    ))
                })?;
            let precision = PrecisionModel::learn(
                database,
                unit.metric,
                &self.engine.input_space(),
                PrecisionConfig::default(),
            );
            extractors.insert(key, MapExtractor::new(prior, precision));
        }
        Ok(extractors)
    }

    /// The export grid and seed set of the run's Monte Carlo units, or `None` when the
    /// plan has none.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] when the plan has Monte Carlo units but the
    /// configuration has no variation section, or the section does not validate.
    fn variation_grid(
        &self,
        plan: &CharacterizationPlan,
    ) -> Result<Option<VariationGrid<'_>>, PipelineError> {
        if !plan.units().iter().any(|u| u.kind == UnitKind::MonteCarlo) {
            return Ok(None);
        }
        let config = self.config.variation.clone().ok_or_else(|| {
            PipelineError::config(
                "the plan contains Monte Carlo units but the runner's configuration has \
                 no variation section; enumerate the plan from the same resolved config \
                 the runner was built with",
            )
        })?;
        let (slew_axis, load_axis) =
            slic::liberty::export_axes(&self.engine, self.config.export_grid);
        let extractor = VariationExtractor::new(&self.engine, config)
            .map_err(|err| PipelineError::config(format!("invalid variation config: {err}")))?;
        let points = extractor.points(&slew_axis, &load_axis);
        Ok(Some(VariationGrid {
            extractor,
            slew_axis,
            load_axis,
            points,
        }))
    }

    /// Phase 1: lists every transient each unit requests, in the order its fit reads
    /// them.  Nominal units request their validation points, then their training points
    /// (Bayesian/LSE) or the LUT grid of `grid_levels_for_budget(k)` (LUT); Monte Carlo
    /// units request every export-grid point under every process seed.  Units that want
    /// the same transients — the delay and slew units of one arc, or the methods sharing
    /// an arc's sampling seed — share one table of lanes and declare extra requests on
    /// it, so the solve pays each once and still counts every request.
    fn enumerate<'p>(
        &self,
        plan: &'p CharacterizationPlan,
        variation: Option<&VariationGrid<'_>>,
    ) -> EnumeratedLanes<'p> {
        let k = self.config.training_count;
        let v = self.config.validation_points;
        let space = self.engine.input_space();
        let nominal = ProcessSample::nominal();
        let mut set = LaneSet::new();
        let mut tables = BTreeMap::new();
        let mut lut_grid = None;
        let units = plan
            .units()
            .iter()
            .map(|unit| {
                let mut table = |kind, seed, lanes: &mut dyn Iterator<Item = _>| {
                    shared_table(&mut set, &mut tables, (kind, unit.arc, seed), unit, lanes)
                };
                if unit.kind == UnitKind::MonteCarlo {
                    let fit = match variation {
                        Some(grid) => table(
                            Table::MonteCarlo,
                            0,
                            &mut grid.points.iter().flat_map(|&point| {
                                grid.extractor
                                    .seeds()
                                    .iter()
                                    .map(move |&seed| (point, seed))
                            }),
                        ),
                        None => 0..0,
                    };
                    return UnitLanes {
                        unit,
                        validation: 0..0,
                        fit,
                    };
                }
                let seed = unit.sampling_seed(self.config.seed);
                let mut rng = StdRng::seed_from_u64(seed);
                let training = space.sample_latin_hypercube(&mut rng, k);
                let validation = space.sample_uniform(&mut rng, v);
                let validation = table(
                    Table::Validation,
                    seed,
                    &mut validation.into_iter().map(|p| (p, nominal)),
                );
                let fit = match unit.method {
                    MethodKind::ProposedBayesian | MethodKind::ProposedLse => table(
                        Table::Training,
                        seed,
                        &mut training.into_iter().map(|p| (p, nominal)),
                    ),
                    MethodKind::Lut => {
                        let grid: &LutGrid = lut_grid.get_or_insert_with(|| {
                            LutBuilder::new(&self.engine).grid(grid_levels_for_budget(k))
                        });
                        table(
                            Table::LutGrid,
                            0,
                            &mut grid.points().into_iter().map(|p| (p, nominal)),
                        )
                    }
                };
                UnitLanes {
                    unit,
                    validation,
                    fit,
                }
            })
            .collect();
        EnumeratedLanes {
            set,
            units,
            lut_grid,
        }
    }

    /// Phase 3: fits one unit from the solved table — MAP, LSE or LUT for a nominal unit
    /// (validated against its validation points), the moment reduction for a Monte Carlo
    /// unit.  Makes no solve and no cache call.
    fn fit_unit(
        &self,
        lanes: &UnitLanes<'_>,
        enumerated: &EnumeratedLanes<'_>,
        solved: &[TimingMeasurement],
        extractors: &BTreeMap<(CellKind, TimingMetric), MapExtractor>,
        variation: Option<&VariationGrid<'_>>,
    ) -> Result<(UnitResult, Option<VariationTable>), PipelineError> {
        let unit = lanes.unit;
        let measurements = |range: &Range<u32>| -> Vec<TimingMeasurement> {
            range.clone().map(|lane| solved[lane as usize]).collect()
        };
        let points = |range: &Range<u32>| -> Vec<InputPoint> {
            range
                .clone()
                .map(|lane| enumerated.set.lane(lane).2)
                .collect()
        };
        let result =
            |params, training_count, validation_points, error_percent, requested| UnitResult {
                arc_id: unit.arc.id(),
                arc: unit.arc,
                metric: unit.metric,
                method: unit.method,
                kind: unit.kind,
                params,
                training_count,
                validation_points,
                error_percent,
                requested_simulations: requested,
            };
        if unit.kind == UnitKind::MonteCarlo {
            let grid = variation.ok_or_else(|| {
                PipelineError::config(
                    "Monte Carlo unit reached the runner without a variation config; \
                     characterize() should have rejected the plan",
                )
            })?;
            let table = grid.extractor.reduce(
                &unit.arc,
                unit.metric,
                &grid.slew_axis,
                &grid.load_axis,
                &measurements(&lanes.fit),
            );
            let requested = grid
                .extractor
                .requested_simulations(grid.slew_axis.len(), grid.load_axis.len());
            return Ok((
                result(None, 0, 0, table.mean_cv_percent(), requested),
                Some(table),
            ));
        }

        let k = self.config.training_count;
        let v = self.config.validation_points;
        let nominal = ProcessSample::nominal();
        let validation_points = points(&lanes.validation);
        let reference: Vec<f64> = measurements(&lanes.validation)
            .iter()
            .map(|m| unit.metric.pick(m))
            .collect();
        let (params, predictions) = match unit.method {
            MethodKind::ProposedBayesian | MethodKind::ProposedLse => {
                let samples: Vec<TimingSample> = points(&lanes.fit)
                    .into_iter()
                    .zip(measurements(&lanes.fit))
                    .map(|(p, m)| {
                        TimingSample::new(
                            p,
                            self.engine.ieff(&unit.arc, &p, &nominal),
                            slic_units::Seconds(unit.metric.pick(&m)),
                        )
                    })
                    .collect();
                let params = if unit.method == MethodKind::ProposedBayesian {
                    extractors
                        .get(&(unit.cell.kind(), unit.metric))
                        .ok_or_else(|| {
                            PipelineError::config(format!(
                                "no prebuilt extractor for {} / {}; the plan and the \
                                 extractor table were built from different configs",
                                unit.cell.kind().name(),
                                unit.metric
                            ))
                        })?
                        .extract(&samples)
                        .params
                } else {
                    LeastSquaresFitter::new().fit(&samples).params
                };
                let predictions: Vec<f64> = validation_points
                    .iter()
                    .map(|p| {
                        params
                            .evaluate(p, self.engine.ieff(&unit.arc, p, &nominal))
                            .value()
                    })
                    .collect();
                (Some(params), predictions)
            }
            MethodKind::Lut => {
                let grid = enumerated.lut_grid.as_ref().ok_or_else(|| {
                    PipelineError::config("a LUT unit was fitted without an enumerated grid")
                })?;
                let lut = LutBuilder::from_measurements(grid, &measurements(&lanes.fit));
                let predictions: Vec<f64> = validation_points
                    .iter()
                    .map(|p| unit.metric.pick(&lut.predict(p)))
                    .collect();
                (None, predictions)
            }
        };
        Ok((
            result(
                params,
                k,
                v,
                mean_relative_error_percent(&predictions, &reference),
                (k + v) as u64,
            ),
            None,
        ))
    }
}

/// The Monte Carlo side of a run: the seed set, the export index grid every variation
/// unit is simulated and reduced over, and that grid's points.
struct VariationGrid<'e> {
    extractor: VariationExtractor<'e>,
    slew_axis: Vec<f64>,
    load_axis: Vec<f64>,
    points: Vec<InputPoint>,
}

/// A kind of lane table units can share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Table {
    /// An arc's validation points at one sampling seed.
    Validation,
    /// An arc's training points at one sampling seed.
    Training,
    /// An arc's LUT grid.
    LutGrid,
    /// An arc's export grid under every process seed.
    MonteCarlo,
}

/// Where one unit's requests sit in the run's [`LaneSet`], in the order its fit reads
/// them.
struct UnitLanes<'p> {
    unit: &'p WorkUnit,
    /// Validation lanes (empty for Monte Carlo units).
    validation: Range<u32>,
    /// Training lanes (Bayesian/LSE), LUT grid lanes (LUT), or grid point × seed lanes
    /// (Monte Carlo, point-major).
    fit: Range<u32>,
}

/// Phase 1's output: every request of the plan, and where each unit's sit.
struct EnumeratedLanes<'p> {
    set: LaneSet,
    units: Vec<UnitLanes<'p>>,
    /// The LUT grid, when the plan has LUT units.
    lut_grid: Option<LutGrid>,
}

/// The lanes of table `key`: pushed for `unit` on first use, re-requested by every later
/// unit that asks for the same table.
fn shared_table(
    set: &mut LaneSet,
    tables: &mut BTreeMap<(Table, TimingArc, u64), Range<u32>>,
    key: (Table, TimingArc, u64),
    unit: &WorkUnit,
    lanes: &mut dyn Iterator<Item = (InputPoint, ProcessSample)>,
) -> Range<u32> {
    if let Some(range) = tables.get(&key) {
        for lane in range.clone() {
            set.request(lane);
        }
        return range.clone();
    }
    let start = set.len() as u32;
    for (point, seed) in lanes {
        set.push(unit.cell, unit.arc, point, seed);
    }
    let range = start..set.len() as u32;
    tables.insert(key, range.clone());
    range
}

/// Metric-selection helper shared by the runner stages.
trait MetricPick {
    /// The metric's value out of a measurement, in seconds.
    fn pick(&self, m: &TimingMeasurement) -> f64;
}

impl MetricPick for TimingMetric {
    fn pick(&self, m: &TimingMeasurement) -> f64 {
        match self {
            TimingMetric::Delay => m.delay.value(),
            TimingMetric::OutputSlew => m.output_slew.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendChoice, RunConfig};

    #[test]
    fn a_farm_configuration_without_a_backend_instance_is_rejected() {
        let mut config = RunConfig::default().resolve().expect("resolves");
        let BackendChoice::Farm { tuning, .. } = (RunConfig {
            spawn_workers: Some(1),
            ..Default::default()
        })
        .resolve()
        .expect("resolves")
        .backend
        else {
            panic!("farm backend expected");
        };
        config.backend = BackendChoice::Farm {
            workers: vec!["10.0.0.5:9200".to_string()],
            spawn_workers: 0,
            tuning,
        };
        // Silently running a farm-configured plan in-process would defeat the point of
        // resolve() validating the choice; every backend-less constructor must refuse.
        let err = PipelineRunner::new(config.clone())
            .err()
            .expect("must not run locally");
        assert!(err.to_string().contains("no backend instance"), "{err}");
        let cache: Arc<dyn SimulationCache> = Arc::new(InMemorySimCache::new());
        let err = PipelineRunner::with_cache(config, cache)
            .err()
            .expect("with_cache must refuse too");
        assert!(err.to_string().contains("no backend instance"), "{err}");
    }

    #[test]
    fn an_explicit_backend_instance_satisfies_a_farm_configuration() {
        let mut config = RunConfig::default().resolve().expect("resolves");
        let BackendChoice::Farm { tuning, .. } = (RunConfig {
            spawn_workers: Some(2),
            ..Default::default()
        })
        .resolve()
        .expect("resolves")
        .backend
        else {
            panic!("farm backend expected");
        };
        config.backend = BackendChoice::Farm {
            workers: vec![],
            spawn_workers: 2,
            tuning,
        };
        // Any SimulationBackend instance satisfies the requirement; the pipeline does
        // not (and cannot) verify it is really a fleet.
        let backend: Arc<dyn SimulationBackend> = Arc::new(slic_spice::LocalBackend::new());
        let runner = PipelineRunner::with_backend(config, backend).expect("constructs");
        assert_eq!(runner.engine().backend().name(), "local");
    }
}
