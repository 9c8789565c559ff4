//! Run artifacts: the persistent, reloadable record of a characterization run.

use crate::error::PipelineError;
use crate::plan::{unit_identity, UnitKind};
use serde::{Deserialize, Serialize};
use slic::liberty::{export_fitted_library_with_variation, ArcVariation, ExportGrid, FittedArc};
use slic::nominal::MethodKind;
use slic::report::markdown_table;
use slic_bayes::TimingMetric;
use slic_cells::{TimingArc, Transition};
use slic_spice::CharacterizationEngine;
use slic_timing_model::TimingParams;
use slic_variation::VariationTable;
use std::path::Path;

/// The outcome of one executed [`WorkUnit`](crate::plan::WorkUnit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitResult {
    /// Arc identifier, e.g. `"NAND2_X1/A0/FALL"`.
    pub arc_id: String,
    /// The arc itself (reconstructable for export).
    pub arc: TimingArc,
    /// The characterized metric.
    pub metric: TimingMetric,
    /// The extraction method (a placeholder for Monte Carlo units).
    pub method: MethodKind,
    /// Nominal extraction or Monte Carlo variation (absent in pre-variation artifacts,
    /// which were nominal-only).
    pub kind: UnitKind,
    /// The extracted compact-model parameters (absent for the LUT method and for Monte
    /// Carlo units, whose output is a [`VariationTable`] in the artifact's variation
    /// section).
    pub params: Option<TimingParams>,
    /// Training conditions requested (zero for Monte Carlo units).
    pub training_count: usize,
    /// Validation conditions requested (zero for Monte Carlo units).
    pub validation_points: usize,
    /// For nominal units: mean absolute relative error against direct simulation at the
    /// validation conditions, in percent.  For Monte Carlo units: the mean coefficient of
    /// variation `σ/µ` over the grid, in percent (a spread, not an error).
    pub error_percent: f64,
    /// Transient simulations this unit *requested* (training + validation, or
    /// grid × seeds for Monte Carlo units).  The shared engine may have answered some
    /// from the cache; the run-level [`RunArtifact::total_simulations`] counts what was
    /// actually paid for.
    pub requested_simulations: u64,
}

impl UnitResult {
    /// The stable identity of the work unit this result came from — the merge key used to
    /// detect overlapping shards and to order merged artifacts deterministically.
    pub fn unit_id(&self) -> String {
        unit_identity(&self.arc_id, self.metric, self.method, self.kind)
    }
}

/// The per-arc fitted models distilled from the unit results — the consumable "library"
/// output of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizedArc {
    /// The timing arc.
    pub arc: TimingArc,
    /// Delay compact-model parameters.
    pub delay: TimingParams,
    /// Output-slew compact-model parameters.
    pub slew: TimingParams,
    /// Validation error of the delay fit, percent.
    pub delay_error_percent: f64,
    /// Validation error of the slew fit, percent.
    pub slew_error_percent: f64,
}

/// A characterized library: every arc that obtained both metric fits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizedLibrary {
    /// Library name.
    pub library: String,
    /// Target technology name.
    pub technology: String,
    /// The fitted arcs.
    pub arcs: Vec<CharacterizedArc>,
}

impl CharacterizedLibrary {
    /// Assembles the library from unit results, pairing each arc's delay and slew fits.
    ///
    /// When several methods produced parameters for the same (arc, metric), the Bayesian
    /// fit wins; an arc missing either metric is skipped (it cannot fill a Liberty timing
    /// group).
    pub fn from_units(library: &str, technology: &str, units: &[UnitResult]) -> Self {
        let pick = |arc: &TimingArc, metric: TimingMetric| -> Option<(TimingParams, f64)> {
            units
                .iter()
                .filter(|u| u.arc == *arc && u.metric == metric && u.params.is_some())
                .min_by_key(|u| match u.method {
                    MethodKind::ProposedBayesian => 0,
                    MethodKind::ProposedLse => 1,
                    MethodKind::Lut => 2,
                })
                // slic-lint: allow(P1) -- structural: the iterator is filtered on params.is_some() two lines up.
                .map(|u| (u.params.expect("filtered on is_some"), u.error_percent))
        };
        let mut arcs = Vec::new();
        let mut seen = Vec::new();
        for unit in units {
            if seen.contains(&unit.arc) {
                continue;
            }
            seen.push(unit.arc);
            let (Some((delay, delay_err)), Some((slew, slew_err))) = (
                pick(&unit.arc, TimingMetric::Delay),
                pick(&unit.arc, TimingMetric::OutputSlew),
            ) else {
                continue;
            };
            arcs.push(CharacterizedArc {
                arc: unit.arc,
                delay,
                slew,
                delay_error_percent: delay_err,
                slew_error_percent: slew_err,
            });
        }
        Self {
            library: library.to_string(),
            technology: technology.to_string(),
            arcs,
        }
    }

    /// The arcs as liberty-export inputs.
    pub fn fitted_arcs(&self) -> Vec<FittedArc> {
        self.arcs
            .iter()
            .map(|a| FittedArc {
                arc: a.arc,
                delay: a.delay,
                slew: a.slew,
            })
            .collect()
    }

    /// Renders the Liberty text of the characterized arcs (zero transient simulations;
    /// see [`slic::liberty::export_fitted_library`]).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Export`] when no arc was fully characterized or the
    /// grid is degenerate.
    pub fn to_liberty(
        &self,
        engine: &CharacterizationEngine,
        grid: ExportGrid,
    ) -> Result<String, PipelineError> {
        Ok(export_fitted_library_with_variation(
            engine,
            &self.library,
            &self.fitted_arcs(),
            &[],
            grid,
        )?)
    }

    /// [`to_liberty`](Self::to_liberty) with LVF-style `ocv_sigma_*`/`ocv_skewness_*`
    /// groups rendered from a run's [`VariationSection`] next to each nominal table.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Export`] when no arc was fully characterized, the grid
    /// is degenerate, or a variation table does not match the grid shape.
    pub fn to_liberty_with_variation(
        &self,
        engine: &CharacterizationEngine,
        grid: ExportGrid,
        variation: &VariationSection,
    ) -> Result<String, PipelineError> {
        Ok(export_fitted_library_with_variation(
            engine,
            &self.library,
            &self.fitted_arcs(),
            &variation.arc_variations(),
            grid,
        )?)
    }

    /// Returns `true` when an arc of the given cell name and transition is present.
    pub fn covers(&self, cell_name: &str, transition: Transition) -> bool {
        self.arcs
            .iter()
            .any(|a| a.arc.cell().name() == cell_name && a.arc.output_transition() == transition)
    }
}

/// The Monte Carlo variation record of a run: the configuration the seed set derives
/// from, plus one moment table per executed variation unit.
///
/// Shards of one variation run carry identical `(process_seeds, sigma_corners, seed)`
/// triples — that is the merge criterion; shards with mismatched seed configurations
/// describe different ensembles and must not merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationSection {
    /// Monte Carlo process seeds per variation unit.
    pub process_seeds: usize,
    /// Sigma multipliers for corner reporting.
    pub sigma_corners: Vec<f64>,
    /// RNG seed of the process-sample draw.
    pub seed: u64,
    /// Per-unit moment tables, in canonical [`VariationTable::table_id`] order.
    pub tables: Vec<VariationTable>,
}

impl VariationSection {
    /// Builds an [`ArcVariation`] per arc that has **both** metric tables — the
    /// liberty-export input.  Arcs with only one metric characterized are skipped (an
    /// LVF timing group needs sigma/skew for delay and transition alike).
    pub fn arc_variations(&self) -> Vec<ArcVariation> {
        let mut out = Vec::new();
        let mut seen: Vec<TimingArc> = Vec::new();
        for table in &self.tables {
            if seen.contains(&table.arc) {
                continue;
            }
            seen.push(table.arc);
            let find = |metric: TimingMetric| {
                self.tables
                    .iter()
                    .find(|t| t.arc == table.arc && t.metric == metric)
            };
            let (Some(delay), Some(slew)) =
                (find(TimingMetric::Delay), find(TimingMetric::OutputSlew))
            else {
                continue;
            };
            out.push(ArcVariation {
                arc: table.arc,
                delay_sigma: delay.sigma.clone(),
                delay_skew: delay.skewness_time_rows(),
                slew_sigma: slew.sigma.clone(),
                slew_skew: slew.skewness_time_rows(),
            });
        }
        out
    }
}

/// The farm resilience record of a run: fleet health and the degradation-ladder
/// counters ([`slic_farm::FarmStats`] plus fleet shape, carried across the crate
/// boundary as plain fields).
///
/// This section is **display-only**: it feeds the dispatch summary and
/// [`RunArtifact::summary_markdown`], and is *never* serialized into the artifact JSON —
/// a farm run's artifact must stay byte-identical to a local run's, and how many retries
/// the transport needed is operational telemetry, not a property of the characterized
/// library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FarmSection {
    /// Total workers the fleet was built with.
    pub fleet_size: usize,
    /// Workers still holding a live connection after the run.
    pub workers_live: usize,
    /// Jobs answered by a worker.
    pub jobs_completed: u64,
    /// Dispatch attempts that failed and sent their job back for another try.
    pub failovers: u64,
    /// Dead workers re-admitted after a backoff re-dial and fresh handshake.
    pub reconnects: u64,
    /// Heartbeat probes that went unanswered, each dropping a half-open connection.
    pub heartbeats_missed: u64,
    /// Jobs that exhausted their retry budget and degraded to the local fallback.
    pub degraded_jobs: u64,
    /// Lanes solved on a worker.
    pub lanes_remote: u64,
    /// Lanes solved by the broker's in-process fallback.
    pub lanes_local: u64,
}

/// The complete, persistent record of one characterization run.
///
/// `Serialize` is written by hand (everything else in this file derives it) because the
/// `farm` section must never be written at all — farm and local artifacts are required
/// to be byte-identical, so transport telemetry cannot enter the JSON.  Kernel work
/// counters are run telemetry for the same reason and live in the run summary and the
/// ledger metrics only; artifacts written by older builds that carry a `kernel` key
/// still load (the key is ignored).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct RunArtifact {
    /// Artifact format version (bumped on breaking layout changes).
    pub schema_version: u32,
    /// Library name.
    pub library: String,
    /// Target technology name.
    pub technology: String,
    /// Profile name the run used.
    pub profile: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Number of units the *full* run plans.  A shard artifact reports the whole plan's
    /// size (its own unit count is `units.len()`), so a merge can detect missing shards.
    pub planned_units: usize,
    /// Per-unit outcomes.
    pub units: Vec<UnitResult>,
    /// The distilled library.
    pub characterized: CharacterizedLibrary,
    /// Transient simulations actually executed across every stage sharing the run's
    /// counter (learning + characterization), i.e. the shared `SimulationCounter` total.
    pub total_simulations: u64,
    /// Simulation-cache hits across the run.
    pub cache_hits: u64,
    /// Simulation-cache misses across the run.
    pub cache_misses: u64,
    /// Monte Carlo variation record, present exactly when the run was configured with
    /// variation (absent in nominal-only and pre-variation artifacts).
    pub variation: Option<VariationSection>,
    /// Farm resilience record, attached in memory after a farm run for reporting.
    /// Never serialized (and therefore never reloaded): the artifact JSON of a farm run
    /// is byte-identical to a local run's.
    pub farm: Option<FarmSection>,
}

/// Current artifact schema version.
pub const SCHEMA_VERSION: u32 = 1;

impl serde::Serialize for RunArtifact {
    fn to_value(&self) -> serde::Value {
        let entries = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("library".to_string(), self.library.to_value()),
            ("technology".to_string(), self.technology.to_value()),
            ("profile".to_string(), self.profile.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("planned_units".to_string(), self.planned_units.to_value()),
            ("units".to_string(), self.units.to_value()),
            ("characterized".to_string(), self.characterized.to_value()),
            (
                "total_simulations".to_string(),
                self.total_simulations.to_value(),
            ),
            ("cache_hits".to_string(), self.cache_hits.to_value()),
            ("cache_misses".to_string(), self.cache_misses.to_value()),
            ("variation".to_string(), self.variation.to_value()),
        ];
        // `self.farm` is deliberately not written: see the struct docs.
        serde::Value::Object(entries)
    }
}

impl RunArtifact {
    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (non-finite numbers — not produced by a valid run).
    pub fn to_json(&self) -> Result<String, PipelineError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses an artifact from JSON, checking the schema version.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] on malformed JSON or a schema-version mismatch.
    pub fn from_json(text: &str) -> Result<Self, PipelineError> {
        let artifact: Self = serde_json::from_str(text)?;
        if artifact.schema_version != SCHEMA_VERSION {
            return Err(PipelineError::config(format!(
                "run artifact schema version {} is not supported (expected {SCHEMA_VERSION})",
                artifact.schema_version
            )));
        }
        Ok(artifact)
    }

    /// Writes the artifact as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reloads an artifact from a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and parse errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PipelineError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Joins the artifacts of disjoint plan shards into the artifact of the whole run.
    ///
    /// Counter totals and cache statistics are summed; unit results are concatenated and
    /// re-ordered by their stable unit identity, so the merged artifact is independent of
    /// shard order and the fitted [`CharacterizedLibrary`] is rebuilt from the full unit
    /// set.  When the shards executed sequentially against one shared (disk-backed)
    /// simulation cache, the merged totals equal a single-process run of the unsharded
    /// plan: each unique coordinate was paid for exactly once somewhere.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] when no artifacts are given, when two shards
    /// disagree on library/technology/profile/seed/planned-unit-count
    /// (differently-configured shards cannot describe one run), when two shards contain
    /// the same work unit (overlap means the split was not disjoint), or when the merged
    /// units do not cover the full plan (a shard artifact is missing — silently exporting
    /// an incomplete library would be worse than failing).
    pub fn merge(shards: &[RunArtifact]) -> Result<RunArtifact, PipelineError> {
        let first = shards
            .first()
            .ok_or_else(|| PipelineError::config("cannot merge zero run artifacts"))?;
        for (index, shard) in shards.iter().enumerate().skip(1) {
            let mismatch = |field: &str, a: &str, b: &str| {
                PipelineError::config(format!(
                    "cannot merge differently-configured shards: artifact {index} has \
                     {field} `{b}` but artifact 0 has `{a}`"
                ))
            };
            if shard.library != first.library {
                return Err(mismatch("library", &first.library, &shard.library));
            }
            if shard.technology != first.technology {
                return Err(mismatch("technology", &first.technology, &shard.technology));
            }
            if shard.profile != first.profile {
                return Err(mismatch("profile", &first.profile, &shard.profile));
            }
            if shard.seed != first.seed {
                return Err(mismatch(
                    "seed",
                    &first.seed.to_string(),
                    &shard.seed.to_string(),
                ));
            }
            if shard.planned_units != first.planned_units {
                return Err(mismatch(
                    "planned-unit count",
                    &first.planned_units.to_string(),
                    &shard.planned_units.to_string(),
                ));
            }
        }
        let mut units: Vec<UnitResult> = shards.iter().flat_map(|s| s.units.clone()).collect();
        units.sort_by_cached_key(UnitResult::unit_id);
        let ids: Vec<String> = units.iter().map(UnitResult::unit_id).collect();
        if let Some(pair) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(PipelineError::config(format!(
                "cannot merge overlapping shards: unit `{}` appears more than once",
                pair[0]
            )));
        }
        if units.len() != first.planned_units {
            return Err(PipelineError::config(format!(
                "incomplete merge: the shards cover {} of {} planned units — a shard \
                 artifact is missing",
                units.len(),
                first.planned_units
            )));
        }
        let variation = Self::merge_variation(shards)?;
        let characterized =
            CharacterizedLibrary::from_units(&first.library, &first.technology, &units);
        Ok(RunArtifact {
            schema_version: SCHEMA_VERSION,
            library: first.library.clone(),
            technology: first.technology.clone(),
            profile: first.profile.clone(),
            seed: first.seed,
            planned_units: first.planned_units,
            units,
            characterized,
            total_simulations: shards.iter().map(|s| s.total_simulations).sum(),
            cache_hits: shards.iter().map(|s| s.cache_hits).sum(),
            cache_misses: shards.iter().map(|s| s.cache_misses).sum(),
            variation,
            // Transport telemetry never round-trips through shard files, so there is
            // nothing truthful to merge.
            farm: None,
        })
    }

    /// Joins the variation sections of the shards: every shard of a variation run must
    /// carry one, with the identical seed configuration — the tables of shards drawn from
    /// different process-sample sets would describe different ensembles and must never be
    /// mixed into one artifact.
    fn merge_variation(shards: &[RunArtifact]) -> Result<Option<VariationSection>, PipelineError> {
        let Some(reference) = &shards[0].variation else {
            if let Some(index) = shards.iter().position(|s| s.variation.is_some()) {
                return Err(PipelineError::config(format!(
                    "cannot merge mismatched variation sections: artifact {index} records \
                     a Monte Carlo variation run but artifact 0 does not; shards of one \
                     run share one variation configuration"
                )));
            }
            return Ok(None);
        };
        let mut tables: Vec<VariationTable> = Vec::new();
        for (index, shard) in shards.iter().enumerate() {
            let Some(section) = &shard.variation else {
                return Err(PipelineError::config(format!(
                    "cannot merge mismatched variation sections: artifact {index} has no \
                     variation section but artifact 0 does; shards of one run share one \
                     variation configuration"
                )));
            };
            let mismatch = |field: &str, a: String, b: String| {
                PipelineError::config(format!(
                    "cannot merge variation shards of different ensembles: artifact \
                     {index} has {field} {b} but artifact 0 has {a}"
                ))
            };
            if section.process_seeds != reference.process_seeds {
                return Err(mismatch(
                    "process-seed count",
                    reference.process_seeds.to_string(),
                    section.process_seeds.to_string(),
                ));
            }
            if section.sigma_corners != reference.sigma_corners {
                return Err(mismatch(
                    "sigma corners",
                    format!("{:?}", reference.sigma_corners),
                    format!("{:?}", section.sigma_corners),
                ));
            }
            if section.seed != reference.seed {
                return Err(mismatch(
                    "variation seed",
                    reference.seed.to_string(),
                    section.seed.to_string(),
                ));
            }
            tables.extend(section.tables.iter().cloned());
        }
        tables.sort_by_cached_key(VariationTable::table_id);
        if let Some(pair) = tables
            .windows(2)
            .find(|w| w[0].table_id() == w[1].table_id())
        {
            return Err(PipelineError::config(format!(
                "cannot merge overlapping shards: variation table `{}` appears more than \
                 once",
                pair[0].table_id()
            )));
        }
        Ok(Some(VariationSection {
            process_seeds: reference.process_seeds,
            sigma_corners: reference.sigma_corners.clone(),
            seed: reference.seed,
            tables,
        }))
    }

    /// Returns `true` when this artifact covers only part of its plan — i.e. it is one
    /// shard of a split run, not the whole run.  Partial artifacts must not be exported
    /// (their library would silently be incomplete) and their cost totals describe the
    /// shard, not the run; every consumer besides `merge` either refuses them or labels
    /// its output accordingly.
    pub fn is_partial(&self) -> bool {
        self.units.len() < self.planned_units
    }

    /// A Markdown summary table of the run (one row per unit) with a cost footer; a
    /// statistical run additionally renders its sigma/skew tables.
    ///
    /// A shard artifact is labelled prominently as partial — the count covers nominal
    /// *and* variation units alike — so a report of one shard is never mistaken for the
    /// whole run.
    pub fn summary_markdown(&self) -> String {
        let headers = vec![
            "arc".to_string(),
            "metric".to_string(),
            "kind".to_string(),
            "method".to_string(),
            "error (%)".to_string(),
            "requested sims".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .units
            .iter()
            .map(|u| {
                vec![
                    u.arc_id.clone(),
                    u.metric.to_string(),
                    u.kind.to_string(),
                    match u.kind {
                        UnitKind::Nominal => u.method.to_string(),
                        UnitKind::MonteCarlo => "direct sampling".to_string(),
                    },
                    format!("{:.2}", u.error_percent),
                    u.requested_simulations.to_string(),
                ]
            })
            .collect();
        let mut out = format!(
            "# Characterization run: {} on {} ({} profile)\n\n",
            self.library, self.technology, self.profile
        );
        if self.is_partial() {
            out.push_str(&format!(
                "> **PARTIAL SHARD ARTIFACT** — covers {} of {} planned units. Simulation \
                 and cache totals below describe this shard only; join every shard with \
                 `slic merge` before exporting or quoting run-level results.\n\n",
                self.units.len(),
                self.planned_units,
            ));
        }
        out.push_str(&markdown_table(&headers, &rows));
        out.push_str(&format!(
            "\n{} units; {} arcs fully characterized; {} transient simulations paid, {} cache hits ({} misses).\n",
            self.units.len(),
            self.characterized.arcs.len(),
            self.total_simulations,
            self.cache_hits,
            self.cache_misses,
        ));
        if let Some(farm) = &self.farm {
            out.push_str(&Self::farm_markdown(farm));
        }
        if let Some(variation) = &self.variation {
            out.push_str(&self.variation_markdown(variation));
        }
        out
    }

    /// Renders the farm resilience record of a distributed run.
    fn farm_markdown(farm: &FarmSection) -> String {
        let mut out = format!(
            "\n## Simulation farm ({} of {} workers live after the run)\n\n",
            farm.workers_live, farm.fleet_size
        );
        out.push_str(&format!(
            "{} jobs completed remotely; {} lanes solved on workers, {} by the local \
             fallback.\n",
            farm.jobs_completed, farm.lanes_remote, farm.lanes_local,
        ));
        out.push_str(&format!(
            "Resilience: {} failovers, {} reconnects, {} heartbeats missed, {} jobs \
             degraded to local solving.\n",
            farm.failovers, farm.reconnects, farm.heartbeats_missed, farm.degraded_jobs,
        ));
        out
    }

    /// Renders the sigma/skew tables of a statistical run: a per-table corner summary,
    /// then the full per-grid-point moments.
    fn variation_markdown(&self, variation: &VariationSection) -> String {
        let mut out = format!(
            "\n## Process variation ({} seeds, draw seed {})\n\n",
            variation.process_seeds, variation.seed
        );
        if variation.tables.is_empty() {
            out.push_str(
                "No variation tables in this artifact (this shard owned no Monte Carlo \
                 units).\n",
            );
            return out;
        }
        // Corner summary: the worst mean + k·sigma view per table.
        let mut headers = vec![
            "arc".to_string(),
            "metric".to_string(),
            "max µ (ps)".to_string(),
            "max σ (ps)".to_string(),
        ];
        headers.extend(
            variation
                .sigma_corners
                .iter()
                .map(|k| format!("worst µ+{k}σ (ps)")),
        );
        let rows: Vec<Vec<String>> = variation
            .tables
            .iter()
            .map(|t| {
                let max_of = |rows: &[Vec<f64>]| {
                    rows.iter()
                        .flatten()
                        .fold(f64::NEG_INFINITY, |acc, v| acc.max(*v))
                };
                let mut row = vec![
                    t.arc_id.clone(),
                    t.metric.to_string(),
                    format!("{:.3}", max_of(&t.mean) * 1e12),
                    format!("{:.3}", max_of(&t.sigma) * 1e12),
                ];
                row.extend(
                    variation
                        .sigma_corners
                        .iter()
                        .map(|&k| format!("{:.3}", t.worst_corner(k) * 1e12)),
                );
                row
            })
            .collect();
        out.push_str(&markdown_table(&headers, &rows));
        // Full moment grids, one table per (arc, metric).
        for table in &variation.tables {
            out.push_str(&format!(
                "\n### {} {} — µ / σ / γ per slew × load point\n\n",
                table.arc_id, table.metric
            ));
            let mut headers = vec!["slew (ps) \\ load (fF)".to_string()];
            headers.extend(table.load_axis.iter().map(|c| format!("{:.3}", c * 1e15)));
            let rows: Vec<Vec<String>> = table
                .slew_axis
                .iter()
                .enumerate()
                .map(|(r, sin)| {
                    let mut row = vec![format!("{:.3}", sin * 1e12)];
                    row.extend((0..table.load_axis.len()).map(|c| {
                        format!(
                            "{:.3} / {:.3} / {:+.2}",
                            table.mean[r][c] * 1e12,
                            table.sigma[r][c] * 1e12,
                            table.skew[r][c],
                        )
                    }));
                    row
                })
                .collect();
            out.push_str(&markdown_table(&headers, &rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A structurally minimal artifact: zero planned units, so it also merges cleanly.
    fn empty_artifact() -> RunArtifact {
        RunArtifact {
            schema_version: SCHEMA_VERSION,
            library: "mini".to_string(),
            technology: "N7_FinFET".to_string(),
            profile: "quick".to_string(),
            seed: 42,
            planned_units: 0,
            units: Vec::new(),
            characterized: CharacterizedLibrary::from_units("mini", "N7_FinFET", &[]),
            total_simulations: 0,
            cache_hits: 0,
            cache_misses: 0,
            variation: None,
            farm: None,
        }
    }

    fn farm_section() -> FarmSection {
        FarmSection {
            fleet_size: 2,
            workers_live: 1,
            jobs_completed: 40,
            failovers: 3,
            reconnects: 2,
            heartbeats_missed: 1,
            degraded_jobs: 1,
            lanes_remote: 90,
            lanes_local: 6,
        }
    }

    #[test]
    fn a_default_run_artifact_has_no_kernel_key_at_all() {
        // Kernel counters are run telemetry, never artifact content.  An artifact written
        // by an earlier `--simd` run carries a `kernel` key: it still loads and reports,
        // and the key is dropped on the next save.
        let json = empty_artifact().to_json().expect("serializes");
        assert!(
            !json.contains("kernel"),
            "kernel key must be omitted:\n{json}"
        );
        let end = json.rfind('}').expect("an object");
        let legacy = format!(
            "{},\n  \"kernel\": {{\"simd\": true, \"sims\": 100, \"quad_rounds\": 1500}}\n}}",
            json[..end].trim_end()
        );
        for input in [&json, &legacy] {
            let back = RunArtifact::from_json(input).expect("parses");
            assert_eq!(back, empty_artifact());
            assert_eq!(back.to_json().expect("serializes"), json);
            assert!(back
                .summary_markdown()
                .contains("transient simulations paid"));
        }
    }

    #[test]
    fn the_farm_section_is_never_serialized_so_farm_and_local_artifacts_match() {
        // The byte-identity contract of the whole farm: attaching transport telemetry to
        // the in-memory artifact must not change one byte of the JSON.
        let mut farmed = empty_artifact();
        farmed.farm = Some(farm_section());
        let local = empty_artifact();
        assert_eq!(
            farmed.to_json().expect("serializes"),
            local.to_json().expect("serializes"),
            "the farm section leaked into the artifact JSON"
        );
        // And a reload therefore comes back without it.
        let back = RunArtifact::from_json(&farmed.to_json().expect("serializes")).expect("parses");
        assert_eq!(back.farm, None);
    }

    #[test]
    fn summary_markdown_renders_the_farm_block_only_for_farm_runs() {
        let plain = empty_artifact().summary_markdown();
        assert!(!plain.contains("Simulation farm"));

        let mut farmed = empty_artifact();
        farmed.farm = Some(farm_section());
        let summary = farmed.summary_markdown();
        assert!(
            summary.contains("## Simulation farm (1 of 2 workers live after the run)"),
            "{summary}"
        );
        assert!(
            summary.contains("3 failovers, 2 reconnects, 1 heartbeats missed, 1 jobs"),
            "{summary}"
        );
        assert!(summary.contains("90 lanes solved on workers"), "{summary}");
    }
}
