//! Run configuration: what to characterize, how hard, and with which filters.
//!
//! A [`RunConfig`] is the user-facing, mostly-optional description loaded from a JSON or
//! flat-TOML file (or built in code); [`RunConfig::resolve`] turns it into a fully
//! populated [`ResolvedConfig`] with every name looked up and every default applied, which
//! is what plans and runners consume.
//!
//! [`KEYS`] is the one list of config keys: one row per key, in struct field order, with
//! its dotted path, its CLI flag and its [`KeyKind`].  Unknown-key rejection (at every
//! depth, listing the keys of the same section), integer range checks and the CLI's flags
//! all come from it: [`RunConfig::with_flags`] parses each given flag by its row's kind
//! and sets it at the row's path over the file's keys, before the one `Deserialize` call,
//! and [`key_flags`] gives each subcommand its flag list.  Adding a key means adding a
//! struct field and a table row; a test fails until the two agree.

use crate::error::PipelineError;
use crate::toml;
use serde::{Deserialize, Serialize};
use slic::liberty::ExportGrid;
use slic::nominal::MethodKind;
use slic_bayes::TimingMetric;
use slic_cells::{DriveStrength, Library};
use slic_device::TechnologyNode;
use slic_spice::TransientConfig;
use slic_variation::VariationConfig;
use std::collections::BTreeMap;
use std::path::Path;

/// Salt mixed into the run seed to derive the variation process-sample seed, so the
/// Monte Carlo draw never collides with the training/validation sampling streams.
const VARIATION_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt mixed into the run seed to derive the farm reconnect-backoff jitter seed, so the
/// re-dial schedule is deterministic per run yet uncorrelated with the sampling streams.
const FARM_SEED_SALT: u64 = 0x94d0_49bb_1331_11eb;

/// The accuracy/cost trade-off of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunProfile {
    /// Small budgets and the fast transient preset — seconds per library, for smoke tests
    /// and CI.
    Quick,
    /// Paper-grade budgets and the accurate transient preset.
    Accurate,
}

impl RunProfile {
    /// Parses a profile name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "quick" => Some(Self::Quick),
            "accurate" => Some(Self::Accurate),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Quick => "quick",
            Self::Accurate => "accurate",
        }
    }

    /// Training conditions simulated per work unit.
    pub fn training_count(self) -> usize {
        match self {
            Self::Quick => 6,
            Self::Accurate => 20,
        }
    }

    /// Validation conditions per work unit (the per-unit accuracy estimate).
    pub fn validation_points(self) -> usize {
        match self {
            Self::Quick => 12,
            Self::Accurate => 60,
        }
    }

    /// Reference-grid shape for the historical learning stage.
    pub fn learning_grid(self) -> (usize, usize, usize) {
        match self {
            Self::Quick => (3, 3, 2),
            Self::Accurate => (4, 4, 3),
        }
    }

    /// Transient solver settings.
    pub fn transient(self) -> TransientConfig {
        match self {
            Self::Quick => TransientConfig::fast(),
            Self::Accurate => TransientConfig::accurate(),
        }
    }

    /// Liberty table grid.
    pub fn export_grid(self) -> ExportGrid {
        match self {
            Self::Quick => ExportGrid {
                slew_levels: 3,
                load_levels: 3,
            },
            Self::Accurate => ExportGrid {
                slew_levels: 5,
                load_levels: 5,
            },
        }
    }

    /// Monte Carlo process seeds per variation work unit (when variation is enabled).
    pub fn process_seeds(self) -> usize {
        match self {
            Self::Quick => 12,
            Self::Accurate => 100,
        }
    }
}

/// A run configuration as written by the user.  Every field is optional; unset fields take
/// the defaults documented on [`RunConfig::resolve`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Built-in library name: `"paper-trio"` (default) or `"standard"`.
    pub library: Option<String>,
    /// Target technology name (see `TechnologyNode::by_name`); default `"target_14nm"`.
    pub technology: Option<String>,
    /// Historical technology names for the learning stage; default
    /// `["n16_finfet", "n14_finfet"]`.
    pub historical: Option<Vec<String>>,
    /// Profile name: `"quick"` (default) or `"accurate"`.
    pub profile: Option<String>,
    /// Cell-kind glob filter (`*`/`?`, case-insensitive), e.g. `"NAND*"`.
    pub cell_pattern: Option<String>,
    /// Drive-strength filter, e.g. `["X1"]`.
    pub drives: Option<Vec<String>>,
    /// Metrics to characterize: `"delay"` and/or `"slew"`; default both.
    pub metrics: Option<Vec<String>>,
    /// Extraction methods per unit: `"bayesian"` (default), `"lse"`, `"lut"`.
    pub methods: Option<Vec<String>>,
    /// Override of the profile's per-unit training-condition count.
    pub training_count: Option<usize>,
    /// Override of the profile's per-unit validation-point count.
    pub validation_points: Option<usize>,
    /// RNG seed for training/validation sampling; default `20150313`.
    pub seed: Option<u64>,
    /// Path of a persistent (JSON-lines) simulation cache shared by shard workers and
    /// reruns; created on first use.  Unset = a fresh in-memory cache per run.
    pub cache: Option<String>,
    /// Simulation backend: `"local"` (default) or `"farm"`.  Unset with `workers` or
    /// `spawn_workers` given implies `"farm"`.
    pub backend: Option<String>,
    /// TCP addresses of running `slic worker --listen` processes for the farm backend.
    pub workers: Option<Vec<String>>,
    /// Number of local subprocess workers the farm backend spawns (the zero-config
    /// multi-process mode: `slic characterize --spawn-workers N`).
    pub spawn_workers: Option<usize>,
    /// Monte Carlo variation knobs.  The presence of this section (or the `--variation`
    /// CLI flag) enables variation work units; unset fields take profile defaults.
    pub variation: Option<VariationKnobs>,
    /// Farm resilience knobs.  In flat TOML these are the dotted `farm.*` keys
    /// (`farm.retry_budget = 3`).  Only meaningful with the farm backend.
    pub farm: Option<FarmKnobs>,
    /// Observability knobs.  In flat TOML these are the dotted `observability.*` keys
    /// (`observability.trace = "run.jsonl"`).  Display-only: tracing never changes an
    /// artifact byte.
    pub observability: Option<ObservabilityKnobs>,
}

/// User-facing Monte Carlo variation knobs, every field optional.  In flat TOML these are
/// the dotted `variation.*` keys (`variation.process_seeds = 100`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VariationKnobs {
    /// Monte Carlo process seeds per variation unit; default from the profile
    /// ([`RunProfile::process_seeds`]).
    pub process_seeds: Option<usize>,
    /// Sigma multipliers for corner reporting; default `[1.0, 3.0]`.
    pub sigma_corners: Option<Vec<f64>>,
}

/// User-facing observability knobs, every field optional.  In flat TOML these are the
/// dotted `observability.*` keys (`observability.trace = "run.jsonl"`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObservabilityKnobs {
    /// Sidecar JSON-lines trace file the run writes span/event records to; unset = no
    /// tracing.  Equivalent to the `--trace` CLI flag (the flag wins when both are set).
    pub trace: Option<String>,
    /// Append-only cross-run ledger file (`runs.jsonl`) the run appends one
    /// `RunRecord` line to; unset = no ledger.  Equivalent to the `--ledger` CLI flag.
    pub ledger: Option<String>,
    /// Force the live stderr progress line even when stderr is not a TTY (the CLI
    /// enables it automatically on a TTY).  Equivalent to the `--progress` CLI switch.
    pub progress: Option<bool>,
    /// Regression-diff thresholds for `slic history --diff` / `slic profile --diff`.
    pub diff: Option<DiffKnobs>,
}

/// User-facing regression-diff thresholds, every field optional.  In flat TOML these
/// are the dotted `observability.diff.*` keys (`observability.diff.wall_pct = 50.0`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiffKnobs {
    /// Maximum tolerated wall-time increase, percent (default 50 — wall is noisy).
    pub wall_pct: Option<f64>,
    /// Maximum tolerated increase of gated counters, percent (default 10 —
    /// deterministic counters of a fixed seed reproduce exactly).
    pub counter_pct: Option<f64>,
    /// Maximum tolerated cache-hit-rate drop, percentage points (default 5).
    pub hit_rate_drop_pct: Option<f64>,
}

impl DiffKnobs {
    /// Applies defaults, yielding the thresholds the diff surfaces consume.
    pub fn resolve(&self) -> slic_obs::DiffThresholds {
        let defaults = slic_obs::DiffThresholds::default();
        slic_obs::DiffThresholds {
            wall_pct: self.wall_pct.unwrap_or(defaults.wall_pct),
            counter_pct: self.counter_pct.unwrap_or(defaults.counter_pct),
            hit_rate_drop_pct: self.hit_rate_drop_pct.unwrap_or(defaults.hit_rate_drop_pct),
        }
    }
}

/// User-facing farm resilience knobs, every field optional.  In flat TOML these are the
/// dotted `farm.*` keys (`farm.retry_budget = 3`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FarmKnobs {
    /// Dispatch attempts per job before it degrades to the broker's local fallback;
    /// default = the fleet size (every worker gets one shot).  Must be at least 1.
    pub retry_budget: Option<usize>,
    /// Re-dials per reconnect campaign before a dead worker is retired for the run;
    /// default 4.  `0` means a dead worker stays dead.
    pub reconnect_attempts: Option<u32>,
    /// First-attempt ceiling of the re-dial backoff schedule, in milliseconds
    /// (default 50).
    pub backoff_base_ms: Option<u64>,
    /// Hard ceiling of any single re-dial delay, in milliseconds (default 2000).
    pub backoff_cap_ms: Option<u64>,
    /// Probe TCP workers with a `ping`/`pong` heartbeat before dispatch (default true).
    pub heartbeat: Option<bool>,
    /// Read deadline for one heartbeat round trip, in milliseconds (default 5000).
    pub heartbeat_timeout_ms: Option<u64>,
}

/// Resolved farm resilience tuning — the pipeline-side mirror of `slic_farm::FarmTuning`
/// (this crate does not depend on `slic-farm`; the CLI maps the fields across when it
/// builds the fleet).  The backoff seed is derived from the run seed, so re-dial
/// schedules are replayable per run without ever touching an artifact byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmResilience {
    /// Dispatch attempts per job; `None` = fleet size.
    pub retry_budget: Option<usize>,
    /// Re-dials per reconnect campaign before a worker is retired.
    pub reconnect_attempts: u32,
    /// First-attempt backoff ceiling, milliseconds.
    pub backoff_base_ms: u64,
    /// Hard backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Jitter seed of the re-dial schedule (run seed ⊕ salt).
    pub backoff_seed: u64,
    /// Whether workers are heartbeat-probed before dispatch.
    pub heartbeat: bool,
    /// Heartbeat round-trip deadline, milliseconds.
    pub heartbeat_timeout_ms: u64,
}

/// Where the run's transient simulations execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendChoice {
    /// In-process batched kernel (the default).
    Local,
    /// The `slic-farm` worker fleet.
    Farm {
        /// TCP worker addresses to connect to.
        workers: Vec<String>,
        /// Subprocess workers to spawn in addition.
        spawn_workers: usize,
        /// Resilience knobs for the fleet.
        tuning: FarmResilience,
    },
}

/// How a key's value is written, and so how its CLI flag's text parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// A string (`--library standard`).
    Str,
    /// A list of strings; the flag takes them comma-separated (`--methods bayesian,lse`).
    List,
    /// A non-negative integer below 2^53, the largest range a config number holds exactly
    /// (`--seed 7`).
    Int,
    /// A number (`--wall-pct 25`).
    Num,
    /// A list of numbers; the flag takes them comma-separated (`--variation-sigma 1,3`).
    NumList,
    /// A boolean; its flag takes no value.  `--progress` sets `true`, and `--variation`,
    /// the switch of a section, enables that section.
    Switch,
}

/// One run-config key of [`KEYS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigKey {
    /// Dotted path, as written in flat TOML (`farm.retry_budget`).
    pub path: &'static str,
    /// The CLI flag that sets the key, without its `--`.
    pub flag: Option<&'static str>,
    /// The value's kind.
    pub kind: KeyKind,
}

const fn key(path: &'static str, flag: Option<&'static str>, kind: KeyKind) -> ConfigKey {
    ConfigKey { path, flag, kind }
}

/// Every key a run config may set, in [`RunConfig`] field order: the one list that
/// unknown-key rejection, the CLI's flags and their parsing are built from.  A section
/// (`variation`, `farm`, `observability`, `observability.diff`) is the set of rows under
/// its path; `variation` also has a row of its own for its `--variation` switch.
#[rustfmt::skip]
pub const KEYS: &[ConfigKey] = {
    use KeyKind::*;
    &[
        key("library",                                   Some("library"),            Str),
        key("technology",                                Some("technology"),         Str),
        key("historical",                                Some("historical"),         List),
        key("profile",                                   Some("profile"),            Str),
        key("cell_pattern",                              Some("cells"),              Str),
        key("drives",                                    Some("drives"),             List),
        key("metrics",                                   Some("metrics"),            List),
        key("methods",                                   Some("methods"),            List),
        key("training_count",                            None,                       Int),
        key("validation_points",                         None,                       Int),
        key("seed",                                      Some("seed"),               Int),
        key("cache",                                     Some("cache"),              Str),
        key("backend",                                   Some("backend"),            Str),
        key("workers",                                   Some("workers"),            List),
        key("spawn_workers",                             Some("spawn-workers"),      Int),
        key("variation",                                 Some("variation"),          Switch),
        key("variation.process_seeds",                   Some("variation-seeds"),    Int),
        key("variation.sigma_corners",                   Some("variation-sigma"),    NumList),
        key("farm.retry_budget",                         Some("retry-budget"),       Int),
        key("farm.reconnect_attempts",                   Some("reconnect-attempts"), Int),
        key("farm.backoff_base_ms",                      None,                       Int),
        key("farm.backoff_cap_ms",                       None,                       Int),
        key("farm.heartbeat",                            None,                       Switch),
        key("farm.heartbeat_timeout_ms",                 None,                       Int),
        key("observability.trace",                       Some("trace"),              Str),
        key("observability.ledger",                      Some("ledger"),             Str),
        key("observability.progress",                    Some("progress"),           Switch),
        key("observability.diff.wall_pct",               Some("wall-pct"),           Num),
        key("observability.diff.counter_pct",            Some("counter-pct"),        Num),
        key("observability.diff.hit_rate_drop_pct",      Some("hit-rate-drop"),      Num),
    ]
};

/// Integers from 2^53 up have no exact `f64`, the number type every config value passes
/// through, so they are rejected rather than silently rounded.
const INT_LIMIT: u64 = 1 << 53;
const INT_LIMIT_NOTE: &str = "integers must be below 2^53 = 9007199254740992 to be exact";

impl ConfigKey {
    /// Whether the key is `section` itself or sits under it.
    pub fn is_under(&self, section: &str) -> bool {
        self.path
            .strip_prefix(section)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
    }

    /// Parses the text given to the key's flag into a config value.
    fn parse_flag(&self, flag: &str, text: &str) -> Result<serde::Value, PipelineError> {
        use serde::Value;
        let items = || text.split(',').map(str::trim).filter(|s| !s.is_empty());
        let bad = |what: &str| PipelineError::config(format!("`--{flag} {text}`{what}"));
        Ok(match self.kind {
            KeyKind::Str => Value::String(text.to_string()),
            KeyKind::List => Value::Array(items().map(|s| Value::String(s.into())).collect()),
            KeyKind::Int => match text.parse::<u64>() {
                Ok(n) if n >= INT_LIMIT => {
                    return Err(bad(&format!(" is too large: {INT_LIMIT_NOTE}")))
                }
                Ok(n) => Value::Number(n as f64),
                Err(_) => return Err(bad(" is not an integer")),
            },
            KeyKind::Num => Value::Number(text.parse().map_err(|_| bad(" is not a number"))?),
            KeyKind::NumList => Value::Array(
                items()
                    .map(|item| {
                        item.parse()
                            .map(Value::Number)
                            .map_err(|_| bad(&format!(": `{item}` is not a number")))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            KeyKind::Switch if is_section(self.path) => Value::Object(Vec::new()),
            KeyKind::Switch => Value::Bool(true),
        })
    }
}

/// The flags of the keys `select` keeps, in table order: `(valued flags, switches)`.
pub fn key_flags(select: impl Fn(&ConfigKey) -> bool) -> (Vec<&'static str>, Vec<&'static str>) {
    let (switches, valued): (Vec<&ConfigKey>, _) = KEYS
        .iter()
        .filter(|key| key.flag.is_some() && select(key))
        .partition(|key| key.kind == KeyKind::Switch);
    let flags = |keys: Vec<&ConfigKey>| keys.into_iter().filter_map(|key| key.flag).collect();
    (flags(valued), flags(switches))
}

/// The keys directly under `parent` (`""` for the top level) as full dotted paths, in
/// table order: a section counts once, at its first row.
fn children(parent: &str) -> Vec<&'static str> {
    let start = if parent.is_empty() {
        0
    } else {
        parent.len() + 1
    };
    let below = |key: &&ConfigKey| start == 0 || key.is_under(parent) && key.path.len() > start;
    let mut found: Vec<&'static str> = Vec::new();
    for key in KEYS.iter().filter(below) {
        let end = key.path[start..]
            .find('.')
            .map_or(key.path.len(), |i| start + i);
        if !found.contains(&&key.path[..end]) {
            found.push(&key.path[..end]);
        }
    }
    found
}

fn is_section(path: &str) -> bool {
    !children(path).is_empty()
}

/// Rejects unknown keys at every depth with a pointed error, and integer keys whose value
/// is too large to be exact.  The derived deserializer silently skips unknown fields, and
/// a typo'd knob falling back to its default is the worst kind of misconfiguration.
fn check_keys(value: &serde::Value, parent: &str) -> Result<(), PipelineError> {
    let Some(entries) = value.as_object() else {
        return Ok(()); // A non-object fails shape-checking with its own error.
    };
    let known = children(parent);
    for (name, sub) in entries {
        let path = match parent {
            "" => name.clone(),
            _ => format!("{parent}.{name}"),
        };
        if !known.contains(&path.as_str()) {
            return Err(PipelineError::config(format!(
                "unknown config key `{path}` (expected one of: {})",
                known.join(", ")
            )));
        }
        if is_section(&path) {
            check_keys(sub, &path)?;
        } else if KEYS
            .iter()
            .any(|k| k.path == path && k.kind == KeyKind::Int)
            && sub.as_f64().is_some_and(|n| n >= INT_LIMIT as f64)
        {
            return Err(PipelineError::config(format!(
                "config key `{path}` is too large: {INT_LIMIT_NOTE}"
            )));
        }
    }
    Ok(())
}

/// Key-checks a parsed config tree.
fn checked(value: serde::Value) -> Result<serde::Value, PipelineError> {
    check_keys(&value, "")?;
    Ok(value)
}

impl RunConfig {
    /// Parses a configuration from JSON text.  Unknown keys, at any depth, are rejected
    /// rather than silently ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Serde`] on malformed JSON or mismatched shapes, and a
    /// [`PipelineError::Config`] naming any unknown key or inexact integer.
    pub fn from_json(text: &str) -> Result<Self, PipelineError> {
        Ok(Self::from_value(&checked(serde_json::from_str(text)?)?)?)
    }

    /// Parses a configuration from flat-TOML text (see [`crate::toml`]).  Unknown keys,
    /// top-level or dotted, are rejected rather than silently ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] on TOML syntax errors, unknown keys or inexact
    /// integers, and a [`PipelineError::Serde`] on mismatched shapes.
    pub fn from_toml(text: &str) -> Result<Self, PipelineError> {
        Ok(Self::from_value(&checked(toml::parse(text)?)?)?)
    }

    /// Loads a configuration file, dispatching on the `.json` / `.toml` extension.
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable files, unknown extensions or malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PipelineError> {
        Self::with_flags(Some(path.as_ref()), &BTreeMap::new())
    }

    /// Loads the optional config `file`, then sets every key whose [`KEYS`] flag is in
    /// `flags` (flag name without `--` → its text; a switch's text is ignored) over the
    /// file's keys.  Names in `flags` that are no key's flag are ignored.
    ///
    /// # Errors
    ///
    /// Returns the file's load error, or a [`PipelineError::Config`] naming a flag whose
    /// text does not parse as its key's kind.
    pub fn with_flags(
        file: Option<&Path>,
        flags: &BTreeMap<String, String>,
    ) -> Result<Self, PipelineError> {
        let mut value = serde::Value::Object(Vec::new());
        if let Some(path) = file {
            let text = std::fs::read_to_string(path)?;
            value = checked(match path.extension().and_then(|e| e.to_str()) {
                Some("json") => serde_json::from_str(&text)?,
                Some("toml") => toml::parse(&text)?,
                other => {
                    return Err(PipelineError::config(format!(
                        "cannot infer config format of `{}` (extension {:?}); use .json or .toml",
                        path.display(),
                        other
                    )))
                }
            })?;
        }
        for key in KEYS {
            let Some(flag) = key.flag else { continue };
            let Some(text) = flags.get(flag) else {
                continue;
            };
            let parsed = key.parse_flag(flag, text)?;
            let segments: Vec<&str> = key.path.split('.').collect();
            // A section's switch only makes sure the section exists.  A non-object where
            // a section belongs is left for deserialization to report as the file's error.
            if let serde::Value::Object(_) = parsed {
                let _ = toml::section_mut(&mut value, &segments);
            } else if let Some((leaf, sections)) = segments.split_last() {
                if let Ok(entries) = toml::section_mut(&mut value, sections) {
                    entries.retain(|(k, _)| k != leaf);
                    entries.push((leaf.to_string(), parsed));
                }
            }
        }
        Ok(Self::from_value(&value)?)
    }

    /// The regression-diff thresholds: `observability.diff.*` with defaults applied.
    pub fn diff_thresholds(&self) -> slic_obs::DiffThresholds {
        let observability = self.observability.clone().unwrap_or_default();
        observability.diff.unwrap_or_default().resolve()
    }

    /// Applies defaults and resolves every name into concrete catalogue objects.
    ///
    /// Defaults: `paper-trio` library, `target_14nm` technology, the two FinFET
    /// historical nodes, the `quick` profile, both metrics, the Bayesian method, seed
    /// `20150313`, no cell/drive filters.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError::Config`] naming any unknown library, technology, metric,
    /// method, profile or drive strength, or a filter selection that leaves no cells.
    pub fn resolve(&self) -> Result<ResolvedConfig, PipelineError> {
        let library_name = self.library.as_deref().unwrap_or("paper-trio");
        let mut library = Library::builtin(library_name).ok_or_else(|| {
            PipelineError::config(format!(
                "unknown library `{library_name}` (expected `paper-trio` or `standard`)"
            ))
        })?;
        if let Some(pattern) = &self.cell_pattern {
            library = library.filter_kinds(pattern);
        }
        if let Some(drives) = &self.drives {
            let parsed: Vec<DriveStrength> = drives
                .iter()
                .map(|d| {
                    DriveStrength::from_name(d).ok_or_else(|| {
                        PipelineError::config(format!("unknown drive strength `{d}`"))
                    })
                })
                .collect::<Result<_, _>>()?;
            library = library.filter_drives(&parsed);
        }
        if library.is_empty() {
            return Err(PipelineError::config(format!(
                "cell selection is empty: library `{library_name}`, pattern {:?}, drives {:?}",
                self.cell_pattern, self.drives
            )));
        }

        let technology_name = self.technology.as_deref().unwrap_or("target_14nm");
        let technology = TechnologyNode::by_name(technology_name).ok_or_else(|| {
            PipelineError::config(format!("unknown technology `{technology_name}`"))
        })?;

        let historical_names: Vec<String> = self
            .historical
            .clone()
            .unwrap_or_else(|| vec!["n16_finfet".to_string(), "n14_finfet".to_string()]);
        let historical: Vec<TechnologyNode> = historical_names
            .iter()
            .map(|name| {
                TechnologyNode::by_name(name).ok_or_else(|| {
                    PipelineError::config(format!("unknown historical technology `{name}`"))
                })
            })
            .collect::<Result<_, _>>()?;
        if historical.is_empty() {
            return Err(PipelineError::config("historical technology list is empty"));
        }

        let profile_name = self.profile.as_deref().unwrap_or("quick");
        let profile = RunProfile::from_name(profile_name).ok_or_else(|| {
            PipelineError::config(format!(
                "unknown profile `{profile_name}` (expected `quick` or `accurate`)"
            ))
        })?;

        let metrics = match &self.metrics {
            None => vec![TimingMetric::Delay, TimingMetric::OutputSlew],
            Some(names) => names
                .iter()
                .map(|name| match name.to_ascii_lowercase().as_str() {
                    "delay" => Ok(TimingMetric::Delay),
                    "slew" | "output-slew" | "output_slew" => Ok(TimingMetric::OutputSlew),
                    other => Err(PipelineError::config(format!("unknown metric `{other}`"))),
                })
                .collect::<Result<_, _>>()?,
        };
        if metrics.is_empty() {
            return Err(PipelineError::config("metric list is empty"));
        }

        let methods = match &self.methods {
            None => vec![MethodKind::ProposedBayesian],
            Some(names) => names
                .iter()
                .map(|name| match name.to_ascii_lowercase().as_str() {
                    "bayesian" | "map" => Ok(MethodKind::ProposedBayesian),
                    "lse" | "least-squares" | "least_squares" => Ok(MethodKind::ProposedLse),
                    "lut" | "table" => Ok(MethodKind::Lut),
                    other => Err(PipelineError::config(format!("unknown method `{other}`"))),
                })
                .collect::<Result<_, _>>()?,
        };
        if methods.is_empty() {
            return Err(PipelineError::config("method list is empty"));
        }

        let seed = self.seed.unwrap_or(20150313);
        let tuning = {
            let knobs = self.farm.clone().unwrap_or_default();
            if knobs.retry_budget == Some(0) {
                return Err(PipelineError::config(
                    "`farm.retry_budget` must be at least 1 (every job needs one dispatch \
                     attempt before it can degrade to the local fallback)",
                ));
            }
            FarmResilience {
                retry_budget: knobs.retry_budget,
                reconnect_attempts: knobs.reconnect_attempts.unwrap_or(4),
                backoff_base_ms: knobs.backoff_base_ms.unwrap_or(50),
                backoff_cap_ms: knobs.backoff_cap_ms.unwrap_or(2_000),
                backoff_seed: seed ^ FARM_SEED_SALT,
                heartbeat: knobs.heartbeat.unwrap_or(true),
                heartbeat_timeout_ms: knobs.heartbeat_timeout_ms.unwrap_or(5_000),
            }
        };
        let workers = self.workers.clone().unwrap_or_default();
        let spawn_workers = self.spawn_workers.unwrap_or(0);
        let backend = match self.backend.as_deref() {
            Some("local") => {
                if !workers.is_empty() || spawn_workers > 0 {
                    return Err(PipelineError::config(
                        "backend is `local` but farm workers are configured; drop \
                         `workers`/`spawn_workers` or set `backend = \"farm\"`",
                    ));
                }
                BackendChoice::Local
            }
            Some("farm") => {
                if workers.is_empty() && spawn_workers == 0 {
                    return Err(PipelineError::config(
                        "the farm backend needs `workers` addresses and/or a \
                         `spawn_workers` count",
                    ));
                }
                BackendChoice::Farm {
                    workers,
                    spawn_workers,
                    tuning,
                }
            }
            // Farm knobs without an explicit backend name imply the farm.
            None if !workers.is_empty() || spawn_workers > 0 => BackendChoice::Farm {
                workers,
                spawn_workers,
                tuning,
            },
            None => BackendChoice::Local,
            Some(other) => {
                return Err(PipelineError::config(format!(
                    "unknown backend `{other}` (expected `local` or `farm`)"
                )));
            }
        };
        if self.farm.is_some() && !matches!(backend, BackendChoice::Farm { .. }) {
            return Err(PipelineError::config(
                "`farm.*` knobs apply to the farm backend only; configure `workers` / \
                 `spawn_workers` or drop the farm section",
            ));
        }

        let variation = match &self.variation {
            None => None,
            Some(knobs) => {
                let resolved = VariationConfig {
                    process_seeds: knobs
                        .process_seeds
                        .unwrap_or_else(|| profile.process_seeds()),
                    sigma_corners: knobs
                        .sigma_corners
                        .clone()
                        .unwrap_or_else(|| vec![1.0, 3.0]),
                    seed: seed ^ VARIATION_SEED_SALT,
                };
                resolved
                    .validate()
                    .map_err(|err| PipelineError::config(err.to_string()))?;
                Some(resolved)
            }
        };

        let observability = self.observability.clone().unwrap_or_default();
        Ok(ResolvedConfig {
            library_name: library_name.to_string(),
            library,
            technology,
            historical,
            profile,
            metrics,
            methods,
            training_count: self
                .training_count
                .unwrap_or_else(|| profile.training_count())
                .max(1),
            validation_points: self
                .validation_points
                .unwrap_or_else(|| profile.validation_points())
                .max(2),
            transient: profile.transient(),
            export_grid: profile.export_grid(),
            seed,
            cache_path: self.cache.clone().map(std::path::PathBuf::from),
            backend,
            variation,
            trace_path: observability.trace.map(std::path::PathBuf::from),
            ledger_path: observability.ledger.map(std::path::PathBuf::from),
            progress: observability.progress.unwrap_or(false),
            diff: observability.diff.unwrap_or_default().resolve(),
        })
    }
}

/// A fully resolved run description: every name looked up, every default applied.
#[derive(Debug, Clone)]
pub struct ResolvedConfig {
    /// The configured library name (before filtering).
    pub library_name: String,
    /// The filtered cell selection.
    pub library: Library,
    /// The characterization target.
    pub technology: TechnologyNode,
    /// Historical nodes for the learning stage.
    pub historical: Vec<TechnologyNode>,
    /// The accuracy/cost profile.
    pub profile: RunProfile,
    /// Metrics each arc is characterized for.
    pub metrics: Vec<TimingMetric>,
    /// Extraction methods each (arc, metric) runs.
    pub methods: Vec<MethodKind>,
    /// Training conditions per work unit.
    pub training_count: usize,
    /// Validation conditions per work unit.
    pub validation_points: usize,
    /// Transient solver settings for every stage.
    pub transient: TransientConfig,
    /// Liberty table grid.
    pub export_grid: ExportGrid,
    /// RNG seed.
    pub seed: u64,
    /// Persistent simulation-cache file, when configured.
    pub cache_path: Option<std::path::PathBuf>,
    /// Where transient simulations execute.
    pub backend: BackendChoice,
    /// Monte Carlo variation workload, when enabled.  The seed set and sigma corners are
    /// part of this configuration, so equal resolved configs on any shard draw identical
    /// process samples.
    pub variation: Option<VariationConfig>,
    /// Sidecar JSON-lines trace file, when tracing is enabled.  Display-only: whether a
    /// run is traced never changes an artifact byte (CI `cmp`-gates this).
    pub trace_path: Option<std::path::PathBuf>,
    /// Append-only cross-run ledger file, when enabled.  Display-only, same contract
    /// as tracing.
    pub ledger_path: Option<std::path::PathBuf>,
    /// Whether the stderr progress line is forced on (the CLI also turns it on when
    /// stderr is a TTY).
    pub progress: bool,
    /// Regression-diff thresholds (`observability.diff.*` with defaults applied).
    pub diff: slic_obs::DiffThresholds,
}

impl ResolvedConfig {
    /// The run's configuration identity: a 16-hex-digit hash over everything that
    /// determines *what* is computed — cells, technology nodes, profile, metrics,
    /// methods, budgets, seed, variation workload.
    ///
    /// Execution placement is deliberately excluded (backend, worker lists, cache /
    /// trace / ledger paths, farm tuning): artifacts are byte-identical across
    /// backends, so a local run and a farmed run of one config share a fingerprint —
    /// which is exactly what lets `slic history` diff them against each other.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut identity = String::with_capacity(256);
        let _ = write!(identity, "library={};", self.library_name);
        for cell in self.library.cells() {
            let _ = write!(identity, "cell={};", cell.name());
        }
        let _ = write!(identity, "technology={};", self.technology.name());
        for node in &self.historical {
            let _ = write!(identity, "historical={};", node.name());
        }
        let _ = write!(
            identity,
            "profile={};metrics={:?};methods={:?};training={};validation={};seed={};",
            self.profile.name(),
            self.metrics,
            self.methods,
            self.training_count,
            self.validation_points,
            self.seed,
        );
        if let Some(variation) = &self.variation {
            let _ = write!(
                identity,
                "variation.seeds={};variation.seed={};",
                variation.process_seeds, variation.seed
            );
            for corner in &variation.sigma_corners {
                // Bit-exact: two configs differing in any corner hash apart.
                let _ = write!(identity, "corner={:016x};", corner.to_bits());
            }
        }
        slic_obs::ledger::content_hash(identity.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_to_the_paper_setup() {
        let resolved = RunConfig::default().resolve().unwrap();
        assert_eq!(resolved.library.len(), 3);
        assert_eq!(resolved.technology.name(), "target-14nm-finfet");
        assert_eq!(resolved.historical.len(), 2);
        assert_eq!(resolved.profile, RunProfile::Quick);
        assert_eq!(resolved.metrics.len(), 2);
        assert_eq!(resolved.methods, vec![MethodKind::ProposedBayesian]);
        assert_eq!(resolved.seed, 20150313);
        assert!(resolved.training_count >= 1);
    }

    #[test]
    fn json_and_toml_configs_agree() {
        let json = r#"{
            "library": "standard",
            "profile": "quick",
            "cell_pattern": "NAND*",
            "drives": ["X1"],
            "metrics": ["delay"],
            "methods": ["bayesian", "lse"],
            "seed": 7
        }"#;
        let toml_text = r#"
            library = "standard"
            profile = "quick"
            cell_pattern = "NAND*"
            drives = ["X1"]
            metrics = ["delay"]
            methods = ["bayesian", "lse"]
            seed = 7
        "#;
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        let resolved = a.resolve().unwrap();
        assert_eq!(resolved.library.len(), 2, "NAND2_X1 and NAND3_X1");
        assert_eq!(resolved.metrics, vec![TimingMetric::Delay]);
        assert_eq!(resolved.methods.len(), 2);
        assert_eq!(resolved.seed, 7);
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = RunConfig {
            library: Some("standard".into()),
            cell_pattern: Some("NOR*".into()),
            seed: Some(11),
            ..RunConfig::default()
        };
        let text = serde_json::to_string_pretty(&config).unwrap();
        let back = RunConfig::from_json(&text).unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn unknown_names_are_rejected_with_context() {
        let bad = |cfg: RunConfig| cfg.resolve().unwrap_err().to_string();
        assert!(bad(RunConfig {
            library: Some("nope".into()),
            ..Default::default()
        })
        .contains("unknown library"));
        assert!(bad(RunConfig {
            technology: Some("n3".into()),
            ..Default::default()
        })
        .contains("unknown technology"));
        assert!(bad(RunConfig {
            profile: Some("turbo".into()),
            ..Default::default()
        })
        .contains("unknown profile"));
        assert!(bad(RunConfig {
            metrics: Some(vec!["power".into()]),
            ..Default::default()
        })
        .contains("unknown metric"));
        assert!(bad(RunConfig {
            methods: Some(vec!["oracle".into()]),
            ..Default::default()
        })
        .contains("unknown method"));
        assert!(bad(RunConfig {
            drives: Some(vec!["X8".into()]),
            ..Default::default()
        })
        .contains("unknown drive"));
        assert!(bad(RunConfig {
            cell_pattern: Some("XYZ*".into()),
            ..Default::default()
        })
        .contains("selection is empty"));
    }

    /// The resolved resilience defaults for a given run seed.
    fn default_tuning(seed: u64) -> FarmResilience {
        FarmResilience {
            retry_budget: None,
            reconnect_attempts: 4,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            backoff_seed: seed ^ FARM_SEED_SALT,
            heartbeat: true,
            heartbeat_timeout_ms: 5_000,
        }
    }

    #[test]
    fn backend_resolution_covers_local_farm_and_inference() {
        assert_eq!(
            RunConfig::default().resolve().unwrap().backend,
            BackendChoice::Local
        );
        let explicit = RunConfig {
            backend: Some("farm".into()),
            workers: Some(vec!["10.0.0.5:9200".into()]),
            spawn_workers: Some(2),
            ..Default::default()
        };
        assert_eq!(
            explicit.resolve().unwrap().backend,
            BackendChoice::Farm {
                workers: vec!["10.0.0.5:9200".into()],
                spawn_workers: 2,
                tuning: default_tuning(20150313),
            }
        );
        // Farm knobs alone imply the farm backend.
        let implied = RunConfig {
            spawn_workers: Some(3),
            ..Default::default()
        };
        assert_eq!(
            implied.resolve().unwrap().backend,
            BackendChoice::Farm {
                workers: vec![],
                spawn_workers: 3,
                tuning: default_tuning(20150313),
            }
        );
        let bad = |cfg: RunConfig| cfg.resolve().unwrap_err().to_string();
        assert!(bad(RunConfig {
            backend: Some("cloud".into()),
            ..Default::default()
        })
        .contains("unknown backend"));
        assert!(bad(RunConfig {
            backend: Some("farm".into()),
            ..Default::default()
        })
        .contains("needs `workers`"));
        assert!(bad(RunConfig {
            backend: Some("local".into()),
            spawn_workers: Some(2),
            ..Default::default()
        })
        .contains("farm workers are configured"));
    }

    #[test]
    fn farm_config_round_trips_through_json_and_toml() {
        let json = r#"{"backend": "farm", "workers": ["a:1", "b:2"], "spawn_workers": 2}"#;
        let toml_text = "
            backend = \"farm\"
            workers = [\"a:1\", \"b:2\"]
            spawn_workers = 2
        ";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
    }

    #[test]
    fn variation_resolution_applies_profile_defaults_and_validates() {
        assert!(RunConfig::default().resolve().unwrap().variation.is_none());
        let enabled = RunConfig {
            variation: Some(VariationKnobs::default()),
            ..Default::default()
        }
        .resolve()
        .unwrap();
        let variation = enabled.variation.expect("variation resolved");
        assert_eq!(variation.process_seeds, RunProfile::Quick.process_seeds());
        assert_eq!(variation.sigma_corners, vec![1.0, 3.0]);
        assert_ne!(
            variation.seed, enabled.seed,
            "the Monte Carlo draw must not reuse the sampling seed stream"
        );
        let custom = RunConfig {
            variation: Some(VariationKnobs {
                process_seeds: Some(40),
                sigma_corners: Some(vec![2.0]),
            }),
            ..Default::default()
        }
        .resolve()
        .unwrap()
        .variation
        .unwrap();
        assert_eq!(custom.process_seeds, 40);
        assert_eq!(custom.sigma_corners, vec![2.0]);
        let bad = RunConfig {
            variation: Some(VariationKnobs {
                process_seeds: Some(2),
                sigma_corners: None,
            }),
            ..Default::default()
        };
        assert!(bad
            .resolve()
            .unwrap_err()
            .to_string()
            .contains("at least 3"));
    }

    #[test]
    fn variation_config_parses_from_json_and_dotted_toml() {
        let json = r#"{"variation": {"process_seeds": 30, "sigma_corners": [1.0, 3.0]}}"#;
        let toml_text = "
            variation.process_seeds = 30
            variation.sigma_corners = [1.0, 3.0]
        ";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.variation,
            Some(VariationKnobs {
                process_seeds: Some(30),
                sigma_corners: Some(vec![1.0, 3.0]),
            })
        );
        // And the full config round-trips through JSON.
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
    }

    #[test]
    fn unknown_config_keys_are_rejected_not_ignored() {
        // The classic typo the strictness exists for: `variation.seeds` instead of
        // `variation.process_seeds` must fail loudly, not run with the default count.
        let err = RunConfig::from_toml("variation.seeds = 30").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `variation.seeds`"),
            "{err}"
        );
        assert!(err.to_string().contains("variation.process_seeds"), "{err}");
        let err = RunConfig::from_json(r#"{"variation": {"sigma": [3.0]}}"#).unwrap_err();
        assert!(err.to_string().contains("`variation.sigma`"), "{err}");
        // Top-level typos get the same treatment in both formats.
        let err = RunConfig::from_toml("cach = \"warm.jsonl\"").unwrap_err();
        assert!(
            err.to_string().contains("unknown config key `cach`"),
            "{err}"
        );
        let err = RunConfig::from_json(r#"{"librray": "standard"}"#).unwrap_err();
        assert!(err.to_string().contains("`librray`"), "{err}");
    }

    #[test]
    fn unknown_kernel_keys_are_rejected_not_ignored() {
        // The transient kernel has no knobs: the former SIMD switch and any other
        // `kernel.*` key fail through the ordinary unknown-key error, in TOML and JSON.
        for key in ["simd", "simds", "vectorize"] {
            for value in ["true", "false"] {
                let toml_text = format!("kernel.{key} = {value}");
                let json = format!(r#"{{"kernel": {{"{key}": {value}}}}}"#);
                for err in [
                    RunConfig::from_toml(&toml_text).unwrap_err(),
                    RunConfig::from_json(&json).unwrap_err(),
                ] {
                    let err = err.to_string();
                    assert!(err.contains("unknown config key `kernel`"), "{err}");
                }
            }
        }
    }

    #[test]
    fn farm_knobs_parse_from_json_and_dotted_toml_and_resolve() {
        let json = r#"{
            "spawn_workers": 2,
            "farm": {"retry_budget": 3, "backoff_base_ms": 10, "heartbeat": false}
        }"#;
        let toml_text = "
            spawn_workers = 2
            farm.retry_budget = 3
            farm.backoff_base_ms = 10
            farm.heartbeat = false
        ";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
        let BackendChoice::Farm { tuning, .. } = a.resolve().unwrap().backend else {
            panic!("spawn_workers implies the farm backend");
        };
        assert_eq!(tuning.retry_budget, Some(3));
        assert_eq!(tuning.backoff_base_ms, 10);
        assert!(!tuning.heartbeat);
        // Unset knobs keep the broker defaults.
        assert_eq!(tuning.reconnect_attempts, 4);
        assert_eq!(tuning.backoff_cap_ms, 2_000);
        assert_eq!(tuning.heartbeat_timeout_ms, 5_000);
    }

    #[test]
    fn farm_backoff_seed_is_derived_from_the_run_seed() {
        let with_seed = |seed: u64| {
            let config = RunConfig {
                spawn_workers: Some(1),
                seed: Some(seed),
                ..Default::default()
            };
            let BackendChoice::Farm { tuning, .. } = config.resolve().unwrap().backend else {
                panic!("farm backend expected");
            };
            tuning.backoff_seed
        };
        assert_eq!(with_seed(7), with_seed(7), "deterministic per run seed");
        assert_ne!(with_seed(7), with_seed(8), "different runs re-jitter");
        assert_ne!(with_seed(7), 7, "the raw seed is never reused verbatim");
    }

    #[test]
    fn farm_knobs_outside_the_farm_backend_are_rejected() {
        let bad = |cfg: RunConfig| cfg.resolve().unwrap_err().to_string();
        let err = bad(RunConfig {
            farm: Some(FarmKnobs {
                retry_budget: Some(3),
                ..FarmKnobs::default()
            }),
            ..Default::default()
        });
        assert!(err.contains("farm backend only"), "{err}");
        let err = bad(RunConfig {
            spawn_workers: Some(2),
            farm: Some(FarmKnobs {
                retry_budget: Some(0),
                ..FarmKnobs::default()
            }),
            ..Default::default()
        });
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_farm_keys_are_rejected_not_ignored() {
        let err = RunConfig::from_toml("farm.retries = 3").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `farm.retries`"),
            "{err}"
        );
        assert!(err.to_string().contains("farm.retry_budget"), "{err}");
        let err = RunConfig::from_json(r#"{"farm": {"backoff": 50}}"#).unwrap_err();
        assert!(err.to_string().contains("`farm.backoff`"), "{err}");
    }

    #[test]
    fn observability_config_parses_from_json_and_dotted_toml() {
        let json = r#"{"observability": {
            "trace": "run.jsonl",
            "ledger": "runs.jsonl",
            "progress": true,
            "diff": {"wall_pct": 25.0}
        }}"#;
        let toml_text = "observability.trace = \"run.jsonl\"\n\
                         observability.ledger = \"runs.jsonl\"\n\
                         observability.progress = true\n\
                         observability.diff.wall_pct = 25.0";
        let a = RunConfig::from_json(json).unwrap();
        let b = RunConfig::from_toml(toml_text).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.observability,
            Some(ObservabilityKnobs {
                trace: Some("run.jsonl".to_string()),
                ledger: Some("runs.jsonl".to_string()),
                progress: Some(true),
                diff: Some(DiffKnobs {
                    wall_pct: Some(25.0),
                    ..DiffKnobs::default()
                }),
            })
        );
        let resolved = a.resolve().unwrap();
        assert_eq!(
            resolved.trace_path,
            Some(std::path::PathBuf::from("run.jsonl"))
        );
        assert_eq!(
            resolved.ledger_path,
            Some(std::path::PathBuf::from("runs.jsonl"))
        );
        assert!(resolved.progress);
        // Set thresholds stick; unset ones keep the defaults.
        let defaults = slic_obs::DiffThresholds::default();
        assert_eq!(resolved.diff.wall_pct, 25.0);
        assert_eq!(resolved.diff.counter_pct, defaults.counter_pct);
        assert_eq!(resolved.diff.hit_rate_drop_pct, defaults.hit_rate_drop_pct);
        // Absent section resolves to everything off and default thresholds.
        let bare = RunConfig::default().resolve().unwrap();
        assert!(bare.trace_path.is_none());
        assert!(bare.ledger_path.is_none());
        assert!(!bare.progress);
        assert_eq!(bare.diff, defaults);
        // And the section round-trips through JSON.
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), a);
    }

    #[test]
    fn unknown_observability_keys_are_rejected_not_ignored() {
        let err = RunConfig::from_toml("observability.traec = \"run.jsonl\"").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `observability.traec`"),
            "{err}"
        );
        assert!(err.to_string().contains("observability.trace"), "{err}");
        let err = RunConfig::from_json(r#"{"observability": {"metrics": true}}"#).unwrap_err();
        assert!(err.to_string().contains("`observability.metrics`"), "{err}");
        // The nested diff section is just as strict, one level further down.
        let err = RunConfig::from_toml("observability.diff.wall_percent = 10.0").unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown config key `observability.diff.wall_percent`"),
            "{err}"
        );
        assert!(
            err.to_string().contains("observability.diff.wall_pct"),
            "{err}"
        );
    }

    #[test]
    fn fingerprint_tracks_workload_identity_not_placement() {
        let base = || RunConfig {
            seed: Some(7),
            ..RunConfig::default()
        };
        let fingerprint = |config: RunConfig| config.resolve().unwrap().fingerprint();
        let reference = fingerprint(base());
        assert_eq!(reference.len(), 16);
        assert_eq!(reference, fingerprint(base()), "deterministic");

        // What is computed moves the fingerprint...
        assert_ne!(
            reference,
            fingerprint(RunConfig {
                seed: Some(8),
                ..base()
            })
        );
        assert_ne!(
            reference,
            fingerprint(RunConfig {
                cell_pattern: Some("NAND*".into()),
                ..base()
            })
        );
        assert_ne!(
            reference,
            fingerprint(RunConfig {
                variation: Some(VariationKnobs {
                    process_seeds: Some(8),
                    sigma_corners: None,
                }),
                ..base()
            })
        );

        // ...but where it executes does not: a farmed run of the same workload keeps
        // the local fingerprint, so `slic history` can diff across backends.
        assert_eq!(
            reference,
            fingerprint(RunConfig {
                spawn_workers: Some(2),
                ..base()
            })
        );
        assert_eq!(
            reference,
            fingerprint(RunConfig {
                cache: Some("cache.jsonl".into()),
                observability: Some(ObservabilityKnobs {
                    trace: Some("run.jsonl".into()),
                    ledger: Some("runs.jsonl".into()),
                    ..ObservabilityKnobs::default()
                }),
                ..base()
            })
        );
    }

    #[test]
    fn profile_budgets_are_ordered() {
        assert!(RunProfile::Quick.training_count() < RunProfile::Accurate.training_count());
        assert!(RunProfile::Quick.validation_points() < RunProfile::Accurate.validation_points());
        assert_eq!(RunProfile::from_name("QUICK"), Some(RunProfile::Quick));
        assert_eq!(
            RunProfile::from_name("accurate").unwrap().name(),
            "accurate"
        );
        assert!(RunProfile::from_name("warp").is_none());
    }

    /// `RunConfig::with_flags` over no file, from `(flag, text)` pairs.
    fn from_flags(pairs: &[(&str, &str)]) -> Result<RunConfig, PipelineError> {
        let flags = pairs
            .iter()
            .map(|(flag, text)| (flag.to_string(), text.to_string()))
            .collect();
        RunConfig::with_flags(None, &flags)
    }

    /// The dotted paths of the non-object values of `value`, in order.
    fn leaf_paths(value: &serde::Value, parent: &str, out: &mut Vec<String>) {
        for (name, sub) in value.as_object().unwrap() {
            let path = match parent {
                "" => name.clone(),
                _ => format!("{parent}.{name}"),
            };
            match sub {
                serde::Value::Object(_) => leaf_paths(sub, &path, out),
                _ => out.push(path),
            }
        }
    }

    #[test]
    fn key_table_matches_the_run_config_struct() {
        // Every field spelled out, with no `..Default::default()`: a new field does not
        // compile until it is added here, and then this test wants its table row.
        let full = RunConfig {
            library: Some("standard".into()),
            technology: Some("target_28nm".into()),
            historical: Some(vec!["n28_bulk".into()]),
            profile: Some("accurate".into()),
            cell_pattern: Some("NAND*".into()),
            drives: Some(vec!["X1".into()]),
            metrics: Some(vec!["delay".into()]),
            methods: Some(vec!["lse".into()]),
            training_count: Some(4),
            validation_points: Some(9),
            seed: Some(7),
            cache: Some("cache.jsonl".into()),
            backend: Some("farm".into()),
            workers: Some(vec!["a:1".into()]),
            spawn_workers: Some(2),
            variation: Some(VariationKnobs {
                process_seeds: Some(30),
                sigma_corners: Some(vec![1.0, 3.0]),
            }),
            farm: Some(FarmKnobs {
                retry_budget: Some(3),
                reconnect_attempts: Some(2),
                backoff_base_ms: Some(10),
                backoff_cap_ms: Some(100),
                heartbeat: Some(false),
                heartbeat_timeout_ms: Some(500),
            }),
            observability: Some(ObservabilityKnobs {
                trace: Some("run.jsonl".into()),
                ledger: Some("runs.jsonl".into()),
                progress: Some(true),
                diff: Some(DiffKnobs {
                    wall_pct: Some(25.0),
                    counter_pct: Some(5.0),
                    hit_rate_drop_pct: Some(2.0),
                }),
            }),
        };
        let mut struct_paths = Vec::new();
        leaf_paths(&full.to_value(), "", &mut struct_paths);
        let table_paths: Vec<&str> = KEYS
            .iter()
            .map(|key| key.path)
            .filter(|path| !is_section(path))
            .collect();
        assert_eq!(struct_paths, table_paths);
        // 29 leaf keys, one section switch (`--variation`), 24 flags in all.
        assert_eq!(table_paths.len(), 29);
        let sections: Vec<&str> = KEYS
            .iter()
            .map(|key| key.path)
            .filter(|path| is_section(path))
            .collect();
        assert_eq!(sections, ["variation"]);
        assert_eq!(KEYS.iter().filter(|key| key.flag.is_some()).count(), 24);
        let mut flags: Vec<&str> = KEYS.iter().filter_map(|key| key.flag).collect();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(flags.len(), 24, "no two keys share a flag");
        // The full config is a valid one: it round-trips through the key check.
        let text = serde_json::to_string(&full).unwrap();
        assert_eq!(RunConfig::from_json(&text).unwrap(), full);
    }

    #[test]
    fn every_flag_sets_the_same_config_as_its_toml_key() {
        for key in KEYS {
            let Some(flag) = key.flag else { continue };
            let (text, toml_value) = match key.kind {
                KeyKind::Str => ("x", "\"x\""),
                KeyKind::List => ("a, b,", "[\"a\", \"b\"]"),
                KeyKind::Int => ("7", "7"),
                KeyKind::Num => ("2.5", "2.5"),
                KeyKind::NumList => ("1,3.5", "[1, 3.5]"),
                KeyKind::Switch => ("true", "true"),
            };
            let from_flag = from_flags(&[(flag, text)]).unwrap();
            let from_file = if is_section(key.path) {
                RunConfig::from_json(&format!(r#"{{"{}": {{}}}}"#, key.path)).unwrap()
            } else {
                RunConfig::from_toml(&format!("{} = {toml_value}", key.path)).unwrap()
            };
            assert_eq!(from_flag, from_file, "--{flag} vs `{}`", key.path);
            assert_ne!(from_flag, RunConfig::default(), "--{flag} sets nothing");
        }
    }

    #[test]
    fn flags_set_their_keys_over_the_config_file() {
        let path =
            std::env::temp_dir().join(format!("slic-config-flags-{}.toml", std::process::id()));
        std::fs::write(
            &path,
            "seed = 3\nlibrary = \"standard\"\nvariation.process_seeds = 30\n",
        )
        .unwrap();
        let flags = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
            pairs
                .iter()
                .map(|(flag, text)| (flag.to_string(), text.to_string()))
                .collect()
        };
        let config =
            RunConfig::with_flags(Some(&path), &flags(&[("seed", "7"), ("variation", "true")]))
                .unwrap();
        assert_eq!(config.seed, Some(7), "the flag wins");
        assert_eq!(
            config.library.as_deref(),
            Some("standard"),
            "the file stays"
        );
        assert_eq!(
            config.variation.as_ref().unwrap().process_seeds,
            Some(30),
            "--variation keeps the file's variation section"
        );
        let config =
            RunConfig::with_flags(Some(&path), &flags(&[("variation-sigma", "2")])).unwrap();
        assert_eq!(
            config.variation,
            Some(VariationKnobs {
                process_seeds: Some(30),
                sigma_corners: Some(vec![2.0]),
            })
        );
        // Names that are no key's flag (the CLI's own `out`, `shard`, ...) are ignored.
        let config = RunConfig::with_flags(Some(&path), &flags(&[("out", "run.json")])).unwrap();
        assert_eq!(config, RunConfig::load(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        // A flag never papers over a file's shape error.
        let err = RunConfig::from_json(r#"{"variation": 5}"#).unwrap_err();
        let json =
            std::env::temp_dir().join(format!("slic-config-flags-{}.json", std::process::id()));
        std::fs::write(&json, r#"{"variation": 5}"#).unwrap();
        let overlaid = RunConfig::with_flags(Some(&json), &flags(&[("variation-seeds", "4")]));
        std::fs::remove_file(&json).unwrap();
        assert_eq!(overlaid.unwrap_err().to_string(), err.to_string());
    }

    #[test]
    fn malformed_flag_values_keep_their_messages() {
        let message = |pairs: &[(&str, &str)]| from_flags(pairs).unwrap_err().to_string();
        assert_eq!(
            message(&[("seed", "x")]),
            "configuration error: `--seed x` is not an integer"
        );
        assert_eq!(
            message(&[("spawn-workers", "-1")]),
            "configuration error: `--spawn-workers -1` is not an integer"
        );
        assert_eq!(
            message(&[("wall-pct", "x")]),
            "configuration error: `--wall-pct x` is not a number"
        );
        assert_eq!(
            message(&[("variation-sigma", "1,a")]),
            "configuration error: `--variation-sigma 1,a`: `a` is not a number"
        );
    }

    #[test]
    fn unknown_key_messages_list_their_section_in_table_order() {
        let message = |text: &str| RunConfig::from_toml(text).unwrap_err().to_string();
        assert_eq!(
            message("cach = 1"),
            "configuration error: unknown config key `cach` (expected one of: library, \
             technology, historical, profile, cell_pattern, drives, metrics, methods, \
             training_count, validation_points, seed, cache, backend, workers, \
             spawn_workers, variation, farm, observability)"
        );
        assert_eq!(
            message("variation.seeds = 1"),
            "configuration error: unknown config key `variation.seeds` (expected one of: \
             variation.process_seeds, variation.sigma_corners)"
        );
        assert_eq!(
            message("farm.retries = 1"),
            "configuration error: unknown config key `farm.retries` (expected one of: \
             farm.retry_budget, farm.reconnect_attempts, farm.backoff_base_ms, \
             farm.backoff_cap_ms, farm.heartbeat, farm.heartbeat_timeout_ms)"
        );
        assert_eq!(
            message("observability.traec = \"x\""),
            "configuration error: unknown config key `observability.traec` (expected one \
             of: observability.trace, observability.ledger, observability.progress, \
             observability.diff)"
        );
        assert_eq!(
            message("observability.diff.wall_percent = 1.0"),
            "configuration error: unknown config key `observability.diff.wall_percent` \
             (expected one of: observability.diff.wall_pct, observability.diff.counter_pct, \
             observability.diff.hit_rate_drop_pct)"
        );
    }

    #[test]
    fn integers_from_2_pow_53_are_rejected_not_rounded() {
        let too_large = "9007199254740993"; // 2^53 + 1, which f64 rounds to 2^53.
        let err = RunConfig::from_toml(&format!("seed = {too_large}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("config key `seed` is too large"), "{err}");
        assert!(err.contains("2^53"), "{err}");
        let err = RunConfig::from_json(r#"{"farm": {"backoff_cap_ms": 9007199254740992}}"#)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("config key `farm.backoff_cap_ms` is too large"),
            "{err}"
        );
        let err = from_flags(&[("seed", too_large)]).unwrap_err().to_string();
        assert!(
            err.contains(&format!("`--seed {too_large}` is too large")),
            "{err}"
        );
        // 2^53 − 1 is the largest integer a config holds exactly, on both paths.
        let largest = (1u64 << 53) - 1;
        let from_file = RunConfig::from_toml(&format!("seed = {largest}")).unwrap();
        let from_flag = from_flags(&[("seed", &largest.to_string())]).unwrap();
        assert_eq!(from_file.seed, Some(largest));
        assert_eq!(from_flag.seed, Some(largest));
        // Number keys are not integers and keep their full range.
        assert!(RunConfig::from_toml("observability.diff.wall_pct = 1e300").is_ok());
    }

    #[test]
    fn fingerprints_are_pinned() {
        let fingerprint = |config: RunConfig| config.resolve().unwrap().fingerprint();
        assert_eq!(fingerprint(RunConfig::default()), "17c4d57e20eb0a38");
        let seeded = RunConfig {
            seed: Some(7),
            ..RunConfig::default()
        };
        assert_eq!(fingerprint(seeded), "1ffd94f7e40a4172");
    }

    #[test]
    fn every_key_is_documented_in_the_quick_config() {
        let quick = include_str!("../../../configs/quick.toml");
        for key in KEYS {
            let spelled = if is_section(key.path) {
                format!("{}.", key.path)
            } else {
                format!("{} =", key.path)
            };
            assert!(
                quick.contains(&spelled),
                "configs/quick.toml lacks `{spelled}`"
            );
        }
    }
}
