//! Machine-readable bench artifacts (`BENCH_*.json`).
//!
//! The transient-kernel bench records its measurements as a JSON artifact so the speedup
//! is a committed, regression-gated number rather than a claim in a commit message: CI
//! re-runs the bench in reduced mode and fails if throughput or accuracy regresses against
//! the committed `BENCH_transient.json` (see the "Performance" section of the README for
//! the schema).
//!
//! The JSON is emitted by hand rather than through serde so the artifact layout is stable
//! and diff-friendly regardless of the serde stand-in's value model.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Measurements of one kernel variant at one configuration preset.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantReport {
    /// Kernel variant: `rk4_scalar`, `embedded_scalar`, `simd_scalar` or `simd_batch`.
    pub name: String,
    /// Configuration preset: `fast` or `accurate`.
    pub config: String,
    /// Transient simulations completed per wall-clock second (single thread).
    pub sims_per_sec: f64,
    /// Mean accepted integration steps per simulation.
    pub steps_per_sim: f64,
    /// Mean rejected step attempts per simulation (zero for RK4, which has no error
    /// control).
    pub rejected_steps_per_sim: f64,
    /// Mean transistor-model evaluations per simulation.
    pub device_evals_per_sim: f64,
    /// Worst relative delay error against the golden reference (seed RK4, accurate
    /// preset), in percent.
    pub max_delay_err_vs_golden_pct: f64,
    /// Worst relative output-slew error against the golden reference, in percent.
    pub max_slew_err_vs_golden_pct: f64,
}

/// One named speedup ratio derived from the variant table.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Ratio name, e.g. `simd_batch_vs_embedded_scalar_fast`.
    pub name: String,
    /// Throughput ratio (dimensionless, > 1 means faster).
    pub ratio: f64,
}

/// The complete transient-kernel bench artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientBenchReport {
    /// Whether the bench ran in CI's reduced smoke mode.
    pub reduced: bool,
    /// Cell whose arc was simulated.
    pub cell: String,
    /// Arc transition direction.
    pub arc: String,
    /// Technology node name.
    pub tech: String,
    /// Input points in the Monte Carlo sweep.
    pub points: usize,
    /// Process seeds per input point.
    pub seeds: usize,
    /// Per-variant measurements.
    pub variants: Vec<VariantReport>,
    /// Derived throughput ratios.
    pub speedups: Vec<SpeedupReport>,
}

/// Formats a float so it parses as a JSON number (finite; six significant decimals).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "0.0".to_string()
    }
}

impl TransientBenchReport {
    /// The variant entry for `(name, config)`, if measured.
    pub fn variant(&self, name: &str, config: &str) -> Option<&VariantReport> {
        self.variants
            .iter()
            .find(|v| v.name == name && v.config == config)
    }

    /// The named speedup ratio, if derived.
    pub fn speedup(&self, name: &str) -> Option<f64> {
        self.speedups
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.ratio)
    }

    /// Renders the artifact as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"slic-bench/transient-kernel/v1\",\n");
        let _ = writeln!(out, "  \"reduced\": {},", self.reduced);
        let _ = writeln!(out, "  \"workload\": {{");
        let _ = writeln!(out, "    \"cell\": \"{}\",", self.cell);
        let _ = writeln!(out, "    \"arc\": \"{}\",", self.arc);
        let _ = writeln!(out, "    \"tech\": \"{}\",", self.tech);
        let _ = writeln!(out, "    \"points\": {},", self.points);
        let _ = writeln!(out, "    \"seeds\": {},", self.seeds);
        let _ = writeln!(
            out,
            "    \"sims_per_variant\": {}",
            self.points * self.seeds
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"variants\": [");
        for (i, v) in self.variants.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", v.name);
            let _ = writeln!(out, "      \"config\": \"{}\",", v.config);
            let _ = writeln!(
                out,
                "      \"sims_per_sec\": {},",
                json_number(v.sims_per_sec)
            );
            let _ = writeln!(
                out,
                "      \"steps_per_sim\": {},",
                json_number(v.steps_per_sim)
            );
            let _ = writeln!(
                out,
                "      \"rejected_steps_per_sim\": {},",
                json_number(v.rejected_steps_per_sim)
            );
            let _ = writeln!(
                out,
                "      \"device_evals_per_sim\": {},",
                json_number(v.device_evals_per_sim)
            );
            let _ = writeln!(
                out,
                "      \"max_delay_err_vs_golden_pct\": {},",
                json_number(v.max_delay_err_vs_golden_pct)
            );
            let _ = writeln!(
                out,
                "      \"max_slew_err_vs_golden_pct\": {}",
                json_number(v.max_slew_err_vs_golden_pct)
            );
            let comma = if i + 1 < self.variants.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"speedups\": {{");
        for (i, s) in self.speedups.iter().enumerate() {
            let comma = if i + 1 < self.speedups.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {}{comma}", s.name, json_number(s.ratio));
        }
        let _ = writeln!(out, "  }}");
        out.push_str("}\n");
        out
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TransientBenchReport {
        TransientBenchReport {
            reduced: true,
            cell: "NAND2_X1".to_string(),
            arc: "fall".to_string(),
            tech: "n28_bulk".to_string(),
            points: 2,
            seeds: 8,
            variants: vec![VariantReport {
                name: "rk4_scalar".to_string(),
                config: "fast".to_string(),
                sims_per_sec: 1234.5,
                steps_per_sim: 190.25,
                rejected_steps_per_sim: 0.0,
                device_evals_per_sim: 1522.0,
                max_delay_err_vs_golden_pct: 0.9,
                max_slew_err_vs_golden_pct: 0.1,
            }],
            speedups: vec![SpeedupReport {
                name: "embedded_batch_vs_rk4_scalar_fast".to_string(),
                ratio: 5.5,
            }],
        }
    }

    #[test]
    fn artifact_is_valid_json() {
        let json = sample_report().to_json();
        let value: serde::Value = serde_json::from_str(&json).expect("artifact must parse");
        let serde::Value::Object(map) = value else {
            panic!("artifact must be a JSON object");
        };
        assert!(map.iter().any(|(k, _)| k == "schema"));
        assert!(map.iter().any(|(k, _)| k == "variants"));
        assert!(map.iter().any(|(k, _)| k == "speedups"));
    }

    #[test]
    fn lookup_helpers_find_entries() {
        let report = sample_report();
        assert!(report.variant("rk4_scalar", "fast").is_some());
        assert!(report.variant("rk4_scalar", "accurate").is_none());
        assert_eq!(
            report.speedup("embedded_batch_vs_rk4_scalar_fast"),
            Some(5.5)
        );
        assert_eq!(report.speedup("missing"), None);
    }

    #[test]
    fn non_finite_numbers_are_sanitized() {
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(f64::INFINITY), "0.0");
        assert_eq!(json_number(2.5), "2.500000");
    }

    #[test]
    fn write_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("slic_bench_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_transient.json");
        let report = sample_report();
        report.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, report.to_json());
        std::fs::remove_file(&path).ok();
    }
}
