//! Shared scaffolding for the experiment-regeneration benches.
//!
//! Every table and figure of the paper has a bench target in `benches/`; each target first
//! *regenerates the experiment data* and prints it to stdout as Markdown tables, then lets
//! Criterion time one representative kernel of that experiment.  The stdout tables are
//! the regenerated results; nothing records or gates them yet.  The experiment sizes here are reduced relative to the paper (the paper's
//! baselines are 1000-point × 1000-seed HSPICE campaigns); the *shape* of every comparison —
//! who wins, by roughly what factor, where the crossovers sit — is what the harness
//! reproduces.

pub mod emit;

use slic::historical::{HistoricalLearner, HistoricalLearningConfig};
use slic::prelude::*;

/// Criterion settings shared by every bench target: small sample counts so that the full
/// `cargo bench --workspace` run stays in the minutes range.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

/// Historical-learning configuration used by the benches (coarser than the paper's grids but
/// enough for stable priors).
pub fn bench_learning_config() -> HistoricalLearningConfig {
    HistoricalLearningConfig {
        grid_levels: (3, 3, 2),
        transient: TransientConfig::fast(),
    }
}

/// Learns a historical database from a subset of the suite sized for bench runtime.
pub fn bench_historical_db(technologies: &[TechnologyNode]) -> HistoricalDatabase {
    HistoricalLearner::new(bench_learning_config())
        .learn(technologies, &Library::paper_trio())
        .database
}

/// The two newest historical nodes — enough prior information for the 14-nm experiments.
pub fn finfet_history() -> Vec<TechnologyNode> {
    vec![TechnologyNode::n16_finfet(), TechnologyNode::n14_finfet()]
}

/// The planar nodes used as history for the 28-nm statistical experiments.
pub fn planar_history() -> Vec<TechnologyNode> {
    vec![
        TechnologyNode::n28_bulk(),
        TechnologyNode::n32_soi(),
        TechnologyNode::n20_bulk(),
    ]
}

/// Prints a banner identifying which paper artefact a bench regenerates.
pub fn banner(experiment: &str, description: &str) {
    println!("\n==================================================================");
    println!("  {experiment}");
    println!("  {description}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_history_helpers_produce_usable_databases() {
        let db = bench_historical_db(&finfet_history());
        assert!(!db.is_empty());
        assert_eq!(db.technology_names().len(), 2);
    }

    #[test]
    fn criterion_config_is_constructible() {
        let _ = criterion_config();
        assert_eq!(finfet_history().len(), 2);
        assert_eq!(planar_history().len(), 3);
    }
}
