//! The experiment registry. Each experiment's ID (E1–E15) is the one
//! `docs/paper_map.md` maps to its paper artefact (DESIGN.md §5.3).

pub mod ablation;
pub mod churn;
pub mod closure;
pub mod congestion;
pub mod convergence;
pub mod db_repair;
pub mod degree;
pub mod fig1;
pub mod fig2;
pub mod flooding;
pub mod op_overhead;
pub mod probe_rate;
pub mod pub_convergence;
pub mod token;
pub mod topics;

use crate::{Report, Scale};

/// An experiment entry point.
pub type Runner = fn(Scale, u64) -> Report;

/// All experiments: `(cli name, runner)`.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig1", fig1::run as Runner),
        ("fig2", fig2::run),
        ("degree", degree::run),
        ("probe", probe_rate::run),
        ("ops", op_overhead::run),
        ("convergence", convergence::run),
        ("dbrepair", db_repair::run),
        ("pubconv", pub_convergence::run),
        ("flooding", flooding::run),
        ("congestion", congestion::run),
        ("churn", churn::run),
        ("closure", closure::run),
        ("topics", topics::run),
        ("ablation", ablation::run),
        ("token", token::run),
    ]
}

/// Runs one experiment by name.
pub fn run_one(name: &str, scale: Scale, seed: u64) -> Option<Report> {
    registry()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_passes_at_small_scale() {
        for (name, f) in registry() {
            let report = f(Scale::Small, 42);
            assert!(
                report.ok(),
                "experiment {name} failed: {:?}",
                report
                    .verdicts
                    .iter()
                    .filter(|(_, ok)| !ok)
                    .collect::<Vec<_>>()
            );
            assert!(!report.tables.is_empty(), "{name} produced no tables");
        }
    }

    #[test]
    fn run_one_finds_experiments() {
        assert!(run_one("fig1", Scale::Small, 1).is_some());
        assert!(run_one("nope", Scale::Small, 1).is_none());
    }
}
