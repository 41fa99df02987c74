//! # skippub-harness
//!
//! Workload drivers: the declarative [`scenario`] engine plus the
//! E-series [`experiments`] reproducing **every figure and every
//! quantitative claim** of the paper (`docs/paper_map.md` maps each
//! paper artefact to its implementation and its checking experiment).
//!
//! * [`scenario`] — `ScenarioSpec` → deterministic compiled schedule →
//!   execution on **any** `PubSub` backend, with trace record/replay
//!   and a built-in workload library (see `docs/scenarios.md`). Run via
//!   the `scenarios` binary.
//! * [`experiments`] — each experiment builds its workload (the
//!   churn/convergence ones as thin scenario-spec wrappers), runs the
//!   protocol, and emits a table whose verdicts assert the paper's
//!   claims. Run via the `experiments` binary.
//! * [`json`] — the one JSON value and writer behind the scenario and
//!   oracle reports and the `BENCH_*.json` artifacts.
//!
//! ```text
//! cargo run -p skippub-harness --release --bin scenarios -- all
//! cargo run -p skippub-harness --release --bin experiments -- all
//! cargo run -p skippub-harness --release --bin experiments -- convergence --scale full --seed 7
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod scenario;
mod table;

pub use table::Table;

/// Experiment scale: `Small` keeps every experiment under ~a second (used
/// by tests); `Full` runs larger sweeps and prints their tables to
/// stdout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sweeps for CI/tests.
    Small,
    /// The larger sweeps (tables on stdout only).
    Full,
}

impl Scale {
    /// Picks `small` or `full` depending on scale.
    pub fn pick<T: Copy>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// One experiment's rendered result.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment ID (e.g. "E4").
    pub id: &'static str,
    /// Paper artefact reproduced (e.g. "Theorem 5").
    pub artefact: &'static str,
    /// One-line claim under test.
    pub claim: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Pass/fail verdicts ("shape" checks, not exact-number checks).
    pub verdicts: Vec<(String, bool)>,
}

impl Report {
    /// Whether every verdict holds.
    pub fn ok(&self) -> bool {
        self.verdicts.iter().all(|(_, ok)| *ok)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "━━━ {} — {} ━━━", self.id, self.artefact)?;
        writeln!(f, "claim: {}", self.claim)?;
        for t in &self.tables {
            writeln!(f, "\n{t}")?;
        }
        for (v, ok) in &self.verdicts {
            writeln!(f, "[{}] {v}", if *ok { "PASS" } else { "FAIL" })?;
        }
        Ok(())
    }
}
