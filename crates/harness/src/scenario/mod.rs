//! The scenario engine: declarative workloads over the [`PubSub`]
//! facade.
//!
//! The ROADMAP's north star asks for "as many scenarios as you can
//! imagine" across backends; related systems (PSVR, VCube-PS) evaluate
//! under churn processes, skewed topic popularity, and adversarial
//! starts. This module makes those workload shapes *declarative*: a
//! [`ScenarioSpec`] describes population, arrival/departure churn,
//! topic popularity (uniform or Zipf), per-publisher publish rate,
//! crash storms with failure-detector patterns, adversarial initial
//! publication placement, and a stop condition — and is compiled
//! ([`schedule::compile`]) into a deterministic, seeded event schedule
//! executed ([`run_spec`] / [`run_on`]) against **any** backend behind
//! the facade.
//!
//! Because the compiled schedule references clients by spawn-order slot
//! (IDs are assigned identically on every backend), one spec produces
//! **identical delivered publication sets** on the sim, chaos,
//! multi-topic, and sharded backends — asserted by
//! `tests/facade_conformance.rs` and by the `scenarios` CLI's
//! `--backend all` sweep.
//!
//! Every applied op can be recorded to a replayable [`Trace`]
//! ([`run_recorded`]): replaying reproduces the run and its JSON
//! [`ScenarioReport`] byte for byte on the deterministic backends — the
//! repro contract for failures found under scenario workloads.
//!
//! ```
//! use skippub_harness::scenario::{self, BackendKind, Stop, ScenarioSpec};
//!
//! // A tiny crash-recovery workload, same spec on two backends:
//! let spec = ScenarioSpec::new("mini", 9)
//!     .population(6)
//!     .publishers(2)
//!     .publish_prob(0.5)
//!     .rounds(6)
//!     .stop(Stop::UntilLegit { max_extra: 2_000 });
//! let sim = scenario::run_spec(&spec, BackendKind::Sim).unwrap();
//! let sharded = scenario::run_spec(&spec, BackendKind::Sharded).unwrap();
//! assert!(sim.report.ok() && sharded.report.ok());
//! assert_eq!(
//!     sim.report.delivered_fingerprint,
//!     sharded.report.delivered_fingerprint,
//! );
//! ```
//!
//! [`PubSub`]: skippub_core::PubSub

pub mod engine;
pub mod library;
pub mod oracle;
pub mod report;
pub mod schedule;
pub mod spec;
pub mod trace;

pub use engine::{
    budget_multiplier, builder_for, resume_spec, run_on, run_recorded, run_spec,
    run_spec_with_snapshot, run_threaded, DeliveredItem, DeliveredSet, ScenarioOutcome, WarmStart,
};
pub use library::{builtin, builtins};
pub use oracle::{run_oracle, Oracle, OracleReport};
pub use report::{OpCounts, ScenarioReport, TopicReport};
pub use schedule::{compile, Fate, PlannedOp, Schedule, SlotPlan};
pub use spec::{Burst, BurstKind, Popularity, ScenarioSpec, Stop};
pub use trace::{Trace, TraceLine};

// Backend selection is part of the scenario vocabulary; re-export it so
// scenario scripts need only this module.
pub use skippub_core::BackendKind;

// So are fault schedules (the `.faults(...)` setter's vocabulary).
pub use skippub_sim::{FaultCounts, FaultRule, FaultSpec, LinkClass, Sever};
