//! # skippub-bench
//!
//! Criterion benchmarks, one group per reproduced figure/table plus
//! substrate micro-benches. The benches measure the *cost* of each
//! reproduced artefact at a fixed scale; the experiment harness
//! (`skippub-harness`) regenerates the artefacts' *values*.
//!
//! Targets:
//!
//! * `substrates` — label algebra, bit strings, hashing, Patricia-trie
//!   operations, simulator round throughput.
//! * `figures` — Figure 1 (SR(16) protocol construction) and Figure 2
//!   (two-trie reconciliation).
//! * `tables` — one bench per quantitative-claim experiment (E4–E12) at a
//!   representative n.
//! * `baselines` — Chord routing, skip-graph search, broadcast load
//!   computation.
//! * `facade` — the `PubSub` facade layer vs direct `SkipRingSim`
//!   driving over the identical full-protocol world ([`facade`]); the
//!   `bench_facade_json` binary writes `BENCH_facade.json`.
//! * `sim_engine` — the simulation-engine perf trajectory: the live
//!   slab engine vs the preserved legacy `BTreeMap` engine
//!   ([`legacy`]) over the [`workloads`] traffic shapes, at 1k and
//!   10k nodes. The `bench_sim_json` binary re-times the same
//!   workloads and writes `BENCH_sim.json` so every perf PR records a
//!   trajectory point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facade;
pub mod legacy;
pub mod workloads;

/// Shared fixed scales so bench names stay comparable across runs.
pub mod scales {
    /// Default ring size used by table benches.
    pub const N: usize = 64;
    /// Publication count for anti-entropy benches.
    pub const PUBS: usize = 64;
}
