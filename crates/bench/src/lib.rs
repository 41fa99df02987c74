//! # skippub-bench
//!
//! The `bench` runner and the criterion benchmarks.
//!
//! **`bench`** (`cargo run --release -p skippub-bench --bin bench --
//! <scale|parallel|faults|snapshot> [--smoke] [--out FILE]`) runs one
//! of four suites and writes its `BENCH_<suite>.json`. A suite is a
//! plain `fn run(smoke: bool) -> Json` — [`scale`], [`parallel`],
//! [`faults`], [`snapshot`] — whose sizes are constants and whose
//! claims are asserted in-run before anything is written. They share
//! one argument parser ([`args`]), one JSON value and writer
//! ([`json`]), one artifact stamp with its heap meter ([`stamp`]) and
//! one splitmix/Zipf stream ([`zipf`]).
//!
//! **Criterion targets** measure the *cost* of each reproduced artefact
//! at a fixed scale; the experiment harness (`skippub-harness`)
//! regenerates the artefacts' *values*.
//!
//! * `substrates` — label algebra, bit strings, hashing, Patricia-trie
//!   operations, simulator round throughput.
//! * `figures` — Figure 1 (SR(16) protocol construction) and Figure 2
//!   (two-trie reconciliation).
//! * `tables` — one bench per quantitative-claim experiment (E4–E12) at a
//!   representative n.
//! * `baselines` — Chord routing, skip-graph search, broadcast load
//!   computation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod faults;
pub mod json;
pub mod parallel;
pub mod scale;
pub mod snapshot;
pub mod stamp;
pub mod zipf;

/// A legitimate `n`-subscriber single-topic backend, built directly: the
/// suites measure steady state, faults and checkpoints, not bootstrap.
pub fn legit_backend(n: usize, seed: u64) -> skippub_core::pubsub::SimBackend {
    let cfg = skippub_core::ProtocolConfig::default();
    let world = skippub_core::scenarios::legit_world(n, seed, cfg);
    skippub_core::pubsub::SimBackend::from_world(world, cfg)
}

/// Shared fixed scales so bench names stay comparable across runs.
pub mod scales {
    /// Default ring size used by table benches.
    pub const N: usize = 64;
    /// Publication count for anti-entropy benches.
    pub const PUBS: usize = 64;
}
