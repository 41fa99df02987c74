//! # skippub-bench
//!
//! The `bench` runner.
//!
//! **`bench`** (`cargo run --release -p skippub-bench --bin bench --
//! <scale|parallel|faults|snapshot> [--smoke] [--out FILE]`) runs one
//! of four suites and writes its `BENCH_<suite>.json`. A suite is a
//! plain `fn run(smoke: bool) -> Json` — [`scale`], [`parallel`],
//! [`faults`], [`snapshot`] — whose sizes are constants and whose
//! claims are asserted in-run before anything is written. They share
//! one argument parser ([`args`]), the harness's JSON value and writer
//! ([`skippub_harness::json`]), one artifact stamp with its heap meter
//! ([`stamp`]) and one splitmix/Zipf stream ([`zipf`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod faults;
pub mod parallel;
pub mod scale;
pub mod snapshot;
pub mod stamp;
pub mod zipf;

/// A legitimate `n`-subscriber single-topic backend, built directly: the
/// suites measure steady state, faults and checkpoints, not bootstrap.
pub fn legit_backend(n: usize, seed: u64) -> skippub_core::pubsub::PartitionedBackend {
    let cfg = skippub_core::ProtocolConfig::default();
    let world = skippub_core::scenarios::legit_world(n, seed, cfg);
    skippub_core::pubsub::PartitionedBackend::from_world(world, cfg)
}
