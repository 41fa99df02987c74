//! # skippub-sim
//!
//! A deterministic, seeded simulator for the paper's system model (§1.1):
//!
//! * every node has a **channel** holding an arbitrary finite number of
//!   in-flight messages;
//! * delivery is **reliable but unordered** (non-FIFO) with unbounded
//!   finite delay — modelled by random-order draining plus, in chaos mode,
//!   random per-message holding with a forced-delivery age bound (fair
//!   message receipt);
//! * every node has a periodic `Timeout` action executed **weakly fairly**;
//! * channels may start with **corrupted messages** and node variables may
//!   start with arbitrary values — adversarial initial states are inputs,
//!   not accidents;
//! * nodes may **crash without warning**: messages to a crashed node are
//!   consumed without invoking any action (§3.3).
//!
//! One type, [`World`], runs the model: one partition on the raw seed
//! ([`World::new`]), or several stepped in parallel with bit-identical
//! results for every worker count ([`World::partitioned`]).
//!
//! Protocols implement [`Protocol`] as pure state machines. The chaos
//! scheduler ([`ChaosConfig`]) is the model's asynchrony: random delivery
//! and `Timeout` order, replayable from the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod faults;
mod fx;
mod metrics;
mod partitioned;
mod pool;
pub mod testing;

pub use engine::{ChaosConfig, Ctx, DirtyTable, NodeId, Protocol};
pub use faults::{FaultCounts, FaultRule, FaultSpec, LinkClass, Sever};
pub use metrics::{Metrics, MAX_KINDS};
pub use partitioned::World;
