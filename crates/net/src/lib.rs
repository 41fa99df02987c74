//! # skippub-net
//!
//! A threaded actor runtime for the `skippub` protocols: every node runs
//! on its own OS thread, messages travel through a "wire" thread that
//! applies seeded random delays (hence reordering — the paper's non-FIFO
//! channels), and crashes are abrupt thread terminations whose pending
//! messages evaporate (§3.3 semantics).
//!
//! The protocol logic is **exactly** the state machines of
//! [`skippub_core`] — the same `Actor` type the deterministic simulator
//! drives — so concurrent executions cannot diverge semantically from
//! simulated ones. The runtime exists to demonstrate (and stress) the
//! protocol under true asynchrony: the paper's model places no bound on
//! relative execution speeds, and neither does this runtime.
//!
//! ```no_run
//! use skippub_core::{PubSub, TopicId};
//! use skippub_net::{NetBackend, NetConfig};
//!
//! let mut net = NetBackend::start(NetConfig::default());
//! let a = net.subscribe(TopicId(0));
//! let _b = net.subscribe(TopicId(0));
//! // Step budgets are polls of the 10 ms slice: 1 000 polls ≈ 10 s.
//! assert!(net.until_legit(1_000).1);
//! net.publish(a, TopicId(0), b"hello".to_vec());
//! assert!(net.until_pubs_converged(1_000).1);
//! net.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runtime;
mod wire;

pub use runtime::{NetBackend, NetConfig, SUPERVISOR};
