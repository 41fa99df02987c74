//! # skippub-core
//!
//! The paper's contribution, in full: a **self-stabilizing supervised skip
//! ring** (`BuildSR`) and, on top of it, a **self-stabilizing topic-based
//! publish-subscribe system** (Feldmann, Kolb, Scheideler, Strothmann:
//! *Self-Stabilizing Supervised Publish-Subscribe Systems*).
//!
//! ## Architecture
//!
//! * [`Subscriber`] — the per-node state machine: `BuildList`
//!   linearization (Algorithm 1), extended `BuildRing` with corrupted-label
//!   repair (Algorithm 2, §2.2), the subscriber half of `BuildSR`
//!   (Algorithm 4: configurations, probabilistic supervisor probes,
//!   shortcut maintenance per §3.2.2) and the publication layer
//!   (Algorithm 5 anti-entropy + §4.3 flooding).
//! * [`Supervisor`] — the supervisor half of `BuildSR` (Algorithm 3):
//!   label database with local self-repair (`CheckLabels`), round-robin
//!   configuration dissemination, constant-message subscribe/unsubscribe,
//!   and the single failure detector of §3.3.
//! * [`Actor`] — supervisor-or-subscriber, pluggable into
//!   [`skippub_sim::World`] (and driven identically by the threaded
//!   runtime in `skippub-net`).
//! * [`checker`] — executable legitimate-state predicates (Definition 1):
//!   convergence/closure are verified from *global snapshots*, never by
//!   the protocol itself.
//! * [`scenarios`] — legitimate / cold / adversarial world builders.
//! * [`replica`] — the replicated supervisor: a self-stabilizing
//!   replicated op log with deterministic primary election, lifting the
//!   paper's "supervisor never crashes" assumption (`ReplicaGroup`).
//! * [`pubsub`] — the backend-agnostic [`PubSub`] facade +
//!   [`SystemBuilder`]: one client API over the single-topic simulator
//!   (synchronous or chaos-scheduled), the multi-topic system, and the
//!   sharded-supervisor system (the threaded backend lives in
//!   `skippub-net`). The single-topic simulator *is* its backend,
//!   [`pubsub::SimBackend`]: it owns the world, and
//!   `SimBackend::from_world` wraps a [`scenarios`] world for
//!   experiments and white-box tests.
//! * [`topics`] — the multi-topic system of §4 (one `BuildSR` per topic).
//! * [`sharding`] — consistent-hashing of topics onto multiple
//!   supervisors (§1.3 scaling remark).
//!
//! ## Entry point
//!
//! ```
//! use skippub_core::{PubSub, SystemBuilder, TopicId};
//!
//! let mut ps = SystemBuilder::new(7).build_sim();
//! let alice = ps.subscribe(TopicId(0));
//! let bob = ps.subscribe(TopicId(0));
//! let (_, ok) = ps.until_legit(200);
//! assert!(ok);
//! ps.publish(alice, TopicId(0), b"hello".to_vec()).unwrap();
//! let (_, ok) = ps.until_pubs_converged(50);
//! assert!(ok);
//! assert_eq!(ps.drain_events(bob).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod checker;
mod config;
mod dirty;
mod msg;
mod publish;
pub mod pubsub;
pub mod replica;
pub mod scenarios;
pub mod sharding;
mod snap;
mod subscriber;
mod supervisor;
#[cfg(test)]
mod token_tests;
pub mod topics;

pub use actor::Actor;
pub use config::{ProbeMode, ProtocolConfig};
pub use msg::{Msg, NodeRef};
pub use pubsub::{BackendKind, Delivery, PartitionStats, PubSub, Stats, SystemBuilder};
pub use replica::{RepOp, RepOpKind, ReplicaGroup, ReplicaLog, SupervisorReplica};
pub use subscriber::{Counters, Subscriber};
pub use supervisor::{Supervisor, SupervisorCounters};
pub use topics::TopicId;
