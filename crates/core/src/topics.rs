//! Multi-topic publish-subscribe (§4): one `BuildSR` instance per topic.
//!
//! "To construct a publish-subscribe system out of our self-stabilizing
//! supervised overlay network, we basically run a BuildSR protocol for
//! each topic t ∈ T at the supervisor. … By assigning the topic number to
//! each message that is sent out, we can identify the appropriate protocol
//! at the receiver."
//!
//! Here the topic number rides in the address instead of the message:
//! topic `t`'s instance at process `p` is its own engine node at lane `t`
//! of `p` ([`TopicId::at`]), a plain [`crate::Actor`]. Topic 0's
//! instances are the plain process ids, so a single-topic world is a
//! world of topic-0 instances.
//!
//! The supervisor's per-timeout work is therefore **linear in the number
//! of topics but independent of the number of subscribers** (experiment
//! E13 measures exactly this): the supervisor process runs one instance
//! per topic, each with one timeout.

use skippub_sim::NodeId;

/// Topic identifier (`t ∈ T ⊂ N`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TopicId(pub u32);

/// Topics one system can serve: one address lane per topic.
pub const MAX_TOPICS: u32 = NodeId::LANES;

impl TopicId {
    /// The address of this topic's instance at `process`.
    #[inline]
    pub fn at(self, process: NodeId) -> NodeId {
        process.with_lane(self.0)
    }

    /// The topic whose instance runs at address `addr`.
    #[inline]
    pub fn of(addr: NodeId) -> TopicId {
        TopicId(addr.lane())
    }
}
