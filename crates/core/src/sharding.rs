//! Consistent-hashing supervisor shards (§1.3 scaling remark).
//!
//! "Better scalability can be achieved … by having different supervisors
//! for each topic. For the latter scenario, one could make use of a
//! self-stabilizing distributed hash table (with consistent hashing) for
//! all supervisors, in which a sub-interval of [0, 1) is assigned to each
//! supervisor. By hashing IDs of topics in the same manner, each
//! supervisor is then only responsible for the topics in its
//! sub-interval."
//!
//! The paper explicitly defers the *self-stabilization* of this DHT to
//! existing literature \[11\]; accordingly this module implements the
//! consistent-hashing layer as a static substrate (used by experiment
//! E13b to show the supervisor-load flattening), not as a self-stabilizing
//! protocol of its own.

use crate::topics::TopicId;
use skippub_bits::Hash128;
use skippub_sim::NodeId;
use std::collections::BTreeMap;

/// A consistent-hashing map from topics to supervisor nodes.
#[derive(Clone, Debug)]
pub struct SupervisorShards {
    /// Hash ring: point in `[0, 2⁶⁴)` → supervisor.
    ring: BTreeMap<u64, NodeId>,
    /// Virtual nodes per supervisor.
    replicas: usize,
}

/// Ring-point hash. Allocation-free: the preimage (`tag ∘ id ∘ replica`,
/// same byte layout the original `Vec`-based version hashed, so ring
/// positions are unchanged) is assembled in a fixed-size stack buffer —
/// `supervisor_for` sits on the per-message routing path of the sharded
/// backend and must not pay a heap round-trip per lookup (asserted by the
/// counting-allocator test `crates/core/tests/alloc_free.rs`).
fn point(tag: &str, id: u64, replica: usize) -> u64 {
    let tag = tag.as_bytes();
    debug_assert!(tag.len() <= 16, "ring tags are short literals");
    let mut buf = [0u8; 32];
    let len = tag.len() + 16;
    buf[..tag.len()].copy_from_slice(tag);
    buf[tag.len()..tag.len() + 8].copy_from_slice(&id.to_le_bytes());
    buf[tag.len() + 8..len].copy_from_slice(&(replica as u64).to_le_bytes());
    Hash128::of_bytes(&buf[..len]).words()[0]
}

impl SupervisorShards {
    /// Builds the ring over `supervisors` with `replicas` virtual nodes
    /// each (more replicas → smoother split of `[0,1)`).
    pub fn new(supervisors: &[NodeId], replicas: usize) -> Self {
        assert!(!supervisors.is_empty(), "need at least one supervisor");
        assert!(replicas >= 1);
        let mut ring = BTreeMap::new();
        for &s in supervisors {
            for r in 0..replicas {
                ring.insert(point("sup", s.0, r), s);
            }
        }
        SupervisorShards { ring, replicas }
    }

    /// The supervisor responsible for `topic`: the first ring point at or
    /// after the topic's hash (wrapping).
    pub fn supervisor_for(&self, topic: TopicId) -> NodeId {
        let h = point("topic", u64::from(topic.0), 0);
        self.ring
            .range(h..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, s)| *s)
            .expect("ring is non-empty")
    }

    /// Adds a supervisor (e.g. scale-out); only `~1/k` of topics move.
    pub fn add_supervisor(&mut self, s: NodeId) {
        for r in 0..self.replicas {
            self.ring.insert(point("sup", s.0, r), s);
        }
    }

    /// Removes a supervisor; its interval falls to the successors.
    pub fn remove_supervisor(&mut self, s: NodeId) {
        self.ring.retain(|_, v| *v != s);
    }

    /// Number of distinct supervisors on the ring.
    pub fn supervisor_count(&self) -> usize {
        let mut v: Vec<NodeId> = self.ring.values().copied().collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// Distribution of `topics` over supervisors: supervisor → count.
    pub fn load(&self, topics: impl Iterator<Item = TopicId>) -> BTreeMap<NodeId, usize> {
        let mut out = BTreeMap::new();
        for t in topics {
            *out.entry(self.supervisor_for(t)).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sups(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn deterministic_assignment() {
        let shards = SupervisorShards::new(&sups(4), 16);
        for t in 0..100 {
            assert_eq!(
                shards.supervisor_for(TopicId(t)),
                shards.supervisor_for(TopicId(t))
            );
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let shards = SupervisorShards::new(&sups(4), 64);
        let load = shards.load((0..4000).map(TopicId));
        assert_eq!(load.values().sum::<usize>(), 4000);
        for (&s, &c) in &load {
            assert!(
                (500..=1800).contains(&c),
                "supervisor {s} got {c} of 4000 topics"
            );
        }
    }

    #[test]
    fn adding_supervisor_moves_few_topics() {
        let mut shards = SupervisorShards::new(&sups(4), 64);
        let before: Vec<NodeId> = (0..2000)
            .map(|t| shards.supervisor_for(TopicId(t)))
            .collect();
        shards.add_supervisor(NodeId(99));
        let after: Vec<NodeId> = (0..2000)
            .map(|t| shards.supervisor_for(TopicId(t)))
            .collect();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        // Expect ~1/5 of topics to move; allow generous slack.
        assert!(moved < 800, "{moved} topics moved");
        assert!(
            moved > 100,
            "only {moved} topics moved — ring not effective"
        );
        // Everything that moved went to the new supervisor.
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(*a, NodeId(99));
            }
        }
    }

    #[test]
    fn removal_is_total() {
        let mut shards = SupervisorShards::new(&sups(3), 8);
        assert_eq!(shards.supervisor_count(), 3);
        shards.remove_supervisor(NodeId(1));
        assert_eq!(shards.supervisor_count(), 2);
        for t in 0..200 {
            assert_ne!(shards.supervisor_for(TopicId(t)), NodeId(1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one supervisor")]
    fn empty_panics() {
        let _ = SupervisorShards::new(&[], 4);
    }
}
