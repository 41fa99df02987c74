//! Two-party anti-entropy driver (Algorithm 5, run locally).
//!
//! This module executes the paper's `CheckTrie` / `CheckAndPublish` /
//! `Publish` exchange between two in-memory tries, without a network. It
//! serves three purposes:
//!
//! 1. unit-level validation of the message semantics (including the exact
//!    Figure 2 walk-through, experiment E2);
//! 2. measuring message/publication counts of a single pairwise
//!    reconciliation (experiment E8's inner loop);
//! 3. a reference implementation the networked protocol in `skippub-core`
//!    is differentially tested against.

use crate::{NodeSummary, PatriciaTrie, Publication};
use std::collections::VecDeque;

/// Which of the two parties a message is addressed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Party {
    /// The initiating trie (argument `a` of [`sync_pair`]).
    A,
    /// The responding trie (argument `b` of [`sync_pair`]).
    B,
}

impl Party {
    /// The other party.
    pub fn other(self) -> Party {
        match self {
            Party::A => Party::B,
            Party::B => Party::A,
        }
    }
}

/// One in-flight message of the Algorithm-5 exchange.
#[derive(Clone, Debug)]
pub enum SyncMsg {
    /// `CheckTrie(sender, tuples)` — compare these node summaries.
    Check {
        /// Addressee.
        to: Party,
        /// Node summaries to compare (Algorithm 5 handles a child pair as
        /// two tuples of one request; the child pairs of all differing
        /// nodes of a request travel together).
        tuples: Vec<NodeSummary>,
    },
    /// `CheckAndPublish(sender, tuples, prefixes)` — continue checking
    /// at `tuples` *and* send back all publications under any of
    /// `prefixes`.
    CheckAndPublish {
        /// Addressee.
        to: Party,
        /// Child and cover summaries to keep checking.
        tuples: Vec<NodeSummary>,
        /// Prefixes of publications the sender is missing (never empty).
        prefixes: Vec<skippub_bits::BitStr>,
    },
    /// `Publish(P)` — deliver publications.
    Publish {
        /// Addressee.
        to: Party,
        /// The publications.
        pubs: Vec<Publication>,
    },
}

/// Statistics of one reconciliation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Number of `CheckTrie` messages exchanged.
    pub check_msgs: usize,
    /// Number of `CheckAndPublish` messages exchanged.
    pub check_and_publish_msgs: usize,
    /// Number of `Publish` messages exchanged.
    pub publish_msgs: usize,
    /// Total publications shipped inside `Publish` messages.
    pub publications_sent: usize,
    /// Number of root-to-root initiations performed.
    pub initiations: usize,
    /// Whether the tries ended with equal root hashes.
    pub converged: bool,
}

/// Processes one received message at the addressed trie, pushing any
/// responses onto `queue`: at most one `Publish` (for the prefixes of a
/// `CheckAndPublish`) and at most one check-type reply for all tuples
/// together — a `CheckTrie` with the children of every differing node,
/// or a `CheckAndPublish` as soon as one prefix is missing. Returns the
/// number of publications inserted.
fn handle(
    a: &mut PatriciaTrie,
    b: &mut PatriciaTrie,
    msg: SyncMsg,
    queue: &mut VecDeque<SyncMsg>,
    stats: &mut SyncStats,
) -> usize {
    let (to, tuples, prefixes, pubs) = match msg {
        SyncMsg::Check { to, tuples } => (to, tuples, Vec::new(), Vec::new()),
        SyncMsg::CheckAndPublish {
            to,
            tuples,
            prefixes,
        } => (to, tuples, prefixes, Vec::new()),
        SyncMsg::Publish { to, pubs } => (to, Vec::new(), Vec::new(), pubs),
    };
    let me: &mut PatriciaTrie = match to {
        Party::A => a,
        Party::B => b,
    };
    let mut inserted = 0usize;
    for p in pubs {
        if me.insert(p) {
            inserted += 1;
        }
    }
    // CheckAndPublish: ship everything under the requested prefixes back.
    let send = me.publications_under(prefixes);
    if !send.is_empty() {
        stats.publish_msgs += 1;
        stats.publications_sent += send.len();
        queue.push_back(SyncMsg::Publish {
            to: to.other(),
            pubs: send,
        });
    }
    // CheckTrie handling: one reply for all tuples.
    let reply = me.check_all(&tuples);
    if !reply.prefixes.is_empty() {
        stats.check_and_publish_msgs += 1;
        queue.push_back(SyncMsg::CheckAndPublish {
            to: to.other(),
            tuples: reply.tuples,
            prefixes: reply.prefixes,
        });
    } else if !reply.tuples.is_empty() {
        stats.check_msgs += 1;
        queue.push_back(SyncMsg::Check {
            to: to.other(),
            tuples: reply.tuples,
        });
    }
    inserted
}

/// Runs one initiation: `from` sends its root summary to the other party
/// and the exchange is driven to quiescence. Returns accumulated stats.
pub fn initiate(a: &mut PatriciaTrie, b: &mut PatriciaTrie, from: Party, stats: &mut SyncStats) {
    stats.initiations += 1;
    let root = match from {
        Party::A => a.root_summary(),
        Party::B => b.root_summary(),
    };
    let Some(root) = root else { return };
    let mut queue = VecDeque::new();
    stats.check_msgs += 1;
    queue.push_back(SyncMsg::Check {
        to: from.other(),
        tuples: vec![root],
    });
    while let Some(msg) = queue.pop_front() {
        handle(a, b, msg, &mut queue, stats);
    }
}

/// Fully reconciles two tries by alternating initiations (the paper's
/// periodic `PublishTimeout`, §4.2 notes "it is important at which
/// subscriber the initial CheckTrie request is started" — alternating
/// covers both directions). Returns the stats; `converged` is true when
/// both root hashes agree (always, absent hash collisions, by Theorem 17).
pub fn sync_pair(a: &mut PatriciaTrie, b: &mut PatriciaTrie, max_initiations: usize) -> SyncStats {
    let mut stats = SyncStats::default();
    let mut from = Party::A;
    for _ in 0..max_initiations {
        if a.root_hash() == b.root_hash() {
            break;
        }
        initiate(a, b, from, &mut stats);
        from = from.other();
    }
    stats.converged = a.root_hash() == b.root_hash();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use skippub_bits::BitStr;

    fn bs(s: &str) -> BitStr {
        s.parse().unwrap()
    }

    fn raw(key: &str) -> Publication {
        Publication::with_raw_key(bs(key), 0, Vec::new())
    }

    fn figure2() -> (PatriciaTrie, PatriciaTrie) {
        let mut u = PatriciaTrie::new();
        for k in ["000", "010", "100", "101"] {
            u.insert(raw(k));
        }
        let mut v = PatriciaTrie::new();
        for k in ["000", "010", "100"] {
            v.insert(raw(k));
        }
        (u, v)
    }

    #[test]
    fn figure2_initiation_from_u_finds_nothing() {
        // Paper: "assume that u sends out a CheckTrie(u, ru) … Both
        // comparisons result in the hashes being equal, which ends the
        // chain of messages at subscriber u."
        let (mut u, mut v) = figure2();
        let mut stats = SyncStats::default();
        initiate(&mut u, &mut v, Party::A, &mut stats);
        assert_eq!(v.len(), 3, "v must not have learned P4 from this direction");
        // Exactly two Check messages: u→v root, v→u children.
        assert_eq!(stats.check_msgs, 2);
        assert_eq!(stats.publications_sent, 0);
    }

    #[test]
    fn figure2_initiation_from_v_delivers_p4() {
        // Paper: v initiates → u responds with children (0,·),(10,·); v
        // lacks "10" → CheckAndPublish(v, (100,h(P3)), 101) → u publishes
        // P4.
        let (mut u, mut v) = figure2();
        let mut stats = SyncStats::default();
        initiate(&mut u, &mut v, Party::B, &mut stats);
        assert_eq!(v.len(), 4, "P4 must arrive at v");
        assert!(v.contains_key(&bs("101")));
        assert_eq!(u.root_hash(), v.root_hash());
        assert_eq!(stats.check_and_publish_msgs, 1);
        assert_eq!(stats.publications_sent, 1);
    }

    #[test]
    fn sync_pair_converges_both_ways() {
        let (mut u, mut v) = figure2();
        let stats = sync_pair(&mut u, &mut v, 8);
        assert!(stats.converged);
        assert_eq!(u.root_hash(), v.root_hash());
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn sync_disjoint_sets() {
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        for k in ["0000", "0011", "0101"] {
            a.insert(raw(k));
        }
        for k in ["1000", "1011", "1110"] {
            b.insert(raw(k));
        }
        let stats = sync_pair(&mut a, &mut b, 16);
        assert!(stats.converged);
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 6);
        assert_eq!(a.keys(), b.keys());
    }

    #[test]
    fn sync_empty_vs_full() {
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        for i in 0..50u64 {
            a.insert(Publication::new(1, format!("{i}").into_bytes()));
        }
        let stats = sync_pair(&mut a, &mut b, 8);
        assert!(stats.converged);
        assert_eq!(b.len(), 50);
        assert_eq!(stats.publications_sent, 50);
    }

    #[test]
    fn sync_both_empty() {
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        let stats = sync_pair(&mut a, &mut b, 4);
        assert!(stats.converged);
        assert_eq!(stats.check_msgs, 0);
    }

    #[test]
    fn sync_identical_is_one_message() {
        let (mut u, _) = figure2();
        let mut v = u.clone();
        let stats = sync_pair(&mut u, &mut v, 4);
        assert!(stats.converged);
        assert_eq!(stats.check_msgs, 0, "equal root hashes short-circuit");
    }

    #[test]
    fn sync_overlapping_random_sets() {
        let mut a = PatriciaTrie::new();
        let mut b = PatriciaTrie::new();
        for i in 0..120u64 {
            let p = Publication::new(i % 5, format!("msg{i}").into_bytes());
            if i % 3 != 0 {
                a.insert(p.clone());
            }
            if i % 3 != 1 {
                b.insert(p);
            }
        }
        let stats = sync_pair(&mut a, &mut b, 64);
        assert!(stats.converged, "stats: {stats:?}");
        assert_eq!(a.len(), 120);
        assert_eq!(b.len(), 120);
        a.debug_validate().unwrap();
        b.debug_validate().unwrap();
    }
}
