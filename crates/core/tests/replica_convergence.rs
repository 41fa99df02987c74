//! Property tests for the replicated-supervisor subsystem: replicas fed
//! the same per-topic operation sequences — in different cross-topic
//! interleavings, and starting from adversarially corrupted initial log
//! states — converge to identical replayed database digests after
//! anti-entropy. This is the self-stabilization claim of the replica
//! layer: agreement is restored from *any* initial log state, and the
//! replayed state is a function of the per-topic op sequences alone.

use proptest::collection::vec;
use proptest::prelude::*;
use skippub_core::{RepOp, RepOpKind, ReplicaGroup, TopicId};
use skippub_sim::NodeId;

const SUP: NodeId = NodeId(0);

/// Decodes one drawn tuple into a supervisor operation. Node IDs stay
/// in a small pool so subscribes/unsubscribes/suspects actually
/// interact; every drawn tuple is applicable (no rejection).
fn kind_of((k, a, b): (u8, u64, u64)) -> RepOpKind {
    let node = |x: u64| NodeId(1 + x % 8);
    match k % 6 {
        0 => RepOpKind::Subscribe { v: node(a) },
        1 => RepOpKind::Unsubscribe { v: node(a) },
        2 => RepOpKind::GetConfig {
            u: node(a),
            requester: (b % 2 == 0).then(|| node(b)),
        },
        3 => RepOpKind::Timeout,
        4 => RepOpKind::TokenReturn { seq: a % 4 },
        _ => RepOpKind::Suspect { v: node(a) },
    }
}

/// Splits the drawn ops into per-topic sequences over `topics` topics.
fn per_topic(ops: &[(u8, u64, u64)], topics: u32) -> Vec<(TopicId, Vec<RepOpKind>)> {
    let mut out: Vec<(TopicId, Vec<RepOpKind>)> =
        (0..topics).map(|t| (TopicId(t), Vec::new())).collect();
    for (i, &op) in ops.iter().enumerate() {
        out[i % topics as usize].1.push(kind_of(op));
    }
    out
}

proptest! {
    // At least 32 cases; `PROPTEST_CASES` can ask for more.
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::default().cases.max(32),
        ..ProptestConfig::default()
    })]

    #[test]
    fn interleavings_of_the_same_per_topic_ops_converge(
        ops in vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..60),
        topics in 1u32..4,
        k in 2usize..5,
        chunk in 1usize..7,
    ) {
        // Group A records each topic's whole sequence at once; group B
        // records the same sequences chunked and interleaved round-robin
        // across topics. Replay is per-topic, so the replicas' database
        // digests must not depend on the cross-topic interleaving.
        let seqs = per_topic(&ops, topics);

        let mut a = ReplicaGroup::new(k, SUP, false);
        for (t, kinds) in &seqs {
            a.record_topic(*t, kinds.clone());
        }
        a.anti_entropy();

        let mut b = ReplicaGroup::new(k, SUP, false);
        let mut cursors: Vec<usize> = vec![0; seqs.len()];
        loop {
            let mut progressed = false;
            for (i, (t, kinds)) in seqs.iter().enumerate() {
                if cursors[i] < kinds.len() {
                    let hi = (cursors[i] + chunk).min(kinds.len());
                    b.record_topic(*t, kinds[cursors[i]..hi].to_vec());
                    cursors[i] = hi;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        b.anti_entropy();

        prop_assert!(a.agreement(), "group A replicas must agree");
        prop_assert!(b.agreement(), "group B replicas must agree");
        // Same per-topic sequences => same replayed databases, replica
        // by replica (labels coincide for two fresh groups).
        for (ra, rb) in a.replicas().iter().zip(b.replicas()) {
            prop_assert_eq!(ra.digest(), rb.digest());
        }
    }

    #[test]
    fn adversarial_initial_logs_are_repaired(
        ops in vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..40),
        garbage in vec(vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..20), 1..4),
        topics in 1u32..3,
        k in 3usize..5,
    ) {
        // Backups start from arbitrary (mutually different) log states —
        // the self-stabilization model admits any initial content. One
        // anti-entropy round after recording must restore agreement with
        // the primary, and the result must equal a group that never saw
        // the corruption.
        let seqs = per_topic(&ops, topics);

        let mut dirty = ReplicaGroup::new(k, SUP, false);
        for (i, g) in garbage.iter().enumerate() {
            let idx = 1 + i % (k - 1); // never the primary
            let fake: Vec<RepOp> = g
                .iter()
                .enumerate()
                .map(|(j, &op)| RepOp {
                    topic: TopicId(j as u32 % topics),
                    kind: kind_of(op),
                })
                .collect();
            dirty.inject_log(idx, fake);
        }
        for (t, kinds) in &seqs {
            dirty.record_topic(*t, kinds.clone());
        }
        dirty.anti_entropy();

        let mut clean = ReplicaGroup::new(k, SUP, false);
        for (t, kinds) in &seqs {
            clean.record_topic(*t, kinds.clone());
        }
        clean.anti_entropy();

        prop_assert!(dirty.agreement(), "corrupted backups must be repaired");
        prop_assert_eq!(dirty.group_digest(), clean.group_digest());
    }

    #[test]
    fn failover_elects_deterministically_and_preserves_state(
        ops in vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..40),
        more in vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..20),
        k in 2usize..5,
    ) {
        // Crashing the primary mid-history must not change the replayed
        // database: the electee's state equals the old primary's, and
        // recording the remaining history on the survivor group yields
        // the same database as a group that never crashed.
        let t = TopicId(0);
        let first: Vec<RepOpKind> = ops.iter().map(|&o| kind_of(o)).collect();
        let rest: Vec<RepOpKind> = more.iter().map(|&o| kind_of(o)).collect();

        let mut crashed = ReplicaGroup::new(k, SUP, false);
        crashed.record_topic(t, first.clone());
        crashed.anti_entropy();
        let before = crashed.primary_topic(t);
        prop_assert!(crashed.fail_primary());
        // Deterministic election: the lowest live label wins.
        prop_assert_eq!(crashed.primary_label(), 1);
        prop_assert_eq!(crashed.failovers(), 1);
        let after = crashed.primary_topic(t);
        prop_assert_eq!(format!("{before:?}"), format!("{after:?}"));
        crashed.record_topic(t, rest.clone());
        crashed.anti_entropy();

        let mut steady = ReplicaGroup::new(k, SUP, false);
        steady.record_topic(t, first);
        steady.record_topic(t, rest);
        steady.anti_entropy();

        prop_assert!(crashed.agreement());
        prop_assert_eq!(
            format!("{:?}", crashed.primary_topic(t)),
            format!("{:?}", steady.primary_topic(t))
        );
    }
}
