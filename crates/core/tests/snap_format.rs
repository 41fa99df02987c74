//! Pins the snapshot tokens of every declared protocol and fault-plane
//! format: one value of each variant of `Msg`, `RepOpKind`,
//! `LinkClass`, `ProbeMode` and `Actor`, plus a `Sever`, a `FaultSpec`
//! and a subscriber with non-zero `Counters`. Each value must save to
//! the recorded text and load back to a value that saves the same text.
//! An unknown tag, or a stream cut short inside a variant, is an `Err`,
//! never a panic.

use skippub_bits::{BitStr, Hash128};
use skippub_core::{
    Actor, Msg, NodeRef, ProbeMode, ProtocolConfig, RepOpKind, Subscriber, Supervisor, TopicId,
};
use skippub_ringmath::Label;
use skippub_sim::{FaultRule, FaultSpec, LinkClass, NodeId, Sever};
use skippub_snapshot::{BackendSnapshot, Snap, SnapError, SnapWriter};
use skippub_trie::{NodeSummary, Publication};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The header of a snapshot whose node store is empty.
const HEADER: &str = "skippubsnap 8 fmt 0";

/// The body tokens `v` saves (no trie, so no stored node).
fn body<T: Snap>(v: &T) -> String {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    let text = w.finish("fmt").as_text().to_string();
    let rest = text.strip_prefix(HEADER).expect("an empty node store");
    rest.trim_start().to_string()
}

/// Loads a `T` from `body`, requiring the whole body to be read. A
/// panic is a test failure of its own.
fn load<T: Snap>(body: &str) -> Result<T, SnapError> {
    catch_unwind(AssertUnwindSafe(|| {
        let snap = BackendSnapshot::from_text(&format!("{HEADER} {body}"))?;
        let mut r = snap.reader()?;
        let v = T::load(&mut r)?;
        r.finish()?;
        Ok(v)
    }))
    .unwrap_or_else(|_| panic!("loading {body:?} panicked"))
}

/// Every value saves to its recorded text, loads back and saves the
/// same text again, and every proper prefix of that text is an `Err`.
fn pinned<T: Snap>(values: &[T], want: &[&str]) {
    assert_eq!(values.len(), want.len());
    for (v, want) in values.iter().zip(want) {
        let got = body(v);
        assert_eq!(got, *want);
        let again = load::<T>(&got).unwrap_or_else(|e| panic!("{got:?} does not load: {e}"));
        assert_eq!(body(&again), got, "re-save");
        let toks: Vec<&str> = got.split(' ').collect();
        for cut in 0..toks.len() {
            let short = toks[..cut].join(" ");
            assert!(
                load::<T>(&short).is_err(),
                "{short:?} cut from {got:?} loads"
            );
        }
    }
}

/// `tag` is no variant of `T`.
fn unknown_tag<T: Snap>(tag: u64) {
    match load::<T>(&tag.to_string()) {
        Err(SnapError::Malformed(_)) => {}
        Err(e) => panic!("tag {tag}: {e}"),
        Ok(_) => panic!("tag {tag} loads"),
    }
}

fn node(label: u64, id: u64) -> NodeRef {
    NodeRef::new(Label::from_index(label), NodeId(id))
}

fn bits(s: &str) -> BitStr {
    s.parse().expect("bit string")
}

fn summary(label: &str, hash: u128) -> NodeSummary {
    NodeSummary {
        label: bits(label),
        hash: Hash128(hash),
    }
}

#[test]
fn every_message_variant_keeps_its_tokens() {
    let lane = TopicId(2).at(NodeId(9));
    let publication = Publication::with_raw_key(bits("1011"), 7, b"hi".to_vec());
    let values = [
        Msg::Check {
            sender: node(5, 3),
            assumed: Label::from_index(6),
            cyc: true,
        },
        Msg::Intro {
            node: node(2, lane.0),
            cyc: false,
        },
        Msg::RemoveConnections { node: NodeId(4) },
        Msg::Subscribe { node: lane },
        Msg::Unsubscribe { node: NodeId(11) },
        Msg::GetConfiguration {
            node: NodeId(12),
            requester: Some(NodeId(13)),
        },
        Msg::SetData {
            pred: Some(node(1, 14)),
            label: None,
            succ: Some(node(3, 15)),
        },
        Msg::IntroduceShortcut { node: node(7, 16) },
        Msg::CheckShortcut {
            sender: node(4, 17),
            assumed: Label::from_index(0),
        },
        Msg::Token { seq: 18, ttl: 19 },
        Msg::TokenReturn { seq: 20 },
        Msg::CheckTrie {
            sender: NodeId(21),
            tuples: vec![summary("0", 0xab), summary("11", 0xcd)],
        },
        Msg::CheckAndPublish {
            sender: NodeId(22),
            tuples: vec![summary("", 0xef)],
            prefixes: vec![bits("10"), bits("011")],
        },
        Msg::Publish {
            pubs: vec![publication.clone()],
        },
        Msg::PublishNew {
            pubs: vec![(publication, 3)].into(),
        },
    ];
    pinned(
        &values,
        &[
            "0 6917529027641081856 3 3 11529215046068469760 3 1",
            "1 4611686018427387904 2 562949953421321 0",
            "2 4",
            "3 562949953421321",
            "4 11",
            "5 12 1 13",
            "6 1 9223372036854775808 1 14 0 1 13835058055282163712 2 15",
            "7 16140901064495857664 3 16",
            "8 2305843009213693952 3 17 0 1",
            "9 18 19",
            "10 20",
            "11 21 2 1 1 00 ab 2 1 c0 cd",
            "12 22 1 0 0 ef 2 2 1 80 3 1 60",
            "13 1 4 1 b0 7 2 6869",
            "14 1 4 1 b0 7 2 6869 3",
        ],
    );
    unknown_tag::<Msg>(15);
}

#[test]
fn every_replication_op_keeps_its_tokens() {
    let values = [
        RepOpKind::Subscribe { v: NodeId(1) },
        RepOpKind::Unsubscribe { v: NodeId(2) },
        RepOpKind::GetConfig {
            u: NodeId(3),
            requester: None,
        },
        RepOpKind::Timeout,
        RepOpKind::TokenReturn { seq: 5 },
        RepOpKind::Suspect { v: NodeId(6) },
    ];
    pinned(&values, &["0 1", "1 2", "2 3 0", "3", "4 5", "5 6"]);
    unknown_tag::<RepOpKind>(6);
}

#[test]
fn every_link_class_keeps_its_tokens() {
    let values = [
        LinkClass::All,
        LinkClass::AnyCross,
        LinkClass::AnyLocal,
        LinkClass::Cross { src: 1, dst: 2 },
        LinkClass::Local { partition: 3 },
        LinkClass::Group(vec![4, 5, 6]),
    ];
    pinned(&values, &["0", "1", "2", "3 1 2", "4 3", "5 3 4 5 6"]);
    unknown_tag::<LinkClass>(6);
}

#[test]
fn every_probe_mode_keeps_its_tokens() {
    let values = [
        ProbeMode::Randomized,
        ProbeMode::Token,
        ProbeMode::TokenHybrid,
    ];
    pinned(&values, &["0", "1", "2"]);
    unknown_tag::<ProbeMode>(3);
}

#[test]
fn both_actors_keep_their_tokens() {
    let mut sub = Subscriber::new(
        NodeId(7),
        NodeId(0),
        ProtocolConfig {
            probe_mode: ProbeMode::TokenHybrid,
            ..ProtocolConfig::default()
        },
    );
    let c = &mut sub.counters;
    (c.config_probes, c.neighbor_probes, c.pubs_via_flood) = (1, 2, 3);
    (c.pubs_via_sync, c.leaf_conflicts, c.tokens_seen) = (4, 5, 6);
    (c.configs_received, c.ignored_msgs, c.max_flood_hops) = (7, 8, 9);
    let values = [
        Actor::Supervisor(Box::new(Supervisor::new(NodeId(0)))),
        Actor::Subscriber(Box::new(sub)),
    ];
    pinned(
        &values,
        &[
            "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
            "1 7 0 0 0 0 0 0 0 0 0 1 64 1 1 1 2 1 1 1 2 3 4 5 6 7 8 9",
        ],
    );
    unknown_tag::<Actor>(2);
}

#[test]
fn fault_schedules_keep_their_tokens() {
    let sever = Sever {
        from_round: 10,
        to_round: 25,
        group: vec![1, 3],
    };
    pinned(std::slice::from_ref(&sever), &["10 25 2 1 3"]);
    let spec = FaultSpec {
        seed: 13,
        rules: vec![FaultRule {
            drop: 0.5,
            delay_rounds: 3,
            ..FaultRule::pass(0, 40, LinkClass::Group(vec![2, 7]))
        }],
        severs: vec![sever],
    };
    pinned(
        &[spec],
        &["13 1 0 40 5 2 2 7 4602678819172646912 0 0 3 0 1 1 10 25 2 1 3"],
    );
}
