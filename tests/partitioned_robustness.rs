//! Two contracts of the partitioned backend:
//!
//! * `run_rounds(n)` is observably `n × step()` — failover counts and
//!   snapshot bytes included — whatever per-round facade work (replica
//!   sync, sever watching) falls inside the batch;
//! * restoring an internally inconsistent snapshot is an `Err`, never a
//!   panic at restore or at a later facade call (ROADMAP item 5a).

use skippub_core::pubsub::{restore, BackendSnapshot, PartitionedBackend, SHARD_SUPERVISOR_BASE};
use skippub_core::{PubSub, SystemBuilder, TopicId};
use skippub_sim::{FaultSpec, Sever};

/// A warm 2-shard system with fresh joins still in flight (so the next
/// rounds execute supervisor handlers on several topics per shard) and,
/// optionally, a partition isolating shard 0's endpoint over relative
/// rounds `[3, 6)`.
fn warm(builder: &SystemBuilder, sever: bool) -> PartitionedBackend {
    let mut ps = builder.clone().topics(4).shards(2).build_sharded();
    for i in 0..8 {
        ps.subscribe(TopicId(i % 4));
    }
    assert!(ps.until_legit(4_000).1);
    for t in 0..4 {
        ps.subscribe(TopicId(t));
    }
    if sever {
        ps.set_faults(Some(FaultSpec {
            seed: 1,
            rules: Vec::new(),
            severs: vec![Sever {
                from_round: 3,
                to_round: 6,
                group: vec![SHARD_SUPERVISOR_BASE],
            }],
        }));
    }
    ps
}

#[test]
fn run_rounds_is_n_single_steps() {
    let base = SystemBuilder::new(0x5E7E);
    let cases = [
        (
            "replicated, sever inside the batch",
            base.clone().replicas(2),
            true,
            1,
        ),
        ("replicated, no faults", base.clone().replicas(2), false, 0),
        ("plain", base, false, 0),
    ];
    for (name, builder, sever, failovers) in cases {
        let (mut batched, mut stepped) = (warm(&builder, sever), warm(&builder, sever));
        batched.run_rounds(10);
        for _ in 0..10 {
            stepped.step();
        }
        assert_eq!(stepped.supervisor_failovers(), failovers, "{name}");
        assert_eq!(batched.supervisor_failovers(), failovers, "{name}");
        // Not `assert_eq!`: a mismatch would dump two whole snapshots.
        assert!(
            batched.save_snapshot().expect("snapshot").as_text()
                == stepped.save_snapshot().expect("snapshot").as_text(),
            "{name}: run_rounds(10) and ten step()s must leave byte-equal snapshots"
        );
    }
}

/// `text` with the token at `idx` replaced.
fn with_token(text: &str, idx: usize, token: &str) -> String {
    let mut toks: Vec<&str> = text.split_ascii_whitespace().collect();
    toks[idx] = token;
    toks.join(" ")
}

#[test]
fn inconsistent_snapshots_are_rejected_not_panicked_on() {
    let mut ps = SystemBuilder::new(9).topics(4).shards(2).build_sharded();
    ps.subscribe(TopicId(0));
    let saved = ps.save_snapshot().expect("snapshot");
    let text = saved.as_text();
    restore(&saved).expect("the unmutated snapshot restores");

    // The body opens `chaos cfg topics next_id`, then the supervisor
    // list `2 BASE BASE+1`, then the detector-routing map
    // `1  1 1 0` (one entry: client 1 joined topic 0).
    let (sup0, sup1) = (
        SHARD_SUPERVISOR_BASE.to_string(),
        (SHARD_SUPERVISOR_BASE + 1).to_string(),
    );
    let toks: Vec<&str> = text.split_ascii_whitespace().collect();
    let first = toks
        .iter()
        .position(|t| *t == sup0)
        .expect("supervisor list");
    assert_eq!(
        toks[first - 1..first + 6],
        ["2", &sup0, &sup1, "1", "1", "1", "0"]
    );
    // The list entry of the process hosting topic 0's supervisor
    // instance, the one supervisor instance the world holds.
    let host_is_sup1 = ps.supervisor_for(TopicId(0)).process().0 != SHARD_SUPERVISOR_BASE;
    let host = first + usize::from(host_is_sup1);
    let absent = (SHARD_SUPERVISOR_BASE + 7).to_string();
    // The world state ends `2 0 0 1 0 …`: two empty mailboxes, one
    // worker, round 0.
    let tail = ["2", "0", "0", "1", "0"];
    let at: Vec<usize> = (0..toks.len() - tail.len())
        .filter(|&i| toks[i..i + tail.len()] == tail)
        .collect();
    assert_eq!(at.len(), 1, "the mailbox section must be unambiguous");
    let mut one_mailbox = toks.clone();
    one_mailbox.splice(at[0]..at[0] + 3, ["1", "0"]);
    // (what is wrong, the mutated text, what the error must name)
    let hostile = [
        (
            "supervisor id below the shard range",
            with_token(text, first, "5"),
            "supervisor list",
        ),
        (
            "duplicate supervisor",
            with_token(text, first + 1, &sup0),
            "twice",
        ),
        (
            "supervisor instance hosted by a process the list does not name",
            with_token(text, host, &absent),
            "does not name",
        ),
        (
            "detector routing to a topic out of range",
            with_token(text, first + 5, "7"),
            "out of range",
        ),
        (
            "more topics than addresses have lanes",
            with_token(text, first - 3, "4000000000"),
            "outside 1..=",
        ),
        (
            "kind tag of the other layout",
            with_token(text, 2, "multi-topic"),
            "supervisor list",
        ),
        (
            "one mailbox for two partitions",
            one_mailbox.join(" "),
            "1 mailboxes for 2 partitions",
        ),
    ];
    for (what, text, names) in hostile {
        let snap = BackendSnapshot::from_text(&text).expect("header still parses");
        let err = restore(&snap)
            .err()
            .unwrap_or_else(|| panic!("{what}: restore must return Err"));
        assert!(
            err.contains(names),
            "{what}: rejected for another reason: {err}"
        );
    }
}

/// `snap` with its kind tag replaced by `tag`.
fn retagged(snap: &BackendSnapshot, tag: &str) -> String {
    with_token(snap.as_text(), 2, tag)
}

/// `text` with the `n` tokens at `idx` replaced by `with`.
fn spliced(text: &str, idx: usize, n: usize, with: &[&str]) -> String {
    let mut toks: Vec<&str> = text.split_ascii_whitespace().collect();
    toks.splice(idx..idx + n, with.iter().copied());
    toks.join(" ")
}

/// Every layout writes one body; a `sim` or `chaos` tag on it promises
/// one topic, one partition, the supervisor `[0]`, no detector routing
/// and a scheduler that agrees with the tag. A body that breaks any of
/// those promises is an `Err`. On every layout the four positions the
/// retired topic→shard rebalancer wrote must hold its never-rebalanced
/// values.
#[test]
fn one_topic_tags_on_other_layouts_are_rejected() {
    let sim = || {
        let mut ps = SystemBuilder::new(11).build_sim();
        ps.subscribe(TopicId(0));
        ps.step();
        ps.save_snapshot().expect("snapshot")
    };
    let (sim, chaos) = (
        sim(),
        SystemBuilder::new(11)
            .build_chaos()
            .save_snapshot()
            .unwrap(),
    );
    let text = sim.as_text();
    restore(&sim).expect("the unmutated sim snapshot restores");
    // Empty node store, no chaos config, the protocol configuration's
    // seven fields, one topic, next client id 2, the supervisor list
    // `1 0`, an empty detector routing.
    let toks: Vec<&str> = text.split_ascii_whitespace().collect();
    assert_eq!(toks[3..5], ["0", "0"], "{text}");
    assert_eq!(toks[12..18], ["1", "2", "1", "0", "0", "1"], "{text}");
    // The body ends `… groups`, the retired rebalancer's placement
    // overrides, cadence, handoff count and per-partition delivered
    // baselines, then `sever_fired`: `0 0 0 0 1 0 0`.
    let end = toks.len();
    assert_eq!(
        toks[end - 7..],
        ["0", "0", "0", "0", "1", "0", "0"],
        "{text}"
    );
    let multi = |shards: usize| {
        let mut ps = SystemBuilder::new(11).shards(shards).build_multi();
        ps.subscribe(TopicId(0));
        ps.save_snapshot().expect("snapshot")
    };
    let sharded = |shards: usize| {
        let mut ps = SystemBuilder::new(11)
            .topics(4)
            .shards(shards)
            .build_sharded();
        ps.subscribe(TopicId(0));
        ps.save_snapshot().expect("snapshot")
    };
    // (what is wrong, the mutated text, what the error must name)
    let hostile = [
        (
            "two topics",
            with_token(text, 12, "2"),
            "one topic on one partition",
        ),
        (
            "two partitions",
            retagged(&multi(2), "sim"),
            "one topic on one partition",
        ),
        (
            "a supervisor other than 0",
            with_token(text, 15, "5"),
            "supervisor list",
        ),
        (
            "the sharded supervisor list",
            retagged(&sharded(1), "sim"),
            "supervisor list",
        ),
        (
            "detector routing",
            retagged(&multi(1), "sim"),
            "no detector routing",
        ),
        (
            "no chaos config under a chaos tag",
            retagged(&sim, "chaos"),
            "chaos config",
        ),
        (
            "a chaos config under a sim tag",
            retagged(&chaos, "sim"),
            "chaos config",
        ),
        (
            "a chaos config under a multi-topic tag",
            retagged(&chaos, "multi-topic"),
            "chaos config",
        ),
        (
            "a client at or above the next id",
            with_token(text, 13, "1"),
            "does not name",
        ),
    ];
    for (what, text, names) in hostile {
        let snap = BackendSnapshot::from_text(&text).expect("header still parses");
        let err = restore(&snap)
            .err()
            .unwrap_or_else(|| panic!("{what}: restore must return Err"));
        assert!(
            err.contains(names),
            "{what}: rejected for another reason: {err}"
        );
    }

    // The rebalancer's positions, on a one-topic body and on a sharded
    // body of two partitions.
    for (layout, snap, partitions) in [("sim", sim, 1), ("sharded", sharded(2), 2)] {
        let text = snap.as_text();
        restore(&snap).expect("the unmutated snapshot restores");
        let toks: Vec<&str> = text.split_ascii_whitespace().collect();
        // Index of the overrides' length: the cadence, the handoff
        // count, the baselines' length, the baselines and `sever_fired`
        // follow.
        let overrides = toks.len() - partitions - 5;
        let mut zeros = vec![0; partitions + 5];
        zeros[3] = partitions;
        let zeros: Vec<String> = zeros.iter().map(usize::to_string).collect();
        assert_eq!(toks[overrides..], zeros, "{layout}: {text}");
        let fewer = (partitions - 1).to_string();
        let mut fewer_baselines = vec![fewer.as_str()];
        fewer_baselines.resize(partitions, "0");
        let hostile = [
            (
                "a placement override",
                spliced(text, overrides, 1, &["1", "0", "0"]),
            ),
            ("a rebalance cadence", with_token(text, overrides + 1, "4")),
            ("a handoff count", with_token(text, overrides + 2, "3")),
            ("a delivered baseline", with_token(text, overrides + 4, "9")),
            (
                "one baseline too few",
                spliced(text, overrides + 3, partitions + 1, &fewer_baselines),
            ),
        ];
        for (what, text) in hostile {
            let snap = BackendSnapshot::from_text(&text).expect("header still parses");
            let err = restore(&snap)
                .err()
                .unwrap_or_else(|| panic!("{layout}, {what}: restore must return Err"));
            assert!(
                err.contains("retired topic→shard rebalancer"),
                "{layout}, {what}: rejected for another reason: {err}"
            );
        }
    }
}
