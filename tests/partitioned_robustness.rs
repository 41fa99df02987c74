//! Two contracts of the partitioned backend:
//!
//! * `run_rounds(n)` is observably `n × step()` — failover counts and
//!   snapshot bytes included — whatever per-round facade work (replica
//!   sync, rebalance decisions, sever watching) falls inside the batch;
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
        (
            "rebalancing, sever inside the batch",
            base.clone().rebalance_every(4),
            true,
            0,
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

    // The body opens `cfg topics next_id vnodes`, then the supervisor
    // list `2 BASE BASE+1`, then the detector-routing map
    // `1  1 1 <shard>` (one entry: client 1 met one shard).
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
        ["2", &sup0, &sup1, "1", "1", "1", toks[first + 5]]
    );
    let absent = (SHARD_SUPERVISOR_BASE + 7).to_string();
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
            "supervisor the world does not host",
            with_token(text, first + 1, &absent),
            "does not host",
        ),
        (
            "detector routing to a shard out of range",
            with_token(text, first + 5, "7"),
            "out of range",
        ),
        (
            "kind tag of the other layout",
            with_token(text, 2, "multi-topic"),
            "supervisor list",
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
