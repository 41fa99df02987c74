//! Probes: a lower layer's public functions called directly, on inputs
//! shaped like the workload's (same world size, same store sizes, same
//! message volume). They run in the traced pass only and may use items
//! the timed driver may not.

use crate::gen::Rng;
use crate::stats::median;
use skippub_bits::Hash128;
use skippub_core::pubsub::{restore, BackendSnapshot};
use skippub_core::{BackendKind, PubSub, SystemBuilder, TopicId};
use skippub_ringmath::Label;
use skippub_sim::{Ctx, FaultRule, FaultSpec, LinkClass, NodeId, Protocol, World};
use skippub_trie::{sync, MemoryTrieDb, PatriciaTrie, Publication, TrieBatch};
use std::hint::black_box;
use std::time::Instant;

/// Median of `runs` timings of `f`, in seconds.
fn time_median(runs: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A protocol that does no work: every timeout sends `fan` messages to
/// fixed other nodes, and a received message is dropped on the floor.
/// What remains is the engine's own cost per message.
struct Forward {
    nodes: u64,
    fan: u64,
}

impl Protocol for Forward {
    type Msg = u64;

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, msg: u64) {
        black_box(msg);
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, u64>) {
        let me = ctx.me().0;
        for k in 1..=self.fan {
            ctx.send(NodeId((me + k * 7919) % self.nodes + 1), me);
        }
    }
}

/// Seconds for a bare `World` of `nodes` nodes to run `rounds` rounds
/// with `fan` messages per node and round; with `faults`, every link is
/// under an armed rule.
fn bare_world_secs(nodes: u64, fan: u64, rounds: u64, faults: bool, seed: u64) -> f64 {
    let t = Instant::now();
    let mut world: World<Forward> = World::new(seed);
    for id in 1..=nodes {
        world.add_node(NodeId(id), Forward { nodes, fan });
    }
    if faults {
        world.set_faults(Some(FaultSpec {
            seed,
            rules: vec![FaultRule {
                drop: 0.01,
                ..FaultRule::pass(0, u64::MAX, LinkClass::All)
            }],
            severs: Vec::new(),
        }));
    }
    for _ in 0..rounds {
        world.run_round();
    }
    black_box(world.metrics().delivered_total);
    t.elapsed().as_secs_f64()
}

/// Engine nanoseconds per message on a bare `World` of `nodes` nodes
/// moving about `messages` messages, `fan` per node and round; and the
/// nanoseconds per message an armed fault plane adds (the median of the
/// differences of five back-to-back pairs), if asked for.
pub fn bare_ns_per_msg(
    nodes: u64,
    fan: u64,
    messages: u64,
    with_faults: bool,
    seed: u64,
) -> (f64, f64) {
    let rounds = (messages / (nodes * fan).max(1)).clamp(4, 400);
    let per_msg = 1e9 / (rounds * nodes * fan) as f64;
    let mut bare = Vec::new();
    let mut added = Vec::new();
    for _ in 0..5 {
        let plain = bare_world_secs(nodes, fan, rounds, false, seed);
        bare.push(plain * per_msg);
        if with_faults {
            added.push((bare_world_secs(nodes, fan, rounds, true, seed) - plain) * per_msg);
        }
    }
    (
        median(&bare),
        if with_faults { median(&added) } else { 0.0 },
    )
}

/// A legitimate single-topic world of `n` subscribers.
fn legit_sim(n: usize, seed: u64, replicas: usize) -> (Box<dyn PubSub>, Vec<NodeId>) {
    let mut ps = SystemBuilder::new(seed)
        .replicas(replicas)
        .build(BackendKind::Sim);
    let ids: Vec<NodeId> = (0..n).map(|_| ps.subscribe(TopicId(0))).collect();
    assert!(ps.until_legit(10_000).1, "probe world did not warm up");
    (ps, ids)
}

/// Messages one subscribe and one unsubscribe cost: `Stats.sent` over
/// `ROUNDS` rounds of a legitimate world with `OPS` operations applied,
/// minus the same rounds without, per operation. The paper's
/// constant-work claim, exact per seed.
pub fn supervisor_msgs_per_op(n: usize, seed: u64) -> (f64, f64) {
    const OPS: usize = 8;
    const ROUNDS: usize = 40;
    let sent_over = |ops: &dyn Fn(&mut dyn PubSub, &[NodeId])| -> f64 {
        let (mut ps, ids) = legit_sim(n, seed, 1);
        let before = ps.stats().sent;
        ops(ps.as_mut(), &ids);
        for _ in 0..ROUNDS {
            ps.step();
        }
        (ps.stats().sent - before) as f64
    };
    let idle = sent_over(&|_, _| {});
    let subscribed = sent_over(&|ps, _| {
        for _ in 0..OPS {
            ps.subscribe(TopicId(0));
        }
    });
    let unsubscribed = sent_over(&|ps, ids| {
        for k in 0..OPS {
            ps.unsubscribe(ids[(k * ids.len() / OPS + 1) % ids.len()], TopicId(0));
        }
    });
    (
        (subscribed - idle) / OPS as f64,
        (unsubscribed - idle) / OPS as f64,
    )
}

/// Step time with three supervisor replicas over step time with one, on
/// a world of `n` under churn for `rounds` rounds, and the failovers one
/// primary crash causes. The two runs must take the same trajectory.
pub fn replica_overhead(n: usize, rounds: usize, seed: u64) -> (f64, f64) {
    let run = |replicas: usize| -> (f64, u64, bool, Box<dyn PubSub>) {
        let (mut ps, ids) = legit_sim(n, seed, replicas);
        let mut step_s = 0.0;
        for r in 0..rounds {
            if r < rounds / 8 {
                ps.subscribe(TopicId(0));
                ps.unsubscribe(ids[1 + r % (ids.len() - 1)], TopicId(0));
                ps.publish(
                    ids[0],
                    TopicId(0),
                    format!("replica probe {r}").into_bytes(),
                );
            }
            let t = Instant::now();
            ps.step();
            step_s += t.elapsed().as_secs_f64();
        }
        let delivered = ps.drain_events(ids[0]).len() as u64;
        let legit = ps.is_legitimate();
        (step_s, delivered, legit, ps)
    };
    let (one_s, one_delivered, one_legit, _) = run(1);
    let (three_s, three_delivered, three_legit, mut three) = run(3);
    assert_eq!(
        (one_delivered, one_legit),
        (three_delivered, three_legit),
        "replication changed what the clients see"
    );
    three.crash_supervisor(TopicId(0));
    (three_s / one_s, three.supervisor_failovers() as f64)
}

pub struct TrieCosts {
    pub insert_ns: f64,
    pub batch_apply_ns_per_pub: f64,
    pub sync_us: f64,
    pub sync_msgs_per_missing_pub: f64,
    pub commit_open_us: f64,
}

/// Trie costs at a store of `stored` publications, and one pairwise
/// anti-entropy exchange between two such stores that each lack
/// `missing` publications the other has.
pub fn trie_costs(stored: usize, missing: usize, seed: u64) -> TrieCosts {
    let stored = stored.max(1);
    let missing = missing.max(1);
    let mut rng = Rng::new(seed);
    let mut fresh = |count: usize| -> Vec<Publication> {
        (0..count)
            .map(|_| {
                Publication::new(
                    rng.next_u64() % 1_000,
                    rng.next_u64().to_le_bytes().to_vec(),
                )
            })
            .collect()
    };
    let common = fresh(stored);
    let only_a = fresh(missing);
    let only_b = fresh(missing);
    // Small stores are over in microseconds; repeat them to a measurable size.
    let repeats = (20_000 / stored).max(1);

    let insert_s = time_median(5, || {
        for _ in 0..repeats {
            let mut t = PatriciaTrie::new();
            for p in &common {
                t.insert(p.clone());
            }
            black_box(t.root_hash());
        }
    });
    let batch_s = time_median(5, || {
        for _ in 0..repeats {
            let mut t = PatriciaTrie::new();
            let batch: TrieBatch = common.iter().cloned().collect();
            black_box(batch.apply(&mut t));
        }
    });

    let mut full = PatriciaTrie::new();
    for p in &common {
        full.insert(p.clone());
    }
    let mut sync_msgs = 0usize;
    let sync_s = time_median(5, || {
        let (mut a, mut b) = (full.clone(), full.clone());
        for p in &only_a {
            a.insert(p.clone());
        }
        for p in &only_b {
            b.insert(p.clone());
        }
        let s = sync::sync_pair(&mut a, &mut b, 64);
        assert!(s.converged, "two tries did not reconcile");
        sync_msgs = s.check_msgs + s.check_and_publish_msgs + s.publish_msgs;
    });
    let commit_s = time_median(5, || {
        let mut db = MemoryTrieDb::new();
        let root = full.commit_to(&mut db);
        let back = PatriciaTrie::open_from(&db, root).expect("a committed trie opens");
        assert_eq!(back.root_hash(), full.root_hash());
    });

    let per_pub = (repeats * stored) as f64;
    TrieCosts {
        insert_ns: insert_s * 1e9 / per_pub,
        batch_apply_ns_per_pub: batch_s * 1e9 / per_pub,
        sync_us: sync_s * 1e6,
        sync_msgs_per_missing_pub: sync_msgs as f64 / (2 * missing) as f64,
        commit_open_us: commit_s * 1e6,
    }
}

pub struct SnapshotCosts {
    pub bytes: f64,
    pub save_mb_s: f64,
    pub restore_mb_s: f64,
}

/// Checkpoints `state` to text and restores it: size and both speeds.
/// The restored world must checkpoint to the same text.
pub fn snapshot_costs(state: &dyn PubSub) -> SnapshotCosts {
    let t = Instant::now();
    let snap = state.save_snapshot().expect("simulated backends snapshot");
    let text = snap.as_text().to_string();
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parsed = BackendSnapshot::from_text(&text).expect("a snapshot just written parses");
    let back = restore(&parsed).expect("a snapshot just written restores");
    let restore_s = t.elapsed().as_secs_f64();
    let again = back.save_snapshot().expect("the restored world snapshots");
    assert!(
        again.as_text() == text,
        "restore then save changed the snapshot"
    );
    let mb = text.len() as f64 / 1e6;
    SnapshotCosts {
        bytes: text.len() as f64,
        save_mb_s: mb / save_s,
        restore_mb_s: mb / restore_s,
    }
}

/// Nanoseconds to hash one 16-byte payload, and to label one ring index.
pub fn hash_and_label_ns() -> (f64, f64) {
    const N: u64 = 200_000;
    let hash_s = time_median(5, || {
        let mut acc = 0u128;
        for i in 0..N {
            let mut payload = [0u8; 16];
            payload[..8].copy_from_slice(&i.to_le_bytes());
            acc ^= Hash128::of_bytes(black_box(&payload)).0;
        }
        black_box(acc);
    });
    let label_s = time_median(5, || {
        let mut acc = 0u64;
        for i in 0..N {
            acc ^= Label::from_index(black_box(i)).frac();
        }
        black_box(acc);
    });
    (hash_s * 1e9 / N as f64, label_s * 1e9 / N as f64)
}
