//! `bench parallel` → `BENCH_parallel.json`: round throughput of the
//! partitioned sharded backend under 1, 2, 4, and 8 worker threads,
//! against the monolithic single-world baseline (every topic instance of
//! every shard supervisor and every client in one serial `World<Actor>`,
//! at the same addresses — how the sharded backend executes without
//! partitions).
//!
//! Honesty notes, baked into the artifact:
//!
//! * `cores` records `std::thread::available_parallelism()` — the
//!   speedup of `threads=k` over `threads=1` is bounded by it, and the
//!   artifact's `note` is derived from it. On one core the executor can
//!   only demonstrate *determinism* (also checked here: aggregated
//!   metrics must be byte-identical across every thread count).
//! * Each timed measurement drives the backend in one
//!   `run_rounds(block)` batch (one worker-scope spawn per block), the
//!   intended bulk-stepping mode; `stepped_rounds_per_sec` additionally
//!   reports per-`step()` driving (one spawn per round) so the
//!   fork-join overhead is visible rather than hidden.

use crate::stamp::{cores, stamp};
use skippub_core::pubsub::{PartitionedBackend, PubSub, SystemBuilder, SHARD_SUPERVISOR_BASE};
use skippub_core::sharding::SupervisorShards;
use skippub_core::topics::TopicId;
use skippub_core::{Actor, ProtocolConfig, Subscriber, Supervisor};
use skippub_harness::json::Json::{self, Fixed};
use skippub_harness::obj;
use skippub_sim::{NodeId, World};
use std::time::Instant;

const SEED: u64 = 0x9A7A11E1;

/// Timed blocks per system: every system is timed in the same
/// round-robin order each block, and its rate is the best block
/// (min-of-blocks filtering, the repo's standard methodology) — drift
/// from background load cancels instead of crediting whichever system
/// happened to run in a quiet moment.
const BLOCKS: u64 = 24;

struct Sizes {
    n: u64,
    topics: u32,
    shards: usize,
    /// Rounds per timed block.
    block_rounds: u64,
    warmup: u64,
    /// Worker-thread counts, `1` first: the speedup base.
    threads: &'static [usize],
}

const FULL: Sizes = Sizes {
    n: 10_000,
    topics: 64,
    shards: 8,
    block_rounds: 10,
    warmup: 10,
    threads: &[1, 2, 4, 8],
};

/// Tiny-n sizes so the suite (and its monolithic-baseline construction)
/// cannot rot in CI.
const SMOKE: Sizes = Sizes {
    n: 200,
    topics: 8,
    shards: 4,
    block_rounds: 1,
    warmup: 2,
    threads: &[1, 2],
};

/// The partitioned sharded backend, populated: client `i` subscribes to
/// topic `i mod topics` (the same population for every thread count, so
/// runs are comparable and must be byte-identical).
fn sharded_system(a: &Sizes, threads: usize) -> PartitionedBackend {
    let mut ps = SystemBuilder::new(SEED)
        .topics(a.topics)
        .shards(a.shards)
        .threads(threads)
        .build_sharded();
    for i in 0..a.n {
        ps.subscribe(TopicId((i % a.topics as u64) as u32));
    }
    ps.run_rounds(a.warmup);
    ps
}

/// The monolithic baseline: identical supervisor instances, client
/// instances, addresses and topic routing, but every node in one serial
/// `World` — the unpartitioned execution of the sharded backend.
fn monolithic_system(a: &Sizes) -> World<Actor> {
    let sup_ids: Vec<NodeId> = (0..a.shards as u64)
        .map(|i| NodeId(SHARD_SUPERVISOR_BASE + i))
        .collect();
    let shards = SupervisorShards::new(&sup_ids, 64);
    let mut world = World::new(SEED);
    for t in 0..a.topics {
        let sup = TopicId(t).at(shards.supervisor_for(TopicId(t)));
        world.add_node(sup, Actor::Supervisor(Box::new(Supervisor::new(sup))));
    }
    for i in 0..a.n {
        let topic = TopicId((i % a.topics as u64) as u32);
        let id = topic.at(NodeId(i + 1));
        let sup = topic.at(shards.supervisor_for(topic));
        let client = Subscriber::new(id, sup, ProtocolConfig::default());
        world.add_node(id, Actor::Subscriber(Box::new(client)));
    }
    for _ in 0..a.warmup {
        world.run_round();
    }
    world
}

/// Rounds the rebalancing demo drives each skewed system.
const SKEW_ROUNDS: u64 = 60;

/// Drives a deliberately skewed population `SKEW_ROUNDS` rounds and
/// returns `(delivered_imbalance, lock_acquisitions_per_round,
/// rebalances)`. Client `i` subscribes to topic `trailing_zeros(i+1)`
/// (half the clients on topic 0, a quarter on topic 1, …), so one shard
/// starts with most of the subscriber work; a handful of fixed
/// publishers flood their topics every round to keep delivered-work
/// traffic flowing.
fn run_skewed(a: &Sizes, rebalance_every: u64) -> (f64, f64, u64) {
    const SKEW_CLIENTS: u64 = 512;
    let mut ps = SystemBuilder::new(SEED ^ 0x5EED)
        .topics(a.topics)
        .shards(a.shards)
        .rebalance_every(rebalance_every)
        .build_sharded();
    let mut publishers = Vec::new();
    for i in 0..SKEW_CLIENTS {
        let topic = TopicId((i + 1).trailing_zeros().min(a.topics - 1));
        let id = ps.subscribe(topic);
        if i < 6 {
            publishers.push((id, topic));
        }
    }
    ps.run_rounds(a.warmup);
    for r in 0..SKEW_ROUNDS {
        for &(id, topic) in &publishers {
            ps.publish(id, topic, vec![r as u8]);
        }
        ps.step();
    }
    let stats = ps.stats();
    (
        stats.delivered_imbalance(),
        stats.lock_acquisitions() as f64 / (a.warmup + SKEW_ROUNDS) as f64,
        ps.rebalances(),
    )
}

/// What `speedup_vs_threads1` can show on a machine with `cores` cores.
fn speedup_note(cores: usize) -> String {
    let bound = match cores {
        0 => "the machine did not report its core count, so the speedups carry no bound".to_string(),
        1 => "1 here: on one core it cannot exceed 1.0 and thread overhead makes it slightly below; the scaling headroom only shows on multi-core hardware".to_string(),
        c => format!("{c} here: a reading above {c} is measurement noise, each rate being its system's best block and a row moving by about a tenth from run to run, and rows with more than {c} threads share cores, so they show oversubscription cost, not further scaling"),
    };
    format!("speedup_vs_threads1 is bounded by cores ({bound}); determinism (byte-identical metrics for every thread count) and the lock/imbalance counters are the machine-independent claims. speedup_vs_monolithic compares against the same instances stepped in one serial world.")
}

/// Runs the measurement and returns the `BENCH_parallel.json` artifact.
pub fn run(smoke: bool) -> Json {
    let a = if smoke { &SMOKE } else { &FULL };
    let block_rounds = a.block_rounds;

    eprintln!(
        "populating the monolithic baseline and {:?}-thread systems ...",
        a.threads
    );
    let mut mono = monolithic_system(a);
    let mut systems: Vec<PartitionedBackend> =
        a.threads.iter().map(|&t| sharded_system(a, t)).collect();

    // Interleaved measurement (min-of-blocks): each block times the
    // monolithic baseline, then every partitioned system both batched
    // (`run_rounds(block)`, one worker-scope spawn per block) and
    // stepped (`step()` per round, one spawn each — the fork-join
    // overhead of unbatched driving stays visible). Interleaving keeps
    // every measured number at the same point of the protocol's state
    // trajectory, so early-stabilization traffic decay cannot favour
    // whichever mode happened to be measured later.
    let mut mono_best = f64::INFINITY;
    let mut batched_best = vec![f64::INFINITY; systems.len()];
    let mut stepped_best = vec![f64::INFINITY; systems.len()];
    for b in 0..BLOCKS {
        eprintln!("block {}/{BLOCKS} ...", b + 1);
        let t0 = Instant::now();
        for _ in 0..block_rounds {
            mono.run_round();
        }
        mono_best = mono_best.min(t0.elapsed().as_secs_f64());
        // Untimed second block: the partitioned systems advance two
        // blocks per iteration (batched + stepped), so the baseline
        // must too, or it would trail them on the state trajectory.
        for _ in 0..block_rounds {
            mono.run_round();
        }
        for (i, ps) in systems.iter_mut().enumerate() {
            // Alternate which mode gets the earlier (more trafficked)
            // of the two consecutive blocks, so the protocol's traffic
            // decay along the trajectory cannot systematically favour
            // one mode.
            for batched in [b % 2 == 0, b % 2 != 0] {
                let t0 = Instant::now();
                if batched {
                    ps.run_rounds(block_rounds);
                } else {
                    for _ in 0..block_rounds {
                        ps.step();
                    }
                }
                let best = if batched {
                    &mut batched_best[i]
                } else {
                    &mut stepped_best[i]
                };
                *best = best.min(t0.elapsed().as_secs_f64());
            }
        }
    }
    let mono_rps = block_rounds as f64 / mono_best;
    let batched_rps: Vec<f64> = batched_best
        .iter()
        .map(|s| block_rounds as f64 / s)
        .collect();

    // Every measured system stepped warmup + 2×BLOCKS×block_rounds
    // rounds in total (batched + stepped block per iteration).
    let rounds_total = (a.warmup + 2 * BLOCKS * block_rounds) as f64;

    // Comms batching contract for round-driven execution: one drain per
    // partition plus at most one mailbox-lock acquisition per ordered
    // partition pair (flushes, self excluded — local sends bypass the
    // mailbox) — ≤ partitions·(partitions−1) + partitions = partitions²
    // per round. A per-envelope locking regression blows well past
    // this. (Facade operations like `publish` flush their outbox under
    // one extra batched lock per destination; the measured rows here
    // are purely round-driven, so the p² bound applies directly.)
    let lock_bound = a.shards * a.shards;
    let rows: Json = systems
        .iter()
        .enumerate()
        .map(|(i, ps)| {
            let threads = a.threads[i];
            let locks_per_round = ps.stats().lock_acquisitions() as f64 / rounds_total;
            assert!(
                locks_per_round <= lock_bound as f64,
                "threads={threads} acquired {locks_per_round:.2} locks/round > partitions² = {lock_bound}"
            );
            obj! {
                "threads": threads,
                "batched_rounds_per_sec": Fixed(batched_rps[i], 2),
                "stepped_rounds_per_sec": Fixed(block_rounds as f64 / stepped_best[i], 2),
                "speedup_vs_threads1": Fixed(batched_rps[i] / batched_rps[0], 2),
                "speedup_vs_monolithic": Fixed(batched_rps[i] / mono_rps, 2),
                "lock_acquisitions_per_round": Fixed(locks_per_round, 2),
            }
        })
        .collect();

    // Determinism: every thread count must have produced the identical
    // execution (the measured worlds all stepped the same rounds).
    let deterministic = systems.windows(2).all(|w| w[0].metrics() == w[1].metrics());
    assert!(
        deterministic,
        "thread counts diverged: the determinism contract is broken"
    );

    eprintln!("rebalancing demo (skewed population) ...");
    let (imb_off, locks_off, _) = run_skewed(a, 0);
    let (imb_on, locks_on, rebalances) = run_skewed(a, 5);

    let mut artifact = stamp(
        "parallel",
        SEED,
        smoke,
        "Partitioned sharded backend round throughput vs worker threads, against the monolithic single-world serial baseline (the same instances and addresses in one serial world).",
    );
    artifact.extend([
        ("config", obj! {"n": a.n, "topics": a.topics, "shards": a.shards, "warmup_rounds": a.warmup, "block_rounds": block_rounds, "blocks": BLOCKS}),
        ("deterministic_across_thread_counts", deterministic.into()),
        ("monolithic_serial_rounds_per_sec", Fixed(mono_rps, 2)),
        ("results", rows),
        ("lock_acquisitions_per_round_bound", lock_bound.into()),
        ("rebalancing", obj! {
            "workload": format!("512 clients, topic = trailing_zeros(i+1) (half on topic 0), 6 publishers, {SKEW_ROUNDS} rounds, cadence 5"),
            "delivered_imbalance_off": Fixed(imb_off, 4),
            "delivered_imbalance_on": Fixed(imb_on, 4),
            "improvement": Fixed(imb_off / imb_on, 2),
            "rebalances": rebalances,
            "lock_acquisitions_per_round_off": Fixed(locks_off, 2),
            "lock_acquisitions_per_round_on": Fixed(locks_on, 2),
            "lock_note": "this workload adds 6 facade publishes per round, each flushing its outbox under one batched lock per destination — the round-loop bound stays partitions²",
        }),
        ("note", speedup_note(cores()).into()),
    ]);
    Json::Obj(artifact)
}
