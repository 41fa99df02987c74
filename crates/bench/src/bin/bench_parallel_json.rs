//! Emits `BENCH_parallel.json`: round throughput of the partitioned
//! sharded backend under 1, 2, 4, and 8 worker threads, against the
//! monolithic single-world baseline (every shard supervisor and every
//! client in one serial `World<MultiActor>` — exactly how the sharded
//! backend executed before it was partitioned).
//!
//! Honesty notes, baked into the emitted JSON:
//!
//! * `cores` records `std::thread::available_parallelism()` — the
//!   speedup of `threads=k` over `threads=1` is bounded by it. On a
//!   single-core container the executor can only demonstrate
//!   *determinism* (also checked here: aggregated metrics must be
//!   byte-identical across every thread count); the scaling headroom
//!   shows on multi-core hardware.
//! * Each timed measurement drives the backend in one
//!   `run_rounds(block)` batch (one worker-scope spawn per block), the
//!   intended bulk-stepping mode; `stepped_rounds_per_sec` additionally
//!   reports per-`step()` driving (one spawn per round) so the
//!   fork-join overhead is visible rather than hidden.
//!
//! ```text
//! cargo run --release -p skippub-bench --bin bench_parallel_json \
//!     [-- --n 10000 --topics 64 --shards 8 --rounds 60 --out BENCH_parallel.json]
//! ```

use skippub_core::pubsub::{PubSub, PartitionedBackend, SystemBuilder, SHARD_SUPERVISOR_BASE};
use skippub_core::sharding::SupervisorShards;
use skippub_core::topics::{MultiActor, TopicId};
use skippub_core::ProtocolConfig;
use skippub_sim::{Metrics, NodeId, World};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 0x9A7A11E1;

struct Args {
    n: u64,
    topics: u32,
    shards: usize,
    rounds: u64,
    warmup: u64,
    threads: Vec<usize>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 10_000,
        topics: 64,
        shards: 8,
        rounds: 240,
        warmup: 10,
        threads: vec![1, 2, 4, 8],
        out: "BENCH_parallel.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", argv[i]))
                .clone()
        };
        match argv[i].as_str() {
            "--n" => args.n = value().parse().expect("--n"),
            "--topics" => args.topics = value().parse().expect("--topics"),
            "--shards" => args.shards = value().parse().expect("--shards"),
            "--rounds" => args.rounds = value().parse().expect("--rounds"),
            "--warmup" => args.warmup = value().parse().expect("--warmup"),
            "--threads" => {
                args.threads = value()
                    .split(',')
                    .map(|t| t.parse().expect("--threads list"))
                    .collect()
            }
            "--out" => args.out = value(),
            other => panic!("unknown argument {other:?}"),
        }
        i += 2;
    }
    args
}

/// The partitioned sharded backend, populated: client `i` subscribes to
/// topic `i mod topics` (the same population for every thread count, so
/// runs are comparable and must be byte-identical).
fn sharded_system(a: &Args, threads: usize) -> PartitionedBackend {
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

/// The monolithic baseline: identical supervisors, clients, and topic
/// routing, but every node in one serial `World` — the pre-partitioning
/// execution of the sharded backend.
fn monolithic_system(a: &Args) -> World<MultiActor> {
    let sup_ids: Vec<NodeId> = (0..a.shards as u64)
        .map(|i| NodeId(SHARD_SUPERVISOR_BASE + i))
        .collect();
    let shards = SupervisorShards::new(&sup_ids, 64);
    let mut world = World::new(SEED);
    for &s in &sup_ids {
        world.add_node(s, MultiActor::new_supervisor(s));
    }
    for i in 0..a.n {
        let id = NodeId(i + 1);
        let topic = TopicId((i % a.topics as u64) as u32);
        let mut client = MultiActor::new_client(id, sup_ids[0], ProtocolConfig::default());
        client.join_topic_at(topic, shards.supervisor_for(topic));
        world.add_node(id, client);
    }
    for _ in 0..a.warmup {
        world.run_round();
    }
    world
}

struct Row {
    threads: usize,
    batched_rps: f64,
    stepped_rps: f64,
    metrics: Metrics,
    locks_per_round: f64,
}

/// A deliberately skewed population for the rebalancing demo: client
/// `i` subscribes to topic `trailing_zeros(i+1)` (half the clients on
/// topic 0, a quarter on topic 1, …), so one shard starts with most of
/// the subscriber work. A handful of fixed publishers flood their
/// topics every round to keep delivered-work traffic flowing.
fn skewed_system(a: &Args, rebalance_every: u64) -> (PartitionedBackend, Vec<(NodeId, TopicId)>) {
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
    (ps, publishers)
}

/// Drives a skewed system `rounds` rounds with per-round publishes and
/// returns `(delivered_imbalance, lock_acquisitions_per_round,
/// rebalances)`.
fn run_skewed(a: &Args, rebalance_every: u64, rounds: u64) -> (f64, f64, u64) {
    let (mut ps, publishers) = skewed_system(a, rebalance_every);
    for r in 0..rounds {
        for &(id, topic) in &publishers {
            ps.publish(id, topic, vec![r as u8]);
        }
        ps.step();
    }
    let stats = ps.stats();
    let total_rounds = a.warmup + rounds;
    (
        stats.delivered_imbalance(),
        stats.lock_acquisitions() as f64 / total_rounds as f64,
        ps.rebalances(),
    )
}

/// Timed blocks per system: every system is timed in the same
/// round-robin order each block, and its rate is the best block
/// (min-of-blocks filtering, the repo's standard methodology) — drift
/// from background load cancels instead of crediting whichever system
/// happened to run in a quiet moment.
const BLOCKS: u64 = 24;

fn main() {
    let a = parse_args();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let block_rounds = (a.rounds / BLOCKS).max(1);

    eprintln!("populating monolithic baseline + {} partitioned systems ...", a.threads.len());
    let mut mono = monolithic_system(&a);
    let mut systems: Vec<(usize, PartitionedBackend)> = a
        .threads
        .iter()
        .map(|&t| (t, sharded_system(&a, t)))
        .collect();

    // Interleaved measurement (min-of-blocks): each block times the
    // monolithic baseline, then every partitioned system both batched
    // (`run_rounds(block)`, one worker-scope spawn per block) and
    // stepped (`step()` per round, one spawn each — the fork-join
    // overhead of unbatched driving stays visible). Interleaving keeps
    // every measured number at the same point of the protocol's state
    // trajectory, so early-stabilization traffic decay cannot favour
    // whichever mode happened to be measured later.
    let mut mono_best = f64::INFINITY;
    let mut batched_best: Vec<f64> = vec![f64::INFINITY; systems.len()];
    let mut stepped_best: Vec<f64> = vec![f64::INFINITY; systems.len()];
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
        for (i, (_, ps)) in systems.iter_mut().enumerate() {
            // Alternate which mode gets the earlier (more trafficked)
            // of the two consecutive blocks, so the protocol's traffic
            // decay along the trajectory cannot systematically favour
            // one mode.
            let batched = |ps: &mut PartitionedBackend| {
                let t0 = Instant::now();
                ps.run_rounds(block_rounds);
                t0.elapsed().as_secs_f64()
            };
            let stepped = |ps: &mut PartitionedBackend| {
                let t0 = Instant::now();
                for _ in 0..block_rounds {
                    ps.step();
                }
                t0.elapsed().as_secs_f64()
            };
            if b % 2 == 0 {
                batched_best[i] = batched_best[i].min(batched(ps));
                stepped_best[i] = stepped_best[i].min(stepped(ps));
            } else {
                stepped_best[i] = stepped_best[i].min(stepped(ps));
                batched_best[i] = batched_best[i].min(batched(ps));
            }
        }
    }
    let mono_rps = block_rounds as f64 / mono_best;

    // Every measured system stepped warmup + 2×BLOCKS×block_rounds
    // rounds in total (batched + stepped block per iteration).
    let rounds_total = a.warmup + 2 * BLOCKS * block_rounds;
    let rows: Vec<Row> = systems
        .iter()
        .enumerate()
        .map(|(i, (threads, ps))| Row {
            threads: *threads,
            batched_rps: block_rounds as f64 / batched_best[i],
            stepped_rps: block_rounds as f64 / stepped_best[i],
            metrics: ps.metrics(),
            locks_per_round: ps.stats().lock_acquisitions() as f64 / rounds_total as f64,
        })
        .collect();

    // Comms batching contract for round-driven execution: one drain per
    // partition plus at most one mailbox-lock acquisition per ordered
    // partition pair (flushes, self excluded — local sends bypass the
    // mailbox) — ≤ partitions·(partitions−1) + partitions = partitions²
    // per round. A per-envelope locking regression blows well past
    // this. (Facade operations like `publish` flush their outbox under
    // one extra batched lock per destination; the measured rows here
    // are purely round-driven, so the p² bound applies directly.)
    let lock_bound = (a.shards * a.shards) as f64;
    for r in &rows {
        assert!(
            r.locks_per_round <= lock_bound,
            "threads={} acquired {:.2} locks/round > partitions² = {lock_bound}",
            r.threads,
            r.locks_per_round
        );
    }

    eprintln!("rebalancing demo (skewed population) ...");
    let skew_rounds = 60;
    let (imb_off, locks_off, _) = run_skewed(&a, 0, skew_rounds);
    let (imb_on, locks_on, rebalances) = run_skewed(&a, 5, skew_rounds);

    // Determinism: every thread count must have produced the identical
    // execution (the measured worlds all stepped warmup + 2×rounds).
    let deterministic = rows.windows(2).all(|w| w[0].metrics == w[1].metrics);
    assert!(
        deterministic,
        "thread counts diverged — the executor's determinism contract is broken"
    );

    // `None` when the --threads list omits 1: the field is emitted as
    // JSON null then, never as an unparseable bare NaN.
    let base_rps = rows.iter().find(|r| r.threads == 1).map(|r| r.batched_rps);

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"skippub-bench/parallel/v1\",\n");
    json.push_str("  \"description\": \"Partitioned sharded backend round throughput vs worker threads, against the monolithic single-world serial baseline (the pre-partitioning execution). Regenerate with: cargo run --release -p skippub-bench --bin bench_parallel_json\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n\": {}, \"topics\": {}, \"shards\": {}, \"warmup_rounds\": {}, \"block_rounds\": {block_rounds}, \"blocks\": {BLOCKS}}},",
        a.n, a.topics, a.shards, a.warmup
    );
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"deterministic_across_thread_counts\": {deterministic},");
    let _ = writeln!(
        json,
        "  \"monolithic_serial_rounds_per_sec\": {mono_rps:.2},"
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let vs_base = match base_rps {
            Some(base) => format!("{:.2}", r.batched_rps / base),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"batched_rounds_per_sec\": {:.2}, \"stepped_rounds_per_sec\": {:.2}, \"speedup_vs_threads1\": {vs_base}, \"speedup_vs_monolithic\": {:.2}, \"lock_acquisitions_per_round\": {:.2}}}{}",
            r.threads,
            r.batched_rps,
            r.stepped_rps,
            r.batched_rps / mono_rps,
            r.locks_per_round,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"lock_acquisitions_per_round_bound\": {},",
        a.shards * a.shards
    );
    let _ = writeln!(
        json,
        "  \"rebalancing\": {{\"workload\": \"512 clients, topic = trailing_zeros(i+1) (half on topic 0), 6 publishers, {skew_rounds} rounds, cadence 5\", \"delivered_imbalance_off\": {imb_off:.4}, \"delivered_imbalance_on\": {imb_on:.4}, \"improvement\": {:.2}, \"rebalances\": {rebalances}, \"lock_acquisitions_per_round_off\": {locks_off:.2}, \"lock_acquisitions_per_round_on\": {locks_on:.2}, \"lock_note\": \"this workload adds 6 facade publishes per round, each flushing its outbox under one batched lock per destination — the round-loop bound stays partitions\\u00b2\"}},",
        imb_off / imb_on
    );
    let _ = writeln!(
        json,
        "  \"note\": \"speedup_vs_threads1 is bounded by cores ({cores} here — on this single-core container it cannot exceed 1.0 and thread overhead makes it slightly below; the scaling headroom only shows on multi-core hardware); determinism (byte-identical metrics for every thread count) and the lock/imbalance counters are the machine-independent claims. speedup_vs_monolithic compares against the old single-world serial execution on the same population.\""
    );
    json.push_str("}\n");

    std::fs::write(&a.out, &json).expect("write BENCH_parallel.json");
    eprintln!("wrote {}", a.out);
    print!("{json}");
}
