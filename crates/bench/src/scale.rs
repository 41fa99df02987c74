//! `bench scale` → `BENCH_scale.json`: the 10k → 100k → 1M scale sweep
//! behind the "break the 10k barrier" work — inline bit strings,
//! struct-of-arrays slab state and one message pool per partition.
//! What the two
//! legs and the baseline pricing measure is said once, in the text the
//! artifact carries: [`DESCRIPTION`], [`METHODOLOGY`], [`NOTE`]. Per row:
//!
//! * `stabilization_rounds` (cold) — rounds for the whole Zipf mass
//!   join (hot topics large, the tail thin — the realistic pub-sub
//!   shape) to reach legitimacy, and `stabilization_secs` its wall time;
//! * `steady_rounds_per_sec` — maintenance-round throughput
//!   (timeouts, probes, ring repair, anti-entropy);
//! * `join_stabilization_rounds` (warm) — rounds for a join batch to be
//!   absorbed back to legitimacy (the production event; grows far
//!   slower than the cold mass join);
//! * `peak_in_flight` — the engine's high-water in-flight gauge;
//! * `channel_high_water_mb` — the high-water mark of the engine's
//!   channel storage (its message pools), beside the row's
//!   `alloc_high_water_mb`, so the heap splits into the channel layer
//!   and the rest;
//! * `bitstr_spills_steady` — `BitStr` heap spills during the timed
//!   window (0 on the inline path: labels and 64-bit keys fit the
//!   in-struct representation).
//!
//! The warm leg builds one legitimate ring of size `n` directly — one
//! ring is *harder* than any Zipf split of the same population.

use crate::json::Json::{self, Fixed};
use crate::obj;
use crate::stamp::{peak_mb_above, reset_peak, stamp};
use crate::zipf::{splitmix64, Zipf};
use skippub_bits::BitStr;
use skippub_core::pubsub::{PartitionedBackend, SystemBuilder};
use skippub_core::{PubSub, TopicId};
use std::time::Instant;

const SEED: u64 = 0x5CA1EB18;
/// The artifact's `description`: what the suite measures.
pub const DESCRIPTION: &str = "Scale sweep for the inline-BitStr + SoA-slab + per-partition message pool work: a cold Zipf mass-join leg (sharded backend, up to cold_max) and a warm legitimate-ring leg (single-topic core, every n incl. 1M; steady maintenance rounds + a 64-node join batch), with the comparison systems priced at the same populations.";
/// The artifact's `methodology`: how to read its gauges.
pub const METHODOLOGY: &str = "alloc_high_water_mb is the high-water mark of live heap bytes (allocations minus frees) tracked by a counting global allocator; per row it is a delta from the level just before that population builds, at the top level it is the whole run's. It is a deterministic RSS proxy: it excludes allocator slack, code and stacks, so it understates OS RSS, but it is reproducible and comparable across runs. channel_high_water_mb is the engine's own high-water mark of channel segment storage (World::peak_channel_bytes: every partition's message pool, summed over partitions like peak_in_flight), the part of alloc_high_water_mb that holds messages in flight. steady_rounds_per_sec is wall-clock over the timed rounds on the cores recorded above.";
/// The artifact's `note`: how to read the rows.
pub const NOTE: &str = "The scaling story: skippub join_stabilization_rounds and chord/skipgraph route hops grow ~log n, while the broker's per-publication fan-out and ringcast's broadcast steps grow linearly with the hot topic's membership. Cold mass-join stabilization (cold_zipf) runs at every population up to cold_max, 1M included; stabilization_secs is its wall time on the cores recorded above. The supervisor keeps an inverse index beside its label database and runs its full repair pass only while the database is not known to be a bijection onto l(0..n) (DESIGN.md 3), so its local work per join or leave is O(log n): a cold round costs about what its messages (sent_total / stabilization_rounds) cost. While every supervisor handler rescanned the database, the cold 100k leg took 96-168 s on 2 cores (the same 25 rounds and messages) and 1M was skipped.";
const TOPICS: u32 = 64;
const SHARDS: usize = 8;
const ZIPF_S: f64 = 1.0;
/// Round budget of every until-legitimate wait.
const WARM_BUDGET: u64 = 50_000;
/// Largest population that runs the cold leg: all of them. While every
/// supervisor handler rescanned its database, a cold round's cost grew
/// with the hot topic's membership squared — the 100k leg took 96–168 s
/// on 2 cores and 1M was skipped. The supervisor's inverse index
/// (DESIGN.md §3) makes that work O(log n) per join.
const COLD_MAX: usize = 1_000_000;
/// Fresh joiners the warm leg feeds a legitimate ring.
const JOIN_BATCH: usize = 64;

/// Populations and timed steady rounds of a run. Smoke is CI's fast
/// path: one population, a couple of timed rounds — enough to prove the
/// plumbing (artifact, RSS gauge).
const FULL: (&[usize], u64) = (&[10_000, 100_000, 1_000_000], 6);
const SMOKE: (&[usize], u64) = (&[10_000], 2);

/// The topic each of `n` subscribers draws from the sweep's Zipf stream
/// for `n`, and the hot topic's membership.
fn zipf_topics(n: usize) -> (Vec<u32>, usize) {
    let zipf = Zipf::new(TOPICS as usize, ZIPF_S);
    let mut rng = SEED ^ n as u64;
    let mut members = vec![0usize; TOPICS as usize];
    let topics = (0..n)
        .map(|_| zipf.sample(&mut rng) as u32)
        .collect::<Vec<_>>();
    for &t in &topics {
        members[t as usize] += 1;
    }
    (topics, members.into_iter().max().unwrap_or(0))
}

/// The high-water mark of the backend's channel storage, in MB.
fn channel_mb(ps: &PartitionedBackend) -> Json {
    Fixed(ps.world().peak_channel_bytes() as f64 / (1024.0 * 1024.0), 1)
}

/// Times `rounds` steady maintenance rounds: `steady_rounds_per_sec`
/// and the `BitStr` heap spills inside the window.
fn timed_steady(ps: &mut dyn PubSub, rounds: u64) -> (Json, u64) {
    let spills_before = BitStr::heap_allocations();
    let t0 = Instant::now();
    for _ in 0..rounds {
        ps.step();
    }
    let rate = Fixed(rounds as f64 / t0.elapsed().as_secs_f64(), 3);
    (rate, BitStr::heap_allocations() - spills_before)
}

fn measure_cold(n: usize, topics: &[u32], hot_members: usize, steady_rounds: u64) -> Json {
    let baseline = reset_peak();
    eprintln!("[skippub n={n}] cold mass-join ({TOPICS} topics, Zipf s={ZIPF_S}) ...");
    let mut ps: PartitionedBackend = SystemBuilder::new(SEED ^ n as u64)
        .topics(TOPICS)
        .shards(SHARDS)
        .build_sharded();
    for &t in topics {
        ps.subscribe(TopicId(t));
    }
    let t0 = Instant::now();
    let (stabilization_rounds, ok) = ps.until_legit(WARM_BUDGET);
    assert!(ok, "n={n}: cold mass-join did not stabilize");
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("[skippub n={n}] legitimate after {stabilization_rounds} rounds ({secs:.1}s)");

    let (steady_rounds_per_sec, bitstr_spills_steady) = timed_steady(&mut ps, steady_rounds);
    let stats = ps.stats();
    let row = obj! {
        "n": n,
        "hot_topic_members": hot_members,
        "stabilization_rounds": stabilization_rounds,
        "stabilization_secs": Fixed(secs, 1),
        "steady_rounds_per_sec": steady_rounds_per_sec,
        "peak_in_flight": stats.peak_in_flight,
        "alloc_high_water_mb": Fixed(peak_mb_above(baseline), 1),
        "channel_high_water_mb": channel_mb(&ps),
        "bitstr_spills_steady": bitstr_spills_steady,
        "sent_total": stats.sent,
    };
    eprintln!("[skippub n={n}] {row}");
    row
}

/// The warm leg: a fully legitimate `n`-node single-topic ring built
/// directly, timed through steady maintenance rounds and a
/// [`JOIN_BATCH`]-node join batch. This is the leg that reaches n = 1M.
fn measure_warm(n: usize, steady_rounds: u64) -> Json {
    let baseline = reset_peak();
    eprintln!("[warm n={n}] building legitimate world ...");
    let t0 = Instant::now();
    let mut ps = crate::legit_backend(n, SEED ^ n as u64);
    eprintln!("[warm n={n}] built in {:.1}s", t0.elapsed().as_secs_f64());

    // Let the first timeout wave and its probe responses settle so the
    // timed window is genuine steady state.
    ps.step();
    ps.step();
    let (steady_rounds_per_sec, bitstr_spills_steady) = timed_steady(&mut ps, steady_rounds);

    // The production event: a batch of fresh joiners absorbed by a
    // legitimate network.
    for _ in 0..JOIN_BATCH {
        ps.subscribe(TopicId(0));
    }
    let (join_stabilization_rounds, ok) = ps.until_legit(WARM_BUDGET);
    assert!(ok, "warm n={n}: join batch was not absorbed");

    let stats = ps.stats();
    let row = obj! {
        "n": n,
        "steady_rounds_per_sec": steady_rounds_per_sec,
        "join_stabilization_rounds": join_stabilization_rounds,
        "peak_in_flight": stats.peak_in_flight,
        "alloc_high_water_mb": Fixed(peak_mb_above(baseline), 1),
        "channel_high_water_mb": channel_mb(&ps),
        "bitstr_spills_steady": bitstr_spills_steady,
        "sent_total": stats.sent,
    };
    eprintln!("[warm n={n}] {row}");
    row
}

/// Prices the comparison systems at population `n`, whose hot topic
/// has `hot_members` members.
fn measure_baselines(n: usize, hot_members: usize) -> Vec<Json> {
    use skippub_baselines::{Broker, Chord, RingCast, SkipGraph};

    // Broker: every publication to the hot topic is one server-side
    // fan-out of `members` unicasts — linear in the topic size, and the
    // broker terminates all n client connections.
    let mut broker = Broker::new();
    for _ in 0..hot_members {
        broker.subscribe(0);
    }
    broker.publish(0);
    let fanout = broker.subscribers(0) as f64 + 1.0;

    // RingCast: ring-only dissemination delivers to the farthest member
    // of the hot topic in m-1 steps — linear.
    let steps = RingCast::new(hot_members.max(2)).broadcast_steps() as f64;

    // Chord / SkipGraph: logarithmic routes, but unsupervised placement
    // (hashing / random membership vectors). Mean sampled route length.
    let samples = 64usize;
    let mut state = SEED ^ 0xC0 ^ n as u64;
    let node = |state: &mut u64| (splitmix64(state) % n as u64) as usize;
    let chord = Chord::new(n, SEED ^ n as u64);
    let mut chord_hops = 0usize;
    for _ in 0..samples {
        let from = node(&mut state);
        chord_hops += chord.route(from, splitmix64(&mut state)).len();
    }
    let sg = SkipGraph::new(n, SEED ^ n as u64);
    let mut sg_hops = 0usize;
    for _ in 0..samples {
        let (from, to) = (node(&mut state), node(&mut state));
        sg_hops += sg.search(from, to).len();
    }

    let mean = |hops: usize| hops as f64 / samples as f64;
    [
        ("broker", "fanout_per_publication_hot_topic", fanout),
        ("ringcast", "broadcast_steps_hot_topic", steps),
        ("chord", "mean_route_hops", mean(chord_hops)),
        ("skipgraph", "mean_search_hops", mean(sg_hops)),
    ]
    .into_iter()
    .map(|(system, metric, value)| {
        eprintln!("[{system} n={n}] {metric} = {value:.2}");
        obj! {"system": system, "n": n, "metric": metric, "value": Fixed(value, 2)}
    })
    .collect()
}

/// Runs the sweep and returns the `BENCH_scale.json` artifact.
pub fn run(smoke: bool) -> Json {
    let (populations, steady_rounds) = if smoke { SMOKE } else { FULL };

    let mut cold = Vec::new();
    let mut cold_skipped = Vec::new();
    let mut warm = Vec::new();
    let mut baselines = Vec::new();
    for &n in populations {
        // Priced standalone, so sizes whose cold leg is skipped have
        // their baselines too.
        let (topics, hot_members) = zipf_topics(n);
        if n <= COLD_MAX {
            cold.push(measure_cold(n, &topics, hot_members, steady_rounds));
        } else {
            // No silent caps: the skip is logged and recorded in the
            // artifact.
            eprintln!("[skippub n={n}] cold Zipf leg skipped (> cold_max {COLD_MAX})");
            cold_skipped.push(n);
        }
        // Each leg's backend drops at the end of its measure fn; live
        // bytes are back near baseline before the next one builds.
        warm.push(measure_warm(n, steady_rounds));
        baselines.extend(measure_baselines(n, hot_members));
    }

    let mut artifact = stamp("scale", SEED, smoke, DESCRIPTION);
    artifact.extend([
        ("methodology", METHODOLOGY.into()),
        ("config", obj! {"topics": TOPICS, "shards": SHARDS, "zipf_s": Fixed(ZIPF_S, 0), "steady_rounds": steady_rounds, "warm_budget": WARM_BUDGET, "cold_max": COLD_MAX}),
        ("cold_zipf", Json::Arr(cold)),
        ("cold_skipped", cold_skipped.into_iter().collect()),
        ("warm", Json::Arr(warm)),
        ("baselines", Json::Arr(baselines)),
        ("note", NOTE.into()),
    ]);
    Json::Obj(artifact)
}
