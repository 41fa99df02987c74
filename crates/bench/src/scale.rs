//! `bench scale` → `BENCH_scale.json`: the 10k → 100k → 1M scale sweep
//! behind the "break the 10k barrier" work — inline bit strings,
//! interned payloads, struct-of-arrays slab state and bounded delivery
//! budgets. What the two legs and the baseline pricing measure, and
//! what is asserted in-run, is said once, in the text the artifact
//! carries: [`DESCRIPTION`], [`METHODOLOGY`], [`NOTE`]. Per row:
//!
//! * `stabilization_rounds` (cold) — rounds for the whole Zipf mass
//!   join (hot topics large, the tail thin — the realistic pub-sub
//!   shape) to reach legitimacy;
//! * `steady_rounds_per_sec` — maintenance-round throughput
//!   (timeouts, probes, ring repair, anti-entropy);
//! * `join_stabilization_rounds` (warm) — rounds for a join batch to be
//!   absorbed back to legitimacy (the production event; grows far
//!   slower than the cold mass join);
//! * `peak_in_flight` — the engine's high-water in-flight gauge;
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
use skippub_harness::scenario::failover::topic_digest;
use std::time::Instant;

const SEED: u64 = 0x5CA1EB18;
/// The artifact's `description`: what the suite measures.
pub const DESCRIPTION: &str = "Scale sweep for the inline-BitStr + interner + SoA-slab + delivery-budget work: a cold Zipf mass-join leg (sharded backend, up to cold_max) and a warm legitimate-ring leg (single-topic core, every n incl. 1M; steady maintenance rounds + a 64-node join batch), with the comparison systems priced at the same populations.";
/// The artifact's `methodology`: how to read its gauges.
pub const METHODOLOGY: &str = "alloc_high_water_mb is the high-water mark of live heap bytes (allocations minus frees) tracked by a counting global allocator; per row it is a delta from the level just before that population builds, at the top level it is the whole run's. It is a deterministic RSS proxy: it excludes allocator slack, code and stacks, so it understates OS RSS, but it is reproducible and comparable across runs. steady_rounds_per_sec is wall-clock over the timed rounds on the cores recorded above.";
/// The artifact's `note`: what is asserted in-run and how to read the rows.
pub const NOTE: &str = "budget_digest_match is asserted in-run before anything is measured: a serialized-join scenario executed with per-round delivery budgets 1 and 4 must reach the identical final checker-snapshot digests and delivered sets as the unbounded run. The scaling story: skippub join_stabilization_rounds and chord/skipgraph route hops grow ~log n, while the broker's per-publication fan-out and ringcast's broadcast steps grow linearly with the hot topic's membership. Cold mass-join stabilization (cold_zipf) grows ~linearly in n under randomized supervisor probing, which is why populations listed in cold_skipped run the warm leg only.";
const TOPICS: u32 = 64;
const SHARDS: usize = 8;
const ZIPF_S: f64 = 1.0;
/// Round budget of every until-legitimate wait.
const WARM_BUDGET: u64 = 50_000;
/// Largest population that runs the cold leg: cold mass-join
/// stabilization grows ~linearly in n, so cold 1M is hours of wall
/// clock while warm 1M is seconds per round.
const COLD_MAX: usize = 100_000;
/// Fresh joiners the warm leg feeds a legitimate ring.
const JOIN_BATCH: usize = 64;

/// Populations and timed steady rounds of a run. Smoke is CI's fast
/// path: one population, a couple of timed rounds — enough to prove the
/// plumbing (artifact, RSS gauge, budget equivalence).
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
        "steady_rounds_per_sec": steady_rounds_per_sec,
        "peak_in_flight": stats.peak_in_flight,
        "alloc_high_water_mb": Fixed(peak_mb_above(baseline), 1),
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

/// Runs the serialized-join equivalence scenario under one budget and
/// returns (per-topic digests, per-subscriber delivered sets).
fn budget_outcome(budget: Option<u32>) -> (Vec<String>, Vec<Vec<Vec<u8>>>) {
    let topics = 4u32;
    let mut ps: PartitionedBackend = SystemBuilder::new(0xB0D6E7)
        .topics(topics)
        .shards(2)
        .delivery_budget(budget)
        .build_sharded();
    let mut ids = Vec::new();
    // Joins are serialized (each reaches legitimacy before the next) so
    // the final topology is budget-independent by construction; what the
    // assertion then proves is that budgeted delivery loses nothing and
    // corrupts nothing on the way there.
    for i in 0..6u32 {
        let id = ps.subscribe(TopicId(i % topics));
        ids.push(id);
        let (_, ok) = ps.until_legit(30_000);
        assert!(ok, "serialized join {i} must stabilize (budget {budget:?})");
    }
    ps.publish(ids[0], TopicId(0), b"budget invariant".to_vec())
        .expect("author is a member");
    ps.publish(ids[1], TopicId(1), b"second story".to_vec())
        .expect("author is a member");
    let (_, ok) = ps.until_pubs_converged(30_000);
    assert!(ok, "publications must converge (budget {budget:?})");
    let digests = (0..topics).map(|t| topic_digest(&ps, TopicId(t))).collect();
    let delivered = ids
        .iter()
        .map(|&id| {
            let mut d: Vec<Vec<u8>> = ps.drain_events(id).into_iter().map(|e| e.payload).collect();
            d.sort();
            d
        })
        .collect();
    (digests, delivered)
}

fn assert_budget_equivalence() {
    eprintln!("[equivalence] budgeted vs unbounded digests and delivered sets ...");
    let unbounded = budget_outcome(None);
    for b in [1u32, 4] {
        assert_eq!(unbounded, budget_outcome(Some(b)), "budget {b} diverged");
    }
}

/// Runs the sweep and returns the `BENCH_scale.json` artifact.
pub fn run(smoke: bool) -> Json {
    let (populations, steady_rounds) = if smoke { SMOKE } else { FULL };
    assert_budget_equivalence();

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
        ("budget_digest_match", true.into()),
        ("cold_zipf", Json::Arr(cold)),
        ("cold_skipped", cold_skipped.into_iter().collect()),
        ("warm", Json::Arr(warm)),
        ("baselines", Json::Arr(baselines)),
        ("note", NOTE.into()),
    ]);
    Json::Obj(artifact)
}
