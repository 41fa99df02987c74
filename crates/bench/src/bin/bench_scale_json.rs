//! Emits `BENCH_scale.json`: the 10k → 100k → 1M scale sweep behind the
//! "break the 10k barrier" work — inline bit strings, interned payloads,
//! struct-of-arrays slab state and bounded delivery budgets.
//!
//! Two legs per population `n`:
//!
//! **Cold Zipf leg** (sharded backend, up to `--cold-max`, default
//! 100k): cold-joins `n` subscribers whose topics are drawn from a Zipf
//! distribution (hot topics are large, the tail is thin — the realistic
//! pub-sub shape) and records `stabilization_rounds` for the whole mass
//! join to reach legitimacy. Empirically this grows ~linearly in `n`:
//! randomized supervisor probing (`ProbeMode::Randomized`) spreads the
//! introductions out, so the cold leg is capped and the cap is recorded
//! in the artifact (`cold_skipped`) rather than silently dropped.
//!
//! **Warm leg** (single-topic core, every `n` including 1M): builds a
//! fully legitimate `n`-node ring directly (`scenarios::legit_world` —
//! one ring of size `n` is *harder* than any Zipf split of the same
//! population) and records:
//!
//! * `steady_rounds_per_sec` — maintenance-round throughput
//!   (timeouts, probes, ring repair, anti-entropy);
//! * `join_stabilization_rounds` — rounds for a 64-node join batch to
//!   be absorbed back to legitimacy (the production event; grows far
//!   slower than the cold mass join);
//! * `peak_in_flight` — the engine's high-water in-flight message
//!   gauge;
//! * `alloc_high_water_mb` — the RSS proxy: high-water of *live* heap
//!   bytes tracked by a counting global allocator (see `methodology`
//!   in the JSON header);
//! * `bitstr_spills_steady` — `BitStr` heap spills during the timed
//!   steady window (0 on the inline path: labels and 64-bit keys fit
//!   the in-struct representation).
//!
//! The same sweep sizes are priced for the comparison systems
//! (broker / ringcast / chord / skipgraph — topology/cost models, same
//! honesty as the E9/E10 benches): the broker's per-publication fan-out
//! and ringcast's broadcast steps degrade linearly with the hot topic
//! while chord/skipgraph routes and skippub stabilization stay
//! logarithmic.
//!
//! Budgeted-vs-unbounded equivalence is asserted **in-run** at a small
//! population before any JSON is written: a serialized-join scenario is
//! executed unbounded and with per-round delivery budgets 1 and 4, and
//! the final checker-snapshot digests plus every subscriber's delivered
//! set must match exactly (`budget_digest_match` in the artifact).
//!
//! ```text
//! cargo run --release -p skippub-bench --bin bench_scale_json \
//!     [-- --sizes 10000,100000,1000000 --topics 64 --shards 8 \
//!         --steady-rounds 6 --out BENCH_scale.json] [--smoke]
//! ```

use skippub_bits::BitStr;
use skippub_core::pubsub::{PartitionedBackend, SimBackend, SystemBuilder};
use skippub_core::scenarios::legit_world;
use skippub_core::{ProtocolConfig, PubSub, TopicId};
use skippub_harness::scenario::failover::topic_digest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator: the RSS proxy. Tracks live heap bytes (allocated
// minus freed) and their high-water mark. Deterministic and comparable
// across runs, unlike OS RSS; understates true RSS (allocator slack,
// code, stacks are invisible to it).
// ---------------------------------------------------------------------

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

fn on_alloc(bytes: usize) {
    let now = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: delegates directly to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Resets the high-water mark to the current live-byte level, returning
/// the level: the sweep measures per-population deltas from here.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

// ---------------------------------------------------------------------
// Arguments and the Zipf topic distribution.
// ---------------------------------------------------------------------

const SEED: u64 = 0x5CA1EB18;

struct Args {
    sizes: Vec<usize>,
    cold_max: usize,
    topics: u32,
    shards: usize,
    zipf_s: f64,
    steady_rounds: u64,
    warm_budget: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sizes: vec![10_000, 100_000, 1_000_000],
        cold_max: 100_000,
        topics: 64,
        shards: 8,
        zipf_s: 1.0,
        steady_rounds: 6,
        warm_budget: 50_000,
        out: "BENCH_scale.json".to_string(),
        smoke: false,
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
            "--sizes" => {
                args.sizes = value()
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes"))
                    .collect();
                i += 1;
            }
            "--cold-max" => {
                args.cold_max = value().parse().expect("--cold-max");
                i += 1;
            }
            "--topics" => {
                args.topics = value().parse().expect("--topics");
                i += 1;
            }
            "--shards" => {
                args.shards = value().parse().expect("--shards");
                i += 1;
            }
            "--zipf-s" => {
                args.zipf_s = value().parse().expect("--zipf-s");
                i += 1;
            }
            "--steady-rounds" => {
                args.steady_rounds = value().parse().expect("--steady-rounds");
                i += 1;
            }
            "--warm-budget" => {
                args.warm_budget = value().parse().expect("--warm-budget");
                i += 1;
            }
            "--out" => {
                args.out = value();
                i += 1;
            }
            "--smoke" => {
                args.smoke = true;
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    if args.smoke {
        // CI's fast path: one population, a couple of timed rounds —
        // enough to prove the plumbing (artifact, RSS gauge, budget
        // equivalence) without the full sweep's wall clock.
        args.sizes = vec![10_000];
        args.steady_rounds = 2;
    }
    args
}

/// splitmix64 — the repo's standard seedable scrambler.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) over `t` topics via inverse CDF: topic k (0-based) has
/// weight 1/(k+1)^s.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(t: u32, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(t as usize);
        let mut acc = 0.0;
        for k in 0..t {
            acc += 1.0 / f64::from(k + 1).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("at least one topic");
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, state: &mut u64) -> u32 {
        let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

// ---------------------------------------------------------------------
// The skippub sweep.
// ---------------------------------------------------------------------

struct ColdRow {
    n: usize,
    hot_topic_members: usize,
    stabilization_rounds: u64,
    steady_rounds_per_sec: f64,
    peak_in_flight: u64,
    alloc_high_water_mb: f64,
    bitstr_spills_steady: u64,
    sent_total: u64,
}

fn measure_cold(a: &Args, n: usize) -> ColdRow {
    let baseline = reset_peak();
    let zipf = Zipf::new(a.topics, a.zipf_s);
    let mut rng = SEED ^ n as u64;

    eprintln!("[skippub n={n}] cold mass-join ({} topics, Zipf s={}) ...", a.topics, a.zipf_s);
    let mut ps: PartitionedBackend = SystemBuilder::new(SEED ^ n as u64)
        .topics(a.topics)
        .shards(a.shards)
        .build_sharded();
    let mut members = vec![0usize; a.topics as usize];
    for _ in 0..n {
        let t = zipf.sample(&mut rng);
        members[t as usize] += 1;
        ps.subscribe(TopicId(t));
    }
    let t0 = Instant::now();
    let (stabilization_rounds, ok) = ps.until_legit(a.warm_budget);
    assert!(ok, "n={n}: cold mass-join must stabilize within {} rounds", a.warm_budget);
    eprintln!(
        "[skippub n={n}] legitimate after {stabilization_rounds} rounds ({:.1}s)",
        t0.elapsed().as_secs_f64()
    );

    let spills_before = BitStr::heap_allocations();
    let t0 = Instant::now();
    for _ in 0..a.steady_rounds {
        ps.step();
    }
    let steady_secs = t0.elapsed().as_secs_f64();
    let bitstr_spills_steady = BitStr::heap_allocations() - spills_before;

    let stats = ps.stats();
    let peak_bytes = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline);
    let row = ColdRow {
        n,
        hot_topic_members: members.iter().copied().max().unwrap_or(0),
        stabilization_rounds,
        steady_rounds_per_sec: a.steady_rounds as f64 / steady_secs,
        peak_in_flight: stats.peak_in_flight,
        alloc_high_water_mb: peak_bytes as f64 / (1024.0 * 1024.0),
        bitstr_spills_steady,
        sent_total: stats.sent,
    };
    eprintln!(
        "[skippub n={n}] steady {:.2} rounds/s, peak in-flight {}, alloc high-water {:.1} MB, spills {}",
        row.steady_rounds_per_sec, row.peak_in_flight, row.alloc_high_water_mb, row.bitstr_spills_steady
    );
    row
}

struct WarmRow {
    n: usize,
    steady_rounds_per_sec: f64,
    join_stabilization_rounds: u64,
    peak_in_flight: u64,
    alloc_high_water_mb: f64,
    bitstr_spills_steady: u64,
    sent_total: u64,
}

/// The warm leg: a fully legitimate `n`-node single-topic ring built
/// directly, timed through steady maintenance rounds and a 64-node
/// join batch. This is the leg that reaches n = 1M: the cold Zipf mass
/// join's stabilization grows ~linearly with n (randomized supervisor
/// probing spreads introductions out), so cold 1M is hours of wall
/// clock, while warm 1M is seconds per round.
fn measure_warm(a: &Args, n: usize) -> WarmRow {
    let baseline = reset_peak();
    let cfg = ProtocolConfig::default();
    eprintln!("[warm n={n}] building legitimate world ...");
    let t0 = Instant::now();
    let mut ps = SimBackend::from_world(legit_world(n, SEED ^ n as u64, cfg), cfg);
    eprintln!("[warm n={n}] built in {:.1}s", t0.elapsed().as_secs_f64());

    // Let the first timeout wave and its probe responses settle so the
    // timed window is genuine steady state.
    ps.step();
    ps.step();

    let spills_before = BitStr::heap_allocations();
    let t0 = Instant::now();
    for _ in 0..a.steady_rounds {
        ps.step();
    }
    let steady_secs = t0.elapsed().as_secs_f64();
    let bitstr_spills_steady = BitStr::heap_allocations() - spills_before;

    // The production event: a batch of fresh joiners absorbed by a
    // legitimate network.
    let joiners = 64;
    for _ in 0..joiners {
        ps.subscribe(TopicId(0));
    }
    let (join_stabilization_rounds, ok) = ps.until_legit(a.warm_budget);
    assert!(
        ok,
        "warm n={n}: {joiners}-node join batch must be absorbed within {} rounds",
        a.warm_budget
    );

    let stats = ps.stats();
    let peak_bytes = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline);
    let row = WarmRow {
        n,
        steady_rounds_per_sec: a.steady_rounds as f64 / steady_secs,
        join_stabilization_rounds,
        peak_in_flight: stats.peak_in_flight,
        alloc_high_water_mb: peak_bytes as f64 / (1024.0 * 1024.0),
        bitstr_spills_steady,
        sent_total: stats.sent,
    };
    eprintln!(
        "[warm n={n}] steady {:.2} rounds/s, join batch absorbed in {} rounds, peak in-flight {}, alloc high-water {:.1} MB, spills {}",
        row.steady_rounds_per_sec,
        row.join_stabilization_rounds,
        row.peak_in_flight,
        row.alloc_high_water_mb,
        row.bitstr_spills_steady
    );
    row
}

// ---------------------------------------------------------------------
// Baseline pricing at the same populations.
// ---------------------------------------------------------------------

struct BaselineRow {
    system: &'static str,
    n: usize,
    /// The metric that shows the scaling law (see `metric` in JSON).
    metric: &'static str,
    value: f64,
}

/// The hot topic's membership under the sweep's Zipf assignment —
/// recomputed standalone so baselines can be priced even for sizes
/// whose cold leg is skipped.
fn hot_topic_members(a: &Args, n: usize) -> usize {
    let zipf = Zipf::new(a.topics, a.zipf_s);
    let mut rng = SEED ^ n as u64;
    let mut members = vec![0usize; a.topics as usize];
    for _ in 0..n {
        members[zipf.sample(&mut rng) as usize] += 1;
    }
    members.into_iter().max().unwrap_or(0)
}

fn measure_baselines(a: &Args, n: usize, hot_members: usize) -> Vec<BaselineRow> {
    use skippub_baselines::{Broker, Chord, RingCast, SkipGraph};
    let mut rows = Vec::new();

    // Broker: every publication to the hot topic is one server-side
    // fan-out of `members` unicasts — linear in the topic size, and the
    // broker terminates all n client connections.
    let mut broker = Broker::new();
    for _ in 0..hot_members {
        broker.subscribe(0);
    }
    broker.publish(0);
    rows.push(BaselineRow {
        system: "broker",
        n,
        metric: "fanout_per_publication_hot_topic",
        value: broker.subscribers(0) as f64 + 1.0,
    });

    // RingCast: ring-only dissemination delivers to the farthest member
    // of the hot topic in m-1 steps — linear.
    let ring = RingCast::new(hot_members.max(2));
    rows.push(BaselineRow {
        system: "ringcast",
        n,
        metric: "broadcast_steps_hot_topic",
        value: ring.broadcast_steps() as f64,
    });

    // Chord / SkipGraph: logarithmic routes, but unsupervised placement
    // (hashing / random membership vectors). Mean sampled route length.
    let samples = 64usize;
    let chord = Chord::new(n, SEED ^ n as u64);
    let mut state = SEED ^ 0xC0 ^ n as u64;
    let mut total = 0usize;
    for _ in 0..samples {
        let from = (splitmix64(&mut state) % n as u64) as usize;
        let target = splitmix64(&mut state);
        total += chord.route(from, target).len();
    }
    rows.push(BaselineRow {
        system: "chord",
        n,
        metric: "mean_route_hops",
        value: total as f64 / samples as f64,
    });

    let sg = SkipGraph::new(n, SEED ^ n as u64);
    let mut total = 0usize;
    for _ in 0..samples {
        let from = (splitmix64(&mut state) % n as u64) as usize;
        let to = (splitmix64(&mut state) % n as u64) as usize;
        total += sg.search(from, to).len();
    }
    rows.push(BaselineRow {
        system: "skipgraph",
        n,
        metric: "mean_search_hops",
        value: total as f64 / samples as f64,
    });

    for r in &rows {
        eprintln!("[{} n={n}] {} = {:.2}", r.system, r.metric, r.value);
    }
    let _ = a;
    rows
}

// ---------------------------------------------------------------------
// Budgeted-vs-unbounded equivalence (asserted before any JSON exists).
// ---------------------------------------------------------------------

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
    let digests = (0..topics)
        .map(|t| topic_digest(&ps, TopicId(t)))
        .collect();
    let delivered = ids
        .iter()
        .map(|&id| {
            let mut d: Vec<Vec<u8>> = ps
                .drain_events(id)
                .into_iter()
                .map(|e| e.payload)
                .collect();
            d.sort();
            d
        })
        .collect();
    (digests, delivered)
}

fn assert_budget_equivalence() {
    eprintln!("[equivalence] budgeted vs unbounded digests ...");
    let unbounded = budget_outcome(None);
    for b in [1u32, 4] {
        let budgeted = budget_outcome(Some(b));
        assert_eq!(
            unbounded.0, budgeted.0,
            "budget {b}: final checker-snapshot digests must match the unbounded run"
        );
        assert_eq!(
            unbounded.1, budgeted.1,
            "budget {b}: delivered sets must match the unbounded run"
        );
    }
    eprintln!("[equivalence] ok (budgets 1 and 4 match unbounded)");
}

// ---------------------------------------------------------------------

fn main() {
    let a = parse_args();
    assert_budget_equivalence();

    let mut cold = Vec::new();
    let mut cold_skipped = Vec::new();
    let mut warm = Vec::new();
    let mut baselines = Vec::new();
    for &n in &a.sizes {
        if n <= a.cold_max {
            cold.push(measure_cold(&a, n));
        } else {
            // No silent caps: the skip is logged and recorded in the
            // artifact. Cold mass-join stabilization grows ~linearly in
            // n (see module docs), so this leg is hours of wall clock
            // at n = 1M.
            eprintln!("[skippub n={n}] cold Zipf leg skipped (> --cold-max {})", a.cold_max);
            cold_skipped.push(n);
        }
        warm.push(measure_warm(&a, n));
        baselines.extend(measure_baselines(&a, n, hot_topic_members(&a, n)));
        // Each leg's backend drops at the end of its measure fn; live
        // bytes are back near baseline before the next population.
    }

    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"skippub-bench/scale/v1\",\n");
    json.push_str("  \"description\": \"Scale sweep for the inline-BitStr + interner + SoA-slab + delivery-budget work: a cold Zipf mass-join leg (sharded backend, up to cold_max) and a warm legitimate-ring leg (single-topic core, every n incl. 1M; steady maintenance rounds + a 64-node join batch), with the comparison systems priced at the same populations. Regenerate with: cargo run --release -p skippub-bench --bin bench_scale_json\",\n");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"smoke\": {},", a.smoke);
    json.push_str("  \"methodology\": \"alloc_high_water_mb is the high-water mark of live heap bytes (allocations minus frees) tracked by a counting global allocator, measured as a delta from the level just before each population builds. It is a deterministic RSS proxy: it excludes allocator slack, code and stacks, so it understates OS RSS, but it is reproducible and comparable across runs. steady_rounds_per_sec is wall-clock over the timed rounds on the cores recorded above.\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"topics\": {}, \"shards\": {}, \"zipf_s\": {}, \"steady_rounds\": {}, \"warm_budget\": {}, \"cold_max\": {}}},",
        a.topics, a.shards, a.zipf_s, a.steady_rounds, a.warm_budget, a.cold_max
    );
    json.push_str("  \"budget_digest_match\": true,\n");
    json.push_str("  \"cold_zipf\": [\n");
    for (i, r) in cold.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"hot_topic_members\": {}, \"stabilization_rounds\": {}, \"steady_rounds_per_sec\": {:.3}, \"peak_in_flight\": {}, \"alloc_high_water_mb\": {:.1}, \"bitstr_spills_steady\": {}, \"sent_total\": {}}}{}",
            r.n,
            r.hot_topic_members,
            r.stabilization_rounds,
            r.steady_rounds_per_sec,
            r.peak_in_flight,
            r.alloc_high_water_mb,
            r.bitstr_spills_steady,
            r.sent_total,
            if i + 1 == cold.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"cold_skipped\": [{}],",
        cold_skipped
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("  \"warm\": [\n");
    for (i, r) in warm.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"steady_rounds_per_sec\": {:.3}, \"join_stabilization_rounds\": {}, \"peak_in_flight\": {}, \"alloc_high_water_mb\": {:.1}, \"bitstr_spills_steady\": {}, \"sent_total\": {}}}{}",
            r.n,
            r.steady_rounds_per_sec,
            r.join_stabilization_rounds,
            r.peak_in_flight,
            r.alloc_high_water_mb,
            r.bitstr_spills_steady,
            r.sent_total,
            if i + 1 == warm.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"baselines\": [\n");
    for (i, r) in baselines.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"system\": \"{}\", \"n\": {}, \"metric\": \"{}\", \"value\": {:.2}}}{}",
            r.system,
            r.n,
            r.metric,
            r.value,
            if i + 1 == baselines.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"note\": \"budget_digest_match is asserted in-run before any JSON is written: a serialized-join scenario executed with per-round delivery budgets 1 and 4 must reach the identical final checker-snapshot digests and delivered sets as the unbounded run. The scaling story: skippub join_stabilization_rounds and chord/skipgraph route hops grow ~log n, while the broker's per-publication fan-out and ringcast's broadcast steps grow linearly with the hot topic's membership. Cold mass-join stabilization (cold_zipf) grows ~linearly in n under randomized supervisor probing, which is why populations listed in cold_skipped run the warm leg only.\"\n");
    json.push_str("}\n");

    std::fs::write(&a.out, &json).expect("write BENCH_scale.json");
    eprintln!("wrote {}", a.out);
    print!("{json}");
}
