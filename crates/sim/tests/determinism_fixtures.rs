//! Engine-refactor safety net: golden fingerprints of full simulation
//! trajectories.
//!
//! Each fixture drives a workload that exercises every scheduler path —
//! synchronous rounds, chaos rounds with fair receipt, handler-side RNG
//! draws, crash-consumes-messages, rejoin, and external injection — and
//! folds the *entire observable outcome* (metrics read API + per-node
//! protocol state) into one FNV-1a fingerprint.
//!
//! The constants below were captured from the pre-slab `BTreeMap`
//! engine. The slab engine must reproduce them exactly: the refactor
//! contract is "same seed → identical RNG-consumption order → identical
//! metrics and states". If an intentional semantic change ever breaks
//! them, re-derive the constants with `FIXTURE_PRINT=1 cargo test -p
//! skippub-sim --test determinism_fixtures -- --nocapture` and say so in
//! the changelog.

use skippub_sim::{
    ChaosConfig, Ctx, FaultRule, FaultSpec, LinkClass, NodeId, Protocol, Sever, World,
};

/// Gossip protocol: forwards each rumor to two random peers while its
/// TTL lasts; drops it otherwise. Exercises handler RNG draws heavily.
#[derive(Clone)]
struct Gossip {
    peers: Vec<NodeId>,
    rumors_seen: u64,
    timeouts: u64,
}

#[derive(Clone, Debug)]
enum GossipMsg {
    Rumor(u32),
    Probe,
}

impl Protocol for Gossip {
    type Msg = GossipMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, GossipMsg>, msg: GossipMsg) {
        match msg {
            GossipMsg::Rumor(ttl) => {
                self.rumors_seen += 1;
                if ttl > 0 {
                    for _ in 0..2 {
                        let to = self.peers[ctx.random_range(self.peers.len())];
                        ctx.send(to, GossipMsg::Rumor(ttl - 1));
                    }
                }
            }
            GossipMsg::Probe => {}
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        self.timeouts += 1;
        // Occasionally probe a random peer so timeout handlers also
        // consume randomness and send traffic.
        if ctx.random_bool(0.25) {
            let to = self.peers[ctx.random_range(self.peers.len())];
            ctx.send(to, GossipMsg::Probe);
        }
    }

    fn msg_kind(msg: &GossipMsg) -> &'static str {
        match msg {
            GossipMsg::Rumor(_) => "rumor",
            GossipMsg::Probe => "probe",
        }
    }
}

fn gossip_world(n: u64, seed: u64) -> World<Gossip> {
    let mut w = World::new(seed);
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    for &id in &ids {
        w.add_node(
            id,
            Gossip {
                peers: ids.clone(),
                rumors_seen: 0,
                timeouts: 0,
            },
        );
    }
    w
}

#[inline]
fn fnv(h: &mut u64, v: u64) {
    let mut x = *h ^ v;
    x = x.wrapping_mul(0x100000001b3);
    *h = x;
}

/// Folds every externally observable quantity into one fingerprint:
/// totals, per-kind counts, per-node sent/received, in-flight load, and
/// per-node protocol state — all read through the public API in sorted
/// node order.
fn fingerprint(w: &World<Gossip>, kinds: &[&str]) -> u64 {
    let m = w.metrics();
    let mut h = 0xcbf29ce484222325u64;
    fnv(&mut h, m.sent_total);
    fnv(&mut h, m.delivered_total);
    fnv(&mut h, m.dropped);
    fnv(&mut h, m.rounds);
    for k in kinds {
        fnv(&mut h, m.kind(k));
    }
    for id in w.ids() {
        fnv(&mut h, id.0);
        fnv(&mut h, m.sent_by(id));
        fnv(&mut h, m.received_by(id));
        fnv(&mut h, w.channel_len(id) as u64);
    }
    for (id, g) in w.iter() {
        fnv(&mut h, id.0);
        fnv(&mut h, g.rumors_seen);
        fnv(&mut h, g.timeouts);
    }
    fnv(&mut h, w.in_flight() as u64);
    h
}

/// The mixed workload: sync rounds, chaos rounds, crashes, a rejoin,
/// and fresh injections between phases.
fn run_workload(seed: u64) -> u64 {
    let mut w = gossip_world(12, seed);
    for i in 0..4 {
        w.inject(NodeId(i), GossipMsg::Rumor(6));
    }
    for _ in 0..10 {
        w.run_round();
    }
    // Crash two nodes (one with traffic in flight), keep running.
    w.crash(NodeId(3));
    w.crash(NodeId(9));
    w.inject(NodeId(3), GossipMsg::Rumor(2)); // consumed silently
    for _ in 0..6 {
        w.run_round();
    }
    // Chaos phase with fair receipt.
    let cfg = ChaosConfig {
        delivery_prob: 0.35,
        timeout_prob: 0.6,
        max_age: 4,
    };
    w.inject(NodeId(0), GossipMsg::Rumor(5));
    for _ in 0..25 {
        w.run_chaos_round(cfg);
    }
    // Rejoin one crashed id with fresh state, then settle.
    let ids: Vec<NodeId> = (0..12).map(NodeId).collect();
    w.add_node(
        NodeId(3),
        Gossip {
            peers: ids,
            rumors_seen: 0,
            timeouts: 0,
        },
    );
    w.inject(NodeId(3), GossipMsg::Rumor(4));
    for _ in 0..8 {
        w.run_round();
    }
    fingerprint(&w, &["rumor", "probe"])
}

/// Golden fingerprints captured from the pre-slab engine (seed →
/// expected). See module docs for the re-derivation procedure.
const GOLDEN: &[(u64, u64)] = &[
    (1, 0x732f57977905e7ab),
    (7, 0x1bc0823e0121de4d),
    (42, 0x848ebe54fd4fecbb),
    (0xDEADBEEF, 0x9554d091815af91f),
];

#[test]
fn same_seed_reproduces_golden_fingerprints() {
    for &(seed, want) in GOLDEN {
        let got = run_workload(seed);
        if std::env::var("FIXTURE_PRINT").is_ok() {
            println!("    (seed {seed:#x} → {got:#018x})");
            continue;
        }
        assert_eq!(
            got, want,
            "trajectory fingerprint changed for seed {seed} — engine \
             semantics diverged from the recorded baseline"
        );
    }
}

#[test]
fn two_runs_in_one_process_agree() {
    for seed in [2u64, 5, 0xFEED] {
        assert_eq!(run_workload(seed), run_workload(seed));
    }
}

/// Live nodes at the start of the storm workload: ids `0..STORM_NODES`.
const STORM_NODES: u64 = 12;
/// Ids a storm rumour is sent to: the nodes plus four no node ever hosts.
const STORM_NAMED: u64 = STORM_NODES + 4;
const STORM_ROUNDS: u64 = 60;

/// Spreads rumours to random ids, dead ones included.
#[derive(Clone)]
struct Spread {
    heard: u64,
    timeouts: u64,
}

#[derive(Clone, Debug)]
struct Rumour(u32);

impl Protocol for Spread {
    type Msg = Rumour;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Rumour>, msg: Rumour) {
        self.heard += 1;
        if msg.0 > 0 {
            let to = NodeId(ctx.random_range(STORM_NAMED as usize) as u64);
            ctx.send(to, Rumour(msg.0 - 1));
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Rumour>) {
        self.timeouts += 1;
        if ctx.random_bool(0.3) {
            let to = NodeId(ctx.random_range(STORM_NAMED as usize) as u64);
            ctx.send(to, Rumour(3));
        }
    }

    fn msg_kind(_: &Rumour) -> &'static str {
        "rumour"
    }
}

/// Loss, duplication, delay and reordering on every link, a `Group`
/// rule and a sever whose groups name dead ids (13, 14, 15) beside live
/// ones.
fn storm_spec() -> FaultSpec {
    let noisy = |link| FaultRule {
        drop: 0.1,
        dup: 0.1,
        delay: 0.15,
        delay_rounds: 2,
        reorder: 0.1,
        reorder_max: 3,
        ..FaultRule::pass(0, STORM_ROUNDS, link)
    };
    FaultSpec {
        seed: 5,
        rules: vec![
            noisy(LinkClass::Group(vec![1, 3, 5, 13, 14])),
            noisy(LinkClass::All),
        ],
        severs: vec![Sever {
            from_round: 20,
            to_round: 35,
            group: vec![2, 4, 12, 15],
        }],
    }
}

/// The storm workload: rumours to live and dead ids under `chaos`
/// rounds, two crashes, outside injects to live and dead ids, and
/// optionally the storm fault plane. A `World::new` world is
/// local-only (§3.3): a send to an id it does not host is dropped
/// before the fault plane sees it. Routed through the plane, the
/// `Group` rule and the sever naming dead ids would act on such sends
/// and move every fingerprint below.
fn run_storm(seed: u64, chaos: ChaosConfig, faults: bool) -> u64 {
    let mut w = World::new(seed);
    for i in 0..STORM_NODES {
        w.add_node(
            NodeId(i),
            Spread {
                heard: 0,
                timeouts: 0,
            },
        );
    }
    if faults {
        w.set_faults(Some(storm_spec()));
    }
    for i in [0, 4, 8] {
        w.inject(NodeId(i), Rumour(40));
    }
    for r in 0..STORM_ROUNDS {
        if r == 10 || r == 25 {
            w.crash(NodeId(r % STORM_NODES));
        }
        if r >= 3 && r % 7 == 0 {
            for to in [NodeId(2), NodeId(13), NodeId(10)] {
                w.inject(to, Rumour(5));
            }
        }
        w.run_chaos_round(chaos);
    }
    let m = w.metrics();
    assert!(m.dropped > 0, "sends to dead ids must happen");
    let c = w.fault_counts();
    if faults {
        assert!(
            c.dropped_by_fault > 0 && c.duplicated > 0 && c.delayed > 0 && c.reordered > 0,
            "the storm must exercise every fault kind: {c:?}"
        );
    }
    let mut h = 0xcbf29ce484222325u64;
    for v in [m.sent_total, m.delivered_total, m.dropped, m.rounds, m.kind("rumour")] {
        fnv(&mut h, v);
    }
    for id in (0..STORM_NAMED).map(NodeId) {
        fnv(&mut h, m.sent_by(id));
        fnv(&mut h, m.received_by(id));
        fnv(&mut h, w.channel_len(id) as u64);
    }
    for (id, s) in w.iter() {
        fnv(&mut h, id.0);
        fnv(&mut h, s.heard);
        fnv(&mut h, s.timeouts);
    }
    for v in [c.dropped_by_fault, c.duplicated, c.delayed, c.reordered] {
        fnv(&mut h, v);
    }
    fnv(&mut h, w.in_flight() as u64);
    fnv(&mut h, w.peak_in_flight() as u64);
    fnv(&mut h, w.round());
    h
}

/// The chaos scheduler the storm's chaos pins run under.
const STORM_CHAOS: ChaosConfig = ChaosConfig {
    delivery_prob: 0.4,
    timeout_prob: 0.6,
    max_age: 4,
};

/// Storm fingerprints recorded from the serial world before it folded
/// into the partitioned one: `(seed, chaos rounds?, faults?) → expected`.
const STORM_GOLDEN: &[(u64, bool, bool, u64)] = &[
    (1, false, false, 0xe261ad6fe8a66eb8),
    (1, false, true, 0x80c7bbefbceccbda),
    (7, false, false, 0x64906809128d7818),
    (7, false, true, 0x2ed11dd1afda6d65),
    (42, false, false, 0x5db9e767628b2837),
    (42, false, true, 0x1d9b1866f565b659),
    (3, true, false, 0xbe3d3983a1049480),
    (3, true, true, 0x8dc6efaf0994936e),
    (11, true, false, 0xf5de2f746122d26c),
    (11, true, true, 0xc78b030ce28606ec),
    (99, true, false, 0x93718b2e7e522944),
    (99, true, true, 0x0a76ff1b0f74384f),
];

#[test]
fn storm_reproduces_golden_fingerprints() {
    let print = std::env::var("FIXTURE_PRINT").is_ok();
    let mut cases = Vec::new();
    for (seeds, chaos) in [([1, 7, 42], false), ([3, 11, 99], true)] {
        for seed in seeds {
            for faults in [false, true] {
                cases.push((seed, chaos, faults));
            }
        }
    }
    if !print {
        let pinned: Vec<_> = STORM_GOLDEN.iter().map(|&(s, c, f, _)| (s, c, f)).collect();
        assert_eq!(pinned, cases, "every storm case is pinned");
    }
    for (i, (seed, chaos, faults)) in cases.into_iter().enumerate() {
        let cfg = if chaos { STORM_CHAOS } else { ChaosConfig::SYNCHRONOUS };
        let got = run_storm(seed, cfg, faults);
        if print {
            println!("    ({seed}, {chaos}, {faults}, {got:#018x}),");
            continue;
        }
        assert_eq!(
            got, STORM_GOLDEN[i].3,
            "storm fingerprint changed for seed {seed}, chaos {chaos}, faults {faults}"
        );
    }
}
