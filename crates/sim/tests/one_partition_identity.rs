//! A one-partition `PartitionedWorld` is the serial `World`: built from
//! a world's exported state, it steps identically — node states,
//! metrics, fault counts and in-flight counts, round by round — under
//! synchronous and chaos rounds, crashes, sends to dead ids and an armed
//! fault plane. The pub-sub layer's `sim` and `chaos` layouts rest on
//! this. It holds because a lone partition is local-only: a send to an
//! id it does not host is dropped before the fault plane sees it, as the
//! serial world drops it; routed through the plane, a `Group` rule or a
//! sever naming a dead id would act on it instead.

use skippub_sim::{
    ChaosConfig, Ctx, FaultRule, FaultSpec, LinkClass, NodeId, PartitionedWorld, Protocol, Sever,
    World,
};

/// Live nodes at the start: ids `0..NODES`.
const NODES: u64 = 12;
/// Ids a rumour is sent to: the nodes plus four that no node ever hosts.
const NAMED: u64 = NODES + 4;
const ROUNDS: u64 = 60;

/// Spreads rumours to random ids, dead ones included.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Gossip {
    heard: u64,
    timeouts: u64,
}

#[derive(Clone, Debug)]
struct Rumour(u32);

impl Protocol for Gossip {
    type Msg = Rumour;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Rumour>, msg: Rumour) {
        self.heard += 1;
        if msg.0 > 0 {
            let to = NodeId(ctx.random_range(NAMED as usize) as u64);
            ctx.send(to, Rumour(msg.0 - 1));
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Rumour>) {
        self.timeouts += 1;
        if ctx.random_bool(0.3) {
            let to = NodeId(ctx.random_range(NAMED as usize) as u64);
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
fn storm() -> FaultSpec {
    let noisy = |link| FaultRule {
        drop: 0.1,
        dup: 0.1,
        delay: 0.15,
        delay_rounds: 2,
        reorder: 0.1,
        reorder_max: 3,
        ..FaultRule::pass(0, ROUNDS, link)
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

fn world(seed: u64, faults: bool) -> World<Gossip> {
    let mut w = World::new(seed);
    for i in 0..NODES {
        let g = Gossip {
            heard: 0,
            timeouts: 0,
        };
        w.add_node(NodeId(i), g);
    }
    if faults {
        w.set_faults(Some(storm()));
    }
    for i in [0, 4, 8] {
        w.inject(NodeId(i), Rumour(40));
    }
    w
}

/// Everything the two worlds must agree on after a round.
fn observe<'a>(nodes: impl Iterator<Item = (NodeId, &'a Gossip)>) -> Vec<(NodeId, Gossip)> {
    nodes.map(|(id, g)| (id, g.clone())).collect()
}

/// Runs a world and its one-partition twin side by side from round 3
/// on, with crashes and outside injects to live and dead ids, and
/// compares them after every round.
fn assert_identical(seed: u64, chaos: ChaosConfig, faults: bool) {
    let mut serial = world(seed, faults);
    for _ in 0..3 {
        serial.run_chaos_round(chaos);
    }
    let mut one = PartitionedWorld::from_world(World::from_state(serial.export_state()));
    for r in 3..ROUNDS {
        if r == 10 || r == 25 {
            let victim = NodeId(r % NODES);
            serial.crash(victim);
            one.crash(victim);
        }
        if r % 7 == 0 {
            for to in [NodeId(2), NodeId(13), NodeId(10)] {
                serial.inject(to, Rumour(5));
                one.inject(to, Rumour(5));
            }
        }
        serial.run_chaos_round(chaos);
        one.run_chaos_rounds(1, chaos);
        let at = format!("seed {seed}, round {r}, faults {faults}, {chaos:?}");
        assert_eq!(observe(one.iter()), observe(serial.iter()), "states, {at}");
        assert_eq!(&one.metrics(), serial.metrics(), "metrics, {at}");
        assert_eq!(
            one.fault_counts(),
            serial.fault_counts(),
            "fault counts, {at}"
        );
        assert_eq!(one.in_flight(), serial.in_flight(), "in flight, {at}");
        assert_eq!(
            one.peak_in_flight(),
            serial.peak_in_flight(),
            "peak in flight, {at}"
        );
        assert_eq!(one.round(), serial.round(), "round, {at}");
    }
    assert!(
        serial.metrics().dropped > 0,
        "sends to dead ids must happen"
    );
    if faults {
        let c = serial.fault_counts();
        assert!(
            c.dropped_by_fault > 0 && c.duplicated > 0 && c.delayed > 0 && c.reordered > 0,
            "the storm must exercise every fault kind: {c:?}"
        );
    }
}

#[test]
fn one_partition_steps_like_the_serial_world_in_synchronous_rounds() {
    for seed in [1, 7, 42] {
        for faults in [false, true] {
            assert_identical(seed, ChaosConfig::SYNCHRONOUS, faults);
        }
    }
}

#[test]
fn one_partition_steps_like_the_serial_world_in_chaos_rounds() {
    let chaos = ChaosConfig {
        delivery_prob: 0.4,
        timeout_prob: 0.6,
        max_age: 4,
    };
    for seed in [3, 11, 99] {
        for faults in [false, true] {
            assert_identical(seed, chaos, faults);
        }
    }
}

/// The serial state a one-partition world exports continues as the
/// world itself would, including the plane's held messages and the
/// dirty versions bumped from outside.
#[test]
fn exported_serial_state_round_trips_mid_fault_window() {
    let mut serial = world(8, true);
    for _ in 0..22 {
        serial.run_round();
    }
    let mut one = PartitionedWorld::from_world(World::from_state(serial.export_state()));
    serial.bump_dirty(3);
    one.bump_dirty(3);
    let mut back = World::from_state(one.export_world_state());
    assert_eq!(back.dirty_version(3), serial.dirty_version(3));
    for _ in 0..20 {
        serial.run_round();
        one.run_round();
        back.run_round();
    }
    assert_eq!(observe(back.iter()), observe(serial.iter()));
    assert_eq!(back.metrics(), serial.metrics());
    assert_eq!(back.fault_counts(), serial.fault_counts());
    assert_eq!(observe(one.iter()), observe(serial.iter()));
}
