//! Behavioural edge cases of the protocol, driven through the public API:
//! targeted corruptions, extremum churn, rejoin cycles, and join bursts.

use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::SUPERVISOR;
use skippub_core::{scenarios, Actor, ProbeMode, ProtocolConfig, PubSub, SystemBuilder, TopicId};
use skippub_ringmath::Label;
use skippub_sim::NodeId;

fn lab(s: &str) -> Label {
    s.parse().unwrap()
}

#[test]
fn stale_neighbor_label_belief_is_repaired() {
    // Corrupt one node's *belief* about its left neighbour's label — the
    // §2.2 extension (Check/label correction) must repair it.
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(8, 1, cfg), cfg);
    let victim = sim.subscriber_ids()[3];
    {
        let s = sim.world_mut().node_mut(victim).unwrap().subscriber_mut().unwrap();
        let l = s.left.expect("interior node has a left neighbour");
        s.left = Some(skippub_core::NodeRef::new(lab("0001110011"), l.id));
    }
    assert!(!sim.is_legitimate());
    let (rounds, ok) = sim.until_legit(500);
    assert!(
        ok,
        "label-belief corruption not repaired: {:?}",
        sim.report(TopicId(0)).issues
    );
    assert!(rounds <= 40, "repair took {rounds} rounds");
}

#[test]
fn crossed_edges_are_relinearized() {
    // Swap two nodes' left pointers (each points at the other's correct
    // neighbour) — linearization must sort this out.
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(10, 2, cfg), cfg);
    let ids = sim.subscriber_ids();
    let (a, b) = (ids[3], ids[7]);
    let la = sim.subscriber(a, TopicId(0)).unwrap().left;
    let lb = sim.subscriber(b, TopicId(0)).unwrap().left;
    sim.world_mut().node_mut(a).unwrap().subscriber_mut().unwrap().left = lb;
    sim.world_mut().node_mut(b).unwrap().subscriber_mut().unwrap().left = la;
    let (_, ok) = sim.until_legit(2000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
}

#[test]
fn unsubscribe_of_the_minimum_relabels_cleanly() {
    // The node holding label "0" leaves; the last-labelled node must take
    // over "0" and the ring must close around it.
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(8, 3, cfg), cfg);
    let min = sim
        .subscriber_ids()
        .into_iter()
        .find(|id| sim.subscriber(*id, TopicId(0)).unwrap().label == Some(lab("0")))
        .expect("someone holds l(0)");
    sim.unsubscribe(min, TopicId(0));
    let (_, ok) = sim.until_legit(2000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 7);
    assert!(sim
        .subscriber_ids()
        .iter()
        .any(|id| sim.subscriber(*id, TopicId(0)).unwrap().label == Some(lab("0"))));
}

#[test]
fn crash_both_extrema_simultaneously() {
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(10, 4, cfg), cfg);
    let by_label = |want: Label| {
        sim.subscriber_ids()
            .into_iter()
            .find(|id| sim.subscriber(*id, TopicId(0)).unwrap().label == Some(want))
            .expect("labelled node exists")
    };
    let min = by_label(lab("0"));
    let r_max = sim
        .subscriber_ids()
        .into_iter()
        .max_by_key(|id| {
            sim.subscriber(*id, TopicId(0))
                .unwrap()
                .label
                .unwrap()
                .frac()
        })
        .unwrap();
    let victims = vec![min, r_max];
    for &v in &victims {
        sim.crash(v);
    }
    for _ in 0..3 {
        sim.step();
    }
    for &v in &victims {
        sim.report_crash(v);
    }
    let (_, ok) = sim.until_legit(30_000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 8);
}

#[test]
fn empty_topic_then_repopulate() {
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(4, 5, cfg), cfg);
    for id in sim.subscriber_ids() {
        sim.unsubscribe(id, TopicId(0));
    }
    let (_, ok) = sim.until_legit(2000);
    assert!(ok);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 0);
    // Repopulate.
    for _ in 0..5 {
        sim.subscribe(TopicId(0));
    }
    let (_, ok) = sim.until_legit(2000);
    assert!(ok);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 5);
}

#[test]
fn resubscribe_after_leaving() {
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(5, 6, cfg), cfg);
    let v = sim.subscriber_ids()[2];
    sim.unsubscribe(v, TopicId(0));
    let (_, ok) = sim.until_legit(2000);
    assert!(ok);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 4);
    // Change of heart: wants membership again.
    sim.world_mut().node_mut(v).unwrap().subscriber_mut().unwrap().wants_membership = true;
    let (_, ok) = sim.until_legit(2000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 5);
    assert!(sim.subscriber(v, TopicId(0)).unwrap().label.is_some());
}

#[test]
fn join_burst_into_existing_ring() {
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(16, 7, cfg), cfg);
    for _ in 0..48 {
        sim.subscribe(TopicId(0));
    }
    let (rounds, ok) = sim.until_legit(30_000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 64);
    assert!(rounds < 2000, "join burst took {rounds} rounds");
}

#[test]
fn single_node_topic_full_lifecycle() {
    let cfg = ProtocolConfig::default();
    let mut sim = SystemBuilder::new(8).protocol(cfg).build_sim();
    let solo = sim.subscribe(TopicId(0));
    let (_, ok) = sim.until_legit(200);
    assert!(ok);
    sim.publish(solo, TopicId(0), b"talking to myself".to_vec());
    let (_, ok) = sim.until_pubs_converged(50);
    assert!(ok);
    // A second node arrives and inherits the history.
    let second = sim.subscribe(TopicId(0));
    sim.until_legit(2000);
    let (_, ok) = sim.until_pubs_converged(2000);
    assert!(ok);
    assert_eq!(sim.subscriber(second, TopicId(0)).unwrap().trie.len(), 1);
}

#[test]
fn token_mode_survives_mid_circulation_unsubscribes() {
    let cfg = ProtocolConfig {
        probe_mode: ProbeMode::TokenHybrid,
        ..ProtocolConfig::topology_only()
    };
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(12, 9, cfg), cfg);
    for _ in 0..6 {
        sim.step(); // token in flight
    }
    for id in sim.subscriber_ids().into_iter().step_by(3).take(3) {
        sim.unsubscribe(id, TopicId(0));
    }
    let (_, ok) = sim.until_legit(30_000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
    assert_eq!(sim.supervisor(TopicId(0)).unwrap().n(), 9);
    // Token keeps circulating afterwards.
    let issued = sim.supervisor(TopicId(0)).unwrap().counters.tokens_issued;
    for _ in 0..40 {
        sim.step();
    }
    assert!(
        sim.supervisor(TopicId(0)).unwrap().counters.tokens_returned > 0 || sim.supervisor(TopicId(0)).unwrap().counters.tokens_issued > issued,
        "token circulation must continue after churn"
    );
}

#[test]
fn corrupted_shortcut_values_to_live_nodes_heal() {
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(16, 10, cfg), cfg);
    let ids = sim.subscriber_ids();
    // Point every resolved shortcut at the wrong (but live) node.
    let wrong = ids[0];
    for id in &ids {
        let s = sim.world_mut().node_mut(*id).unwrap().subscriber_mut().unwrap();
        for slot in s.shortcuts.values_mut() {
            if slot.is_some() && *slot != Some(wrong) {
                *slot = Some(wrong);
            }
        }
    }
    assert!(!sim.is_legitimate());
    let (rounds, ok) = sim.until_legit(5000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
    assert!(rounds <= 200, "shortcut healing took {rounds} rounds");
}

#[test]
fn supervisor_database_fully_scrambled() {
    // Permute which node holds which label in the database (all labels
    // valid, all nodes live): the round-robin + SetData authority must
    // relabel the whole ring.
    let cfg = ProtocolConfig::topology_only();
    let mut sim = PartitionedBackend::from_world(scenarios::legit_world(10, 11, cfg), cfg);
    {
        let sup = sim.world_mut().node_mut(SUPERVISOR).unwrap().supervisor_mut().unwrap();
        let labels: Vec<Label> = sup.database().keys().copied().collect();
        let nodes: Vec<Option<NodeId>> = sup.database().values().copied().collect();
        let n = nodes.len();
        for (i, l) in labels.iter().enumerate() {
            sup.database_mut().insert(*l, nodes[(i + n / 2) % n]);
        }
    }
    assert!(!sim.is_legitimate());
    let (_, ok) = sim.until_legit(30_000);
    assert!(ok, "{:?}", sim.report(TopicId(0)).issues);
}

#[test]
fn actor_enum_roundtrip_via_world() {
    // Sanity on the Actor plumbing used everywhere above.
    let cfg = ProtocolConfig::default();
    let sim = PartitionedBackend::from_world(scenarios::legit_world(3, 12, cfg), cfg);
    let mut supers = 0;
    let mut subs = 0;
    for (_, a) in sim.world().iter() {
        match a {
            Actor::Supervisor(_) => supers += 1,
            Actor::Subscriber(_) => subs += 1,
        }
    }
    assert_eq!((supers, subs), (1, 3));
}
