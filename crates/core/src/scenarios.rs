//! World builders: legitimate warm starts, clean bootstraps, and
//! adversarial initial states for convergence experiments.
//!
//! The paper's model lets *every* protocol variable and channel start
//! corrupted (§1.1). These builders construct such states deterministically
//! from a seed so experiments are reproducible.

use crate::actor::Actor;
use crate::checker;
use crate::config::ProtocolConfig;
use crate::msg::{Msg, NodeRef};
use crate::subscriber::Subscriber;
use crate::supervisor::Supervisor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use skippub_ringmath::{shortcut, Label};
use skippub_sim::{NodeId, World};

/// Conventional supervisor ID used by all builders.
pub const SUPERVISOR: NodeId = NodeId(0);

/// The supervisor's ID in `world` (panics if there is none).
pub fn supervisor_id(world: &World<Actor>) -> NodeId {
    world
        .iter()
        .find(|(_, a)| a.supervisor().is_some())
        .map(|(id, _)| id)
        .expect("world has a supervisor")
}

/// IDs of all live subscribers in `world`.
pub fn subscriber_ids(world: &World<Actor>) -> Vec<NodeId> {
    world
        .iter()
        .filter(|(_, a)| a.subscriber().is_some())
        .map(|(id, _)| id)
        .collect()
}

/// A world already in a legitimate state: supervisor database filled,
/// every subscriber holding its correct label, ring edges and shortcuts.
/// Used by steady-state experiments (E4, E5, E12) and as the reference
/// the convergence experiments must reach.
pub fn legit_world(n: usize, seed: u64, cfg: ProtocolConfig) -> World<Actor> {
    assert!(n >= 1);
    let mut world = World::new(seed);
    let mut sup = Supervisor::new(SUPERVISOR);
    sup.token_enabled = cfg.token_enabled();
    // db entry i: label l(i) → NodeId(i+1)
    let mut db: Vec<(Label, NodeId)> = (0..n as u64)
        .map(|i| (Label::from_index(i), NodeId(i + 1)))
        .collect();
    sup.database_mut()
        .extend(db.iter().map(|(l, v)| (*l, Some(*v))));
    world.add_node(SUPERVISOR, Actor::Supervisor(Box::new(sup)));
    // Ring order.
    db.sort_by_key(|(l, _)| *l);
    // Label → id index for shortcut resolution (a linear scan per
    // shortcut target is O(n² log n) at experiment scales).
    let by_label: std::collections::BTreeMap<Label, NodeId> = db.iter().copied().collect();
    for (i, (label, v)) in db.iter().enumerate() {
        let mut s = Subscriber::new(*v, SUPERVISOR, cfg);
        s.label = Some(*label);
        let nref = |j: usize| NodeRef::new(db[j].0, db[j].1);
        if n > 1 {
            if i == 0 {
                s.right = Some(nref(1));
                s.ring = Some(nref(n - 1));
            } else if i == n - 1 {
                s.left = Some(nref(n - 2));
                s.ring = Some(nref(0));
            } else {
                s.left = Some(nref(i - 1));
                s.right = Some(nref(i + 1));
            }
        }
        if cfg.shortcuts {
            if let (Some(el), Some(er)) = (s.eff_left(), s.eff_right()) {
                for t in shortcut::expected_shortcuts(*label, el.label, er.label) {
                    s.shortcuts.insert(t.label, by_label.get(&t.label).copied());
                }
            }
        }
        world.add_node(*v, Actor::Subscriber(Box::new(s)));
    }
    world
}

/// A clean bootstrap: empty supervisor plus `n` fresh subscribers that
/// will join via their first `Timeout` (action (i)).
pub fn cold_world(n: usize, seed: u64, cfg: ProtocolConfig) -> World<Actor> {
    let mut world = World::new(seed);
    let mut sup = Supervisor::new(SUPERVISOR);
    sup.token_enabled = cfg.token_enabled();
    world.add_node(SUPERVISOR, Actor::Supervisor(Box::new(sup)));
    for i in 0..n as u64 {
        let id = NodeId(i + 1);
        world.add_node(
            id,
            Actor::Subscriber(Box::new(Subscriber::new(id, SUPERVISOR, cfg))),
        );
    }
    world
}

/// Adversarial initial-state families for Theorem 8 experiments (E6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Arbitrary labels and arbitrary edges everywhere; empty database.
    RandomState,
    /// `k` internally-sorted but mutually-inconsistent components; the
    /// supervisor knows nothing. Tests the component-absorption argument
    /// of Lemma 10.
    Partitioned(usize),
    /// Correct topology, but the database is corrupted with all four
    /// §3.1 corruption classes.
    CorruptDatabase,
    /// Correct database, but subscriber labels were permuted among nodes
    /// (every edge's believed label is stale).
    ShuffledLabels,
    /// Legitimate state plus channels preloaded with corrupted messages
    /// that reference real nodes under wrong labels.
    CorruptChannels,
}

impl Adversary {
    /// All families, for sweep experiments.
    pub fn all() -> [Adversary; 5] {
        [
            Adversary::RandomState,
            Adversary::Partitioned(4),
            Adversary::CorruptDatabase,
            Adversary::ShuffledLabels,
            Adversary::CorruptChannels,
        ]
    }

    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Adversary::RandomState => "random-state",
            Adversary::Partitioned(_) => "partitioned",
            Adversary::CorruptDatabase => "corrupt-db",
            Adversary::ShuffledLabels => "shuffled-labels",
            Adversary::CorruptChannels => "corrupt-channels",
        }
    }
}

fn random_label(rng: &mut StdRng, max_len: u8) -> Label {
    let len = rng.random_range(1..=max_len);
    Label::from_parts(rng.random::<u64>(), len).expect("len in range")
}

/// Builds an adversarial world of `n` subscribers.
pub fn adversarial_world(
    n: usize,
    seed: u64,
    cfg: ProtocolConfig,
    adversary: Adversary,
) -> World<Actor> {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ n as u64);
    match adversary {
        Adversary::RandomState => {
            let mut world = World::new(seed);
            let mut sup = Supervisor::new(SUPERVISOR);
            sup.token_enabled = cfg.token_enabled();
            world.add_node(SUPERVISOR, Actor::Supervisor(Box::new(sup)));
            let ids: Vec<NodeId> = (0..n as u64).map(|i| NodeId(i + 1)).collect();
            for &id in &ids {
                let mut s = Subscriber::new(id, SUPERVISOR, cfg);
                if rng.random_bool(0.8) {
                    s.label = Some(random_label(&mut rng, 10));
                }
                let pick = |rng: &mut StdRng| {
                    let other = ids[rng.random_range(0..ids.len())];
                    NodeRef::new(random_label(rng, 10), other)
                };
                if rng.random_bool(0.7) {
                    s.left = Some(pick(&mut rng));
                }
                if rng.random_bool(0.7) {
                    s.right = Some(pick(&mut rng));
                }
                if rng.random_bool(0.3) {
                    s.ring = Some(pick(&mut rng));
                }
                for _ in 0..rng.random_range(0..3usize) {
                    let r = pick(&mut rng);
                    s.shortcuts.insert(r.label, Some(r.id));
                }
                world.add_node(id, Actor::Subscriber(Box::new(s)));
            }
            world
        }
        Adversary::Partitioned(k) => {
            let k = k.clamp(1, n);
            let mut world = World::new(seed);
            let mut sup = Supervisor::new(SUPERVISOR);
            sup.token_enabled = cfg.token_enabled();
            world.add_node(SUPERVISOR, Actor::Supervisor(Box::new(sup)));
            let mut ids: Vec<NodeId> = (0..n as u64).map(|i| NodeId(i + 1)).collect();
            ids.shuffle(&mut rng);
            for chunk in ids.chunks(n.div_ceil(k)) {
                // Each component: a consistent sorted ring over *conflicting*
                // labels l(0..m) — every component believes it is the topic.
                let m = chunk.len();
                for (i, &id) in chunk.iter().enumerate() {
                    let mut s = Subscriber::new(id, SUPERVISOR, cfg);
                    let lab = Label::from_index(i as u64);
                    s.label = Some(lab);
                    if m > 1 {
                        let sorted: Vec<(Label, NodeId)> = {
                            let mut v: Vec<(Label, NodeId)> = chunk
                                .iter()
                                .enumerate()
                                .map(|(j, &cid)| (Label::from_index(j as u64), cid))
                                .collect();
                            v.sort_by_key(|(l, _)| *l);
                            v
                        };
                        let pos = sorted
                            .iter()
                            .position(|(_, cid)| *cid == id)
                            .expect("member");
                        let nref = |j: usize| NodeRef::new(sorted[j].0, sorted[j].1);
                        if pos == 0 {
                            s.right = Some(nref(1));
                            s.ring = Some(nref(m - 1));
                        } else if pos == m - 1 {
                            s.left = Some(nref(m - 2));
                            s.ring = Some(nref(0));
                        } else {
                            s.left = Some(nref(pos - 1));
                            s.right = Some(nref(pos + 1));
                        }
                    }
                    world.add_node(id, Actor::Subscriber(Box::new(s)));
                }
            }
            world
        }
        Adversary::CorruptDatabase => {
            let mut world = legit_world(n, seed, cfg);
            let sup_id = supervisor_id(&world);
            let ids = subscriber_ids(&world);
            let sup = world.node_mut(sup_id).unwrap().supervisor_mut().unwrap();
            // (i) a ⊥ tuple, (iv) an out-of-range label.
            let db = sup.database_mut();
            db.insert(random_label(&mut rng, 12), None);
            db.insert(Label::from_index(4 * n as u64 + 7), Some(ids[0]));
            // (ii) duplicate subscriber under a second label.
            db.insert(Label::from_index(2 * n as u64 + 3), Some(ids[n / 2]));
            // (iii) a missing slot: drop one legitimate entry.
            let drop_at = Label::from_index((n / 3) as u64);
            db.remove(&drop_at);
            world
        }
        Adversary::ShuffledLabels => {
            let mut world = legit_world(n, seed, cfg);
            let ids = subscriber_ids(&world);
            let mut labels: Vec<Label> = ids
                .iter()
                .map(|id| {
                    world
                        .node(*id)
                        .unwrap()
                        .subscriber()
                        .unwrap()
                        .label
                        .expect("legit world labels everyone")
                })
                .collect();
            labels.shuffle(&mut rng);
            for (id, lab) in ids.iter().zip(labels) {
                let s = world.node_mut(*id).unwrap().subscriber_mut().unwrap();
                s.label = Some(lab);
            }
            world
        }
        Adversary::CorruptChannels => {
            let mut world = legit_world(n, seed, cfg);
            let ids = subscriber_ids(&world);
            for _ in 0..(4 * n) {
                let to = ids[rng.random_range(0..ids.len())];
                let about = ids[rng.random_range(0..ids.len())];
                let msg = match rng.random_range(0..4u8) {
                    0 => Msg::Intro {
                        node: NodeRef::new(random_label(&mut rng, 10), about),
                        cyc: rng.random_bool(0.5),
                    },
                    1 => Msg::Check {
                        sender: NodeRef::new(random_label(&mut rng, 10), about),
                        assumed: random_label(&mut rng, 10),
                        cyc: rng.random_bool(0.5),
                    },
                    2 => Msg::IntroduceShortcut {
                        node: NodeRef::new(random_label(&mut rng, 10), about),
                    },
                    _ => Msg::SetData {
                        pred: Some(NodeRef::new(random_label(&mut rng, 10), about)),
                        label: Some(random_label(&mut rng, 10)),
                        succ: None,
                    },
                };
                world.inject(to, msg);
            }
            world
        }
    }
}

/// Sanity helper for tests: a legitimate world must pass the checker.
pub fn assert_legit(world: &World<Actor>) {
    let report = checker::check_topology(world);
    assert!(report.ok(), "not legitimate: {:?}", report.issues);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legit_world_is_legit() {
        for n in [1, 2, 3, 7, 16, 30] {
            assert_legit(&legit_world(n, 3, ProtocolConfig::default()));
        }
    }

    #[test]
    fn cold_world_is_not_legit_until_joined() {
        let world = cold_world(4, 3, ProtocolConfig::default());
        assert!(!checker::is_legitimate(&world));
        assert_eq!(subscriber_ids(&world).len(), 4);
    }

    #[test]
    fn adversarial_worlds_are_not_legit() {
        for adv in Adversary::all() {
            let world = adversarial_world(12, 5, ProtocolConfig::topology_only(), adv);
            if adv == Adversary::CorruptChannels {
                // State starts legitimate; the corruption is in flight.
                assert!(world.in_flight() > 0, "channels must hold garbage");
            } else {
                assert!(
                    !checker::is_legitimate(&world),
                    "{:?} produced a legitimate world",
                    adv
                );
            }
            assert_eq!(subscriber_ids(&world).len(), 12, "{adv:?} node count");
        }
    }

    #[test]
    fn builders_are_deterministic() {
        let w1 = adversarial_world(10, 42, ProtocolConfig::default(), Adversary::RandomState);
        let w2 = adversarial_world(10, 42, ProtocolConfig::default(), Adversary::RandomState);
        for id in subscriber_ids(&w1) {
            let a = w1.node(id).unwrap().subscriber().unwrap();
            let b = w2.node(id).unwrap().subscriber().unwrap();
            assert_eq!(a.label, b.label);
            assert_eq!(a.left, b.left);
            assert_eq!(a.right, b.right);
        }
    }
}
