//! After graceful churn every member holds the label the database
//! assigns it, and the overlay settles in logarithmic rounds (ROADMAP
//! item 1b; DESIGN.md §7.7–§7.8).
//!
//! Algorithm 3's unsubscribe relabels the holder of the last label —
//! the member that joined most recently — so under interleaved joins
//! and leaves one member is sent two different labels by consecutive
//! supervisor activations. The round engine can deliver both into one
//! inbox, in either order; a supervisor that sends from its handlers
//! then leaves the stale label in place until the round-robin comes by
//! (≈ n/2 rounds). Staged configurations are computed at the timeout
//! and a relabelled member is served once more by the next activation,
//! so the last word a member hears is the database's (A). What then
//! stood between a correct database and a settled ring (B) were
//! references to members that had left or moved: forwarded out of
//! shortcut slots, tied with the label's new holder, and — on the
//! partitioned backends — never answered by the departed client.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skippub_core::pubsub::{restore, BackendSnapshot};
use skippub_core::{Actor, BackendKind, PubSub, SystemBuilder, TopicId};
use skippub_ringmath::Label;
use skippub_sim::NodeId;
use std::collections::BTreeMap;

const T: TopicId = TopicId(0);
const SEEDS: u64 = 32;
const CHURN_ROUNDS: usize = 40;
/// Rounds after the last membership operation by which the supervisor's
/// word has reached everybody: handler, flush, echo.
const LABEL_ROUNDS: usize = 3;

/// `2·⌈log2 n⌉ + 14`: the last joiners' shortcuts level by level and
/// the history they pull through anti-entropy, after a constant for the
/// configurations and the neighbours' replies to arrive. The slowest of
/// the 128 runs takes 23 rounds. At the parent commit 97 of them left
/// stale labels (A); the single-topic backend exceeded the bound on 8 of
/// 32 seeds at n = 128 and 21 of 32 at n = 512, and the sharded one
/// never settled (B).
fn settle_bound(n: usize) -> u64 {
    2 * u64::from(skippub_ringmath::analytics::max_level(n as u64)) + 14
}

/// Members whose own label differs from the one the database holds for
/// them.
fn stale_labels(ps: &dyn PubSub, members: &[NodeId]) -> Vec<NodeId> {
    let world = ps.snapshot(T);
    let assigned: BTreeMap<NodeId, Label> = world
        .iter()
        .filter_map(|(_, actor)| actor.supervisor())
        .flat_map(|sup| &sup.database)
        .filter_map(|(label, id)| id.map(|id| (id, *label)))
        .collect();
    members
        .iter()
        .copied()
        .filter(|id| {
            let own = world
                .node(*id)
                .and_then(Actor::subscriber)
                .and_then(|s| s.label);
            own.is_none() || own != assigned.get(id).copied()
        })
        .collect()
}

/// A legitimate `n`-member world, saved: every seed's script starts from
/// it, so the bootstrap is paid once per backend and size.
fn legit(kind: BackendKind, n: usize) -> (BackendSnapshot, Vec<NodeId>) {
    let mut ps = SystemBuilder::new(0xC4A2 + n as u64).shards(4).build(kind);
    let members: Vec<NodeId> = (0..n).map(|_| ps.subscribe(T)).collect();
    assert!(
        ps.until_legit(2_000).1,
        "{} n={n}: bootstrap must stabilize",
        kind.name()
    );
    (ps.save_snapshot().expect("snapshot"), members)
}

/// One seeded script: churn for `CHURN_ROUNDS`, then `(members with a
/// stale label LABEL_ROUNDS later, rounds to settle)`.
fn churn_then_settle(
    base: &BackendSnapshot,
    mut members: Vec<NodeId>,
    seed: u64,
) -> (usize, Option<u64>) {
    let mut ps = restore(base).expect("restore");
    let n = members.len();
    // members[0] publishes every round and never leaves.
    let mut coin = StdRng::seed_from_u64(seed);
    for round in 0..CHURN_ROUNDS {
        if coin.random_bool(0.5) {
            members.push(ps.subscribe(T));
        }
        if coin.random_bool(0.5) {
            let at = coin.random_range(1..members.len());
            ps.unsubscribe(members.swap_remove(at), T);
        }
        ps.publish(members[0], T, format!("story {round}").into_bytes())
            .expect("live author");
        ps.step();
    }
    for _ in 0..LABEL_ROUNDS {
        ps.step();
    }
    let stale = stale_labels(ps.as_ref(), &members).len();
    let bound = settle_bound(n);
    let mut settled = None;
    for r in 0..=2 * bound {
        if ps.is_legitimate() && ps.publications_converged().0 {
            settled = Some(r + LABEL_ROUNDS as u64);
            break;
        }
        ps.step();
    }
    (stale, settled)
}

fn churn_settles_in_logarithmic_rounds(kind: BackendKind, n: usize) {
    let name = kind.name();
    let bound = settle_bound(n);
    let (base, members) = legit(kind, n);
    let runs: Vec<(usize, Option<u64>)> = (1..=SEEDS)
        .map(|seed| churn_then_settle(&base, members.clone(), seed))
        .collect();
    eprintln!("{name} n={n} bound={bound}: (stale, settle) per seed {runs:?}");
    for (seed, (stale, settled)) in (1..=SEEDS).zip(&runs) {
        assert_eq!(
            *stale, 0,
            "{name} n={n} seed={seed}: {stale} members hold a label the database \
             does not assign them {LABEL_ROUNDS} rounds after the last operation"
        );
        assert!(
            settled.is_some_and(|r| r <= bound),
            "{name} n={n} seed={seed}: settled after {settled:?} rounds, bound {bound}"
        );
    }
}

// One test per backend and size: they run side by side.
#[test]
fn sim_settles_after_churn_at_128() {
    churn_settles_in_logarithmic_rounds(BackendKind::Sim, 128);
}

#[test]
fn sim_settles_after_churn_at_512() {
    churn_settles_in_logarithmic_rounds(BackendKind::Sim, 512);
}

#[test]
fn sharded_settles_after_churn_at_128() {
    churn_settles_in_logarithmic_rounds(BackendKind::Sharded, 128);
}

#[test]
fn sharded_settles_after_churn_at_512() {
    churn_settles_in_logarithmic_rounds(BackendKind::Sharded, 512);
}
