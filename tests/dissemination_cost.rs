//! Counter gate on the publication plane (ROADMAP item 1; DESIGN.md
//! §7.6): under a sustained publish load a node sends one dissemination
//! batch per edge per round, not one message per publication per edge.
//!
//! 100 subscribers of one topic, 8 of them publishing every round for
//! 40 rounds. Forwarding each publication on its own costs ≈ 44
//! messages per node-round here (≈ 31 `PublishNew` copies, ≈ 9
//! `CheckTrie` descents chasing floods still in flight, against ≈ 4.5
//! when idle); coalesced it is ≈ 11.5. The gate sits between the two,
//! on a count that repeats exactly per seed on every machine.

use skippub_core::{BackendKind, PubSub, SystemBuilder, TopicId};
use skippub_sim::NodeId;
use std::collections::BTreeMap;

const T: TopicId = TopicId(0);
const MEMBERS: usize = 100;
const PUBLISHERS: usize = 8;
const ROUNDS: usize = 40;
/// Messages per node-round the load may cost.
const BUDGET: f64 = 16.0;
/// Rounds after the last publish by which every store must agree.
const SETTLE: u64 = 8;

fn sustained_publishing_stays_within_the_message_budget(kind: BackendKind) {
    let name = kind.name();
    let mut ps = SystemBuilder::new(0xC0A1).shards(4).build(kind);
    let ids: Vec<NodeId> = (0..MEMBERS).map(|_| ps.subscribe(T)).collect();
    assert!(ps.until_legit(2_000).1, "{name}: bootstrap must stabilize");

    // How often each member drained each key.
    let mut drained: Vec<BTreeMap<String, u32>> = vec![BTreeMap::new(); MEMBERS];
    let mut drain = |ps: &mut dyn PubSub| {
        for (seen, &id) in drained.iter_mut().zip(&ids) {
            for d in ps.drain_events(id) {
                *seen.entry(d.key.to_string()).or_default() += 1;
            }
        }
    };

    let sent_before = ps.stats().sent;
    for round in 0..ROUNDS {
        for k in 0..PUBLISHERS {
            // A different eighth of the ring every round.
            let author = ids[(round * PUBLISHERS + k * (MEMBERS / PUBLISHERS)) % MEMBERS];
            ps.publish(author, T, format!("story {round}.{k}").into_bytes())
                .expect("live author");
        }
        ps.step();
        drain(ps.as_mut());
    }
    let sent = ps.stats().sent - sent_before;
    let per_node_round = sent as f64 / (MEMBERS * ROUNDS) as f64;
    eprintln!("{name}: {sent} messages, {per_node_round:.2} per node-round");
    assert!(
        per_node_round <= BUDGET,
        "{name}: {per_node_round:.2} messages per node-round under load, budget {BUDGET}"
    );

    let (rounds, ok) = ps.until_pubs_converged(SETTLE);
    assert!(
        ok,
        "{name}: stores differ {SETTLE} rounds after the last publish"
    );
    assert_eq!(ps.publications_converged().1, PUBLISHERS * ROUNDS);
    assert!(
        ps.is_legitimate(),
        "{name}: publishing disturbed the overlay"
    );
    eprintln!("{name}: converged {rounds} rounds after the last publish");
    drain(ps.as_mut());
    for (seen, id) in drained.iter().zip(&ids) {
        assert_eq!(
            seen.len(),
            PUBLISHERS * ROUNDS,
            "{name}: {id:?} missed a publication"
        );
        assert!(
            seen.values().all(|&times| times == 1),
            "{name}: {id:?} drained a publication twice"
        );
    }
}

#[test]
fn sim_stays_within_the_message_budget_under_sustained_publishing() {
    sustained_publishing_stays_within_the_message_budget(BackendKind::Sim);
}

#[test]
fn sharded_stays_within_the_message_budget_under_sustained_publishing() {
    sustained_publishing_stays_within_the_message_budget(BackendKind::Sharded);
}
