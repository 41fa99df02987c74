//! E5 — Theorem 7: in a legitimate state, subscribe and unsubscribe cost
//! the supervisor (and the subscriber) a **constant** number of messages,
//! independent of `n` — the headline advantage over both brokers (Θ(n)
//! publish fan-out) and pure P2P joins (Θ(log n) routing).
//!
//! The constants are those of DESIGN.md §7.7–§7.8. On its own account the
//! supervisor sends 1 configuration per subscribe and 3 per unsubscribe
//! (the relabelled member twice, the leaver once). What an operation
//! stirs up among the subscribers it answers on top: the two neighbours
//! of the slot an unsubscribe vacates each ask for their configuration,
//! and a reference to the leaver that ties with the label's new holder
//! is arbitrated (one `SetData(⊥,⊥,⊥)` and one `RemoveConnections`).

use crate::table::f2;
use crate::{Report, Scale, Table};
use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{self, SUPERVISOR};
use skippub_core::{Msg, ProtocolConfig, PubSub, TopicId};

/// 1 staged configuration, plus the joiner's repeated `Subscribe` and
/// probes while it settles in (measured ≈ 2.0–2.2 at every n).
const SUBSCRIBE_BUDGET: f64 = 1.0 + 3.0;
/// 3 staged configurations, 2 answers to the vacated slot's neighbours
/// and arbitration of stale references (measured ≈ 6.0–6.5 from n = 128
/// up, less below where the relabelled member often is the leaver's
/// neighbour).
const UNSUBSCRIBE_BUDGET: f64 = 3.0 + 2.0 + 3.0;

/// Runs E5.
pub fn run(scale: Scale, seed: u64) -> Report {
    let sweep: &[usize] = scale.pick(&[8usize, 32][..], &[8usize, 32, 128, 512, 2048][..]);
    let ops = scale.pick(10u64, 40u64);
    let cfg = ProtocolConfig::topology_only();
    let mut t = Table::new(
        "supervisor messages per operation (marginal over background)",
        &["n", "op", "sup msgs/op", "staged"],
    );
    let mut verdicts = Vec::new();
    let mut sub_const = true;
    let mut unsub_const = true;

    for &n in sweep {
        // --- subscribes ---
        let mut sim = PartitionedBackend::from_world(scenarios::legit_world(n, seed, cfg), cfg);
        // Background supervisor rate: 1 round-robin config per round plus
        // probe responses. Measure it first.
        let before = sim.metrics().clone();
        let warm = 50u64;
        for _ in 0..warm {
            sim.step();
        }
        let bg = sim.metrics().diff(&before);
        let bg_rate = bg.sent_by(SUPERVISOR) as f64 / warm as f64;
        // Now the ops, one per round.
        let before = sim.metrics().clone();
        for _ in 0..ops {
            // Straight into the supervisor's channel: skips the joiner's
            // first-timeout latency so each round measures one subscribe.
            let node = sim.subscribe(TopicId(0));
            sim.world_mut().inject(SUPERVISOR, Msg::Subscribe { node });
            sim.step();
        }
        let d = sim.metrics().diff(&before);
        let per_sub = (d.sent_by(SUPERVISOR) as f64 - bg_rate * ops as f64) / ops as f64;
        sub_const &= per_sub <= SUBSCRIBE_BUDGET;
        t.row(vec![
            n.to_string(),
            "subscribe".into(),
            f2(per_sub),
            "1 SetData".into(),
        ]);

        // --- unsubscribes ---
        let mut sim = PartitionedBackend::from_world(scenarios::legit_world(n, seed ^ 1, cfg), cfg);
        let (_, ok) = sim.until_legit(10);
        debug_assert!(ok);
        let before = sim.metrics().clone();
        for _ in 0..warm {
            sim.step();
        }
        let bg = sim.metrics().diff(&before);
        let bg_rate = bg.sent_by(SUPERVISOR) as f64 / warm as f64;
        let victims: Vec<_> = sim
            .subscriber_ids()
            .into_iter()
            .take(ops as usize)
            .collect();
        let before = sim.metrics().clone();
        let mut rounds = 0u64;
        for v in victims {
            sim.unsubscribe(v, TopicId(0));
            sim.step();
            rounds += 1;
        }
        let d = sim.metrics().diff(&before);
        let per_unsub = (d.sent_by(SUPERVISOR) as f64 - bg_rate * rounds as f64) / ops as f64;
        unsub_const &= per_unsub <= UNSUBSCRIBE_BUDGET;
        t.row(vec![
            n.to_string(),
            "unsubscribe".into(),
            f2(per_unsub),
            "3 SetData".into(),
        ]);
    }
    verdicts.push((
        "subscribe costs O(1) supervisor messages at every n".into(),
        sub_const,
    ));
    verdicts.push((
        "unsubscribe costs O(1) supervisor messages at every n".into(),
        unsub_const,
    ));

    Report {
        id: "E5",
        artefact: "Theorem 7",
        claim: "constant supervisor message overhead per subscribe/unsubscribe, independent of n",
        tables: vec![t],
        verdicts,
    }
}
