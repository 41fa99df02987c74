//! Churn under asynchrony: the chaos scheduler delivers messages in
//! random order after random delays (with a forced-delivery age bound,
//! the model's fair receipt) and fires `Timeout`s in random order. Nodes
//! crash without warning and leave gracefully; the supervisor's single
//! failure detector (§3.3) is the only failure information in the whole
//! system.
//!
//! The whole scenario is driven through the same `PubSub` facade every
//! backend serves; a facade `step` is one chaos round, so the run is
//! replayable from its seed and the `until_*` budgets are round counts.
//!
//! ```text
//! cargo run --release --example churn_recovery
//! ```

use skippub_core::{PubSub, SystemBuilder, TopicId};

const T: TopicId = TopicId(0);

fn main() {
    let mut ps = SystemBuilder::new(2024).build_chaos();

    let n = 12;
    let ids: Vec<_> = (0..n).map(|_| ps.subscribe(T)).collect();
    let (rounds, ok) = ps.until_legit(6000);
    assert!(ok, "bootstrap stalled");
    println!("✓ {n} subscribers stabilized in {rounds} chaos rounds");

    // Publish a few messages so there is state to preserve through churn.
    for (i, &id) in ids.iter().take(3).enumerate() {
        ps.publish(id, T, format!("pre-churn message {i}").into_bytes());
    }
    assert!(ps.until_pubs_converged(6000).1);
    println!("✓ 3 publications delivered to everyone");

    // Churn: two crashes (state vanishes) + one graceful leave.
    ps.crash(ids[2]);
    ps.crash(ids[7]);
    ps.unsubscribe(ids[4], T);
    println!(
        "… crashed {:?} and {:?}, unsubscribed {:?}",
        ids[2], ids[7], ids[4]
    );

    // The eventually-correct failure detector reports after a delay.
    let detection_delay = 10;
    for _ in 0..detection_delay {
        ps.step();
    }
    ps.report_crash(ids[2]);
    ps.report_crash(ids[7]);

    let (rounds, ok) = ps.until_legit(12000);
    assert!(ok, "recovery stalled");
    println!(
        "✓ re-stabilized {} chaos rounds after the churn burst",
        detection_delay + rounds
    );

    // The survivors still hold the complete publication history,
    // observed through the facade's event API.
    assert!(ps.until_pubs_converged(6000).1);
    let snap = ps.snapshot(T);
    let mut survivors = 0;
    for &id in &ids {
        let is_member = snap
            .node(id)
            .and_then(skippub_core::Actor::subscriber)
            .map(|s| s.wants_membership)
            .unwrap_or(false);
        if is_member {
            let events = ps.drain_events(id);
            assert_eq!(events.len(), 3, "survivor {id:?} missing history");
            survivors += 1;
        }
    }
    let sup_n = snap
        .iter()
        .find_map(|(_, a)| a.supervisor())
        .expect("supervisor")
        .n();
    println!("✓ {survivors} survivors (database size {sup_n}), history intact");
    assert_eq!(sup_n, n - 3);

    let stats = ps.stats();
    println!(
        "traffic: {} sent, {} delivered, {} consumed by crashes",
        stats.sent, stats.delivered, stats.dropped
    );
}
