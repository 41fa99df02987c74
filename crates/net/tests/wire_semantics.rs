//! Wire-level semantics of the threaded runtime: reliability accounting,
//! crash consumption, and reordering evidence.

use skippub_core::{PubSub, TopicId};
use skippub_net::{NetBackend, NetConfig};
use std::time::Duration;

const T: TopicId = TopicId(0);

fn cfg(seed: u64, min_us: u64, max_ms: u64) -> NetConfig {
    NetConfig {
        seed,
        min_delay: Duration::from_micros(min_us),
        max_delay: Duration::from_millis(max_ms),
        timeout_interval: Duration::from_millis(2),
        ..NetConfig::default()
    }
}

/// Polls of the default 10 ms slice in `secs` seconds.
fn polls(secs: u64) -> u64 {
    secs * 100
}

#[test]
fn wire_accounts_for_every_message() {
    let mut net = NetBackend::start(cfg(71, 10, 1));
    for _ in 0..6 {
        net.subscribe(T);
    }
    assert!(net.until_legit(polls(60)).1);
    // Quiesce briefly, then check conservation: sent ≥ delivered, and the
    // difference is bounded by dropped + a small in-flight residue.
    std::thread::sleep(Duration::from_millis(50));
    let stats = net.stats();
    assert!(stats.sent > 0);
    assert!(stats.delivered <= stats.sent);
    assert!(stats.delivered + stats.dropped <= stats.sent + 1);
    net.shutdown();
}

#[test]
fn crashes_show_up_as_dropped_messages() {
    let mut net = NetBackend::start(cfg(72, 10, 1));
    let ids: Vec<_> = (0..6).map(|_| net.subscribe(T)).collect();
    assert!(net.until_legit(polls(60)).1);
    let dropped_before = net.stats().dropped;
    net.crash(ids[2]);
    // Neighbours keep Check-ing the dead node for a while.
    std::thread::sleep(Duration::from_millis(60));
    let dropped_after = net.stats().dropped;
    assert!(
        dropped_after > dropped_before,
        "messages to the crashed node must be consumed by the wire"
    );
    net.report_crash(ids[2]);
    assert!(net.until_legit(polls(120)).1);
    net.shutdown();
}

#[test]
fn snapshot_is_consistent_under_load() {
    // Snapshots lock node-by-node while traffic flows; the checker must
    // never panic on them and node counts must be exact.
    let mut net = NetBackend::start(cfg(73, 1, 2));
    for _ in 0..8 {
        net.subscribe(T);
    }
    for _ in 0..20 {
        let snap = net.snapshot(T);
        assert_eq!(snap.len(), 9, "8 subscribers + supervisor");
        let _ = skippub_core::checker::check_topology(&snap);
        std::thread::sleep(Duration::from_millis(5));
    }
    net.shutdown();
}

#[test]
fn shutdown_is_idempotent_under_traffic() {
    let mut net = NetBackend::start(cfg(74, 10, 1));
    let a = net.subscribe(T);
    let _b = net.subscribe(T);
    std::thread::sleep(Duration::from_millis(20));
    net.publish(a, T, b"going down".to_vec());
    net.shutdown(); // must join all threads without deadlock
}
