//! Quickstart: build a self-stabilizing supervised publish-subscribe
//! topic through the backend-agnostic `PubSub` facade, let it converge,
//! publish, and watch every subscriber receive the publication.
//!
//! Swapping `build_sim()` for `build_chaos()`, `build_multi()` or
//! `build_sharded()` runs the same client code on another layout of the
//! one simulated backend.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use skippub_core::{PubSub, SystemBuilder, TopicId};

const T: TopicId = TopicId(0);

fn main() {
    // A deterministic simulated deployment: one supervisor, one topic.
    let mut ps = SystemBuilder::new(42).build_sim();

    // Eight subscribers join. Nobody coordinates anything: each node just
    // runs its periodic Timeout and the system self-organizes.
    let subscribers: Vec<_> = (0..8).map(|_| ps.subscribe(T)).collect();
    let (rounds, ok) = ps.until_legit(1000);
    assert!(ok);
    println!("✓ topic stabilized into a supervised skip ring after {rounds} rounds");

    // Inspect the topology via a facade snapshot: labels, ring
    // neighbours, shortcuts.
    let snap = ps.snapshot(T);
    println!("\n  node  label  left   right  ring   shortcuts");
    for &id in &subscribers {
        let s = snap
            .node(id)
            .and_then(skippub_core::Actor::subscriber)
            .expect("alive");
        let fmt = |r: Option<skippub_core::NodeRef>| {
            r.map(|r| r.label.to_string()).unwrap_or_else(|| "⊥".into())
        };
        println!(
            "  {id:<5} {:<6} {:<6} {:<6} {:<6} {:?}",
            s.label.map(|l| l.to_string()).unwrap_or_default(),
            fmt(s.left),
            fmt(s.right),
            fmt(s.ring),
            s.shortcuts
                .keys()
                .map(|l| l.to_string())
                .collect::<Vec<_>>(),
        );
    }

    // Alice publishes. Flooding delivers in O(log n) hops; the Patricia-
    // trie anti-entropy would repair any miss.
    let alice = subscribers[0];
    let key = ps
        .publish(alice, T, b"hello, overlay world".to_vec())
        .expect("alive");
    let (rounds, ok) = ps.until_pubs_converged(100);
    assert!(ok);
    println!("\n✓ publication {key} reached all subscribers in {rounds} rounds");

    // Deliveries are observed through the facade's event API.
    for &id in &subscribers {
        let events = ps.drain_events(id);
        assert_eq!(events.len(), 1);
        println!(
            "  {id} received {:?} = {:?} (author {})",
            events[0].key.to_string(),
            String::from_utf8_lossy(&events[0].payload),
            events[0].author,
        );
    }

    // A ninth subscriber joins late — and still receives the publication
    // ("every subscriber of a topic will eventually know all of the
    //  publications that have been issued so far", §1).
    let late = ps.subscribe(T);
    let (_, ok) = ps.until_legit(1000);
    assert!(ok);
    let (rounds, ok) = ps.until_pubs_converged(2000);
    assert!(ok);
    println!("\n✓ late joiner {late} caught up on history after {rounds} more rounds");
    assert_eq!(ps.drain_events(late).len(), 1);
}
