//! Integration: structural comparisons between the skip ring and the
//! baseline overlays (the measured versions of the paper's §1.2/§1.3
//! prose).

use skippub_baselines::{metrics, Chord, RingCast, SkipGraph};
use skippub_ringmath::{analytics, IdealSkipRing};
use std::collections::BTreeMap;

fn skipring_adj(n: usize) -> Vec<Vec<usize>> {
    let sr = IdealSkipRing::new(n);
    let labels = sr.labels().to_vec();
    let index: BTreeMap<_, _> = labels.iter().enumerate().map(|(i, l)| (*l, i)).collect();
    let mut adj = vec![Vec::new(); n];
    for (l, ns) in sr.adjacency() {
        adj[index[&l]] = ns.iter().map(|m| index[m]).collect();
    }
    adj
}

#[test]
fn skip_ring_diameter_beats_plain_ring() {
    for n in [16usize, 64, 256] {
        let sr_diam = metrics::diameter(&skipring_adj(n));
        let ring_diam = metrics::diameter(&RingCast::new(n).adjacency());
        assert!(
            sr_diam < ring_diam,
            "n={n}: skip ring {sr_diam} !< ring {ring_diam}"
        );
        let log_n = analytics::max_level(n as u64) as usize;
        assert!(
            sr_diam <= 2 * log_n,
            "n={n}: diameter {sr_diam} not O(log n)"
        );
    }
}

#[test]
fn skip_ring_arcs_perfectly_balanced_chord_arcs_not() {
    let n = 256;
    let sr = IdealSkipRing::new(n);
    let fracs: Vec<u64> = sr.labels().iter().map(|l| l.frac()).collect();
    let arcs: Vec<u64> = (0..n)
        .map(|i| fracs[(i + 1) % n].wrapping_sub(fracs[i]))
        .collect();
    let max = *arcs.iter().max().unwrap() as f64;
    let min = *arcs.iter().min().unwrap() as f64;
    assert!(
        max / min <= 2.0 + 1e-9,
        "supervised arcs within 2×: {}",
        max / min
    );

    let chord = Chord::new(n, 9);
    let carcs = chord.arc_lengths();
    let cmax = *carcs.iter().max().unwrap() as f64;
    let cmin = *carcs.iter().filter(|&&a| a > 0).min().unwrap() as f64;
    assert!(
        cmax / cmin > 4.0,
        "random placement should be uneven: {}",
        cmax / cmin
    );
}

#[test]
fn degrees_skipring_vs_chord() {
    for n in [64usize, 256] {
        let sr_spread = metrics::degree_spread(&skipring_adj(n));
        let c_spread = metrics::degree_spread(&Chord::new(n, 2).adjacency_undirected());
        assert!(sr_spread.max <= c_spread.max, "n={n}");
        assert!(
            sr_spread.avg <= 4.5,
            "n={n} skip-ring avg {}",
            sr_spread.avg
        );
    }
}

#[test]
fn all_overlays_are_connected_with_log_diameter() {
    let n = 128;
    for (name, adj) in [
        ("skipring", skipring_adj(n)),
        ("chord", Chord::new(n, 3).adjacency_undirected()),
        ("skipgraph", SkipGraph::new(n, 3).adjacency()),
    ] {
        let d = metrics::diameter(&adj);
        assert!(d <= 26, "{name} diameter {d} too large for n={n}");
    }
}

#[test]
fn broker_fanout_vs_supervisor_zero_publish_load() {
    // The broker carries Θ(subscribers) messages per publication; the
    // skippub supervisor carries none (publications never touch it).
    let mut broker = skippub_baselines::Broker::new();
    for _ in 0..500 {
        broker.subscribe(1);
    }
    broker.publish(1);
    assert!(broker.msgs_per_publication() >= 500.0);

    use skippub_core::pubsub::SimBackend;
    use skippub_core::scenarios::{self, SUPERVISOR};
    use skippub_core::{ProtocolConfig, PubSub, TopicId};
    let cfg = ProtocolConfig::default();
    let mut sim = SimBackend::from_world(scenarios::legit_world(32, 4, cfg), cfg);
    let before = sim.metrics().sent_by(SUPERVISOR);
    let src = sim.subscriber_ids()[0];
    sim.publish(src, TopicId(0), b"load test".to_vec());
    let (_, ok) = sim.until_pubs_converged(50);
    assert!(ok);
    let sup_msgs = sim.metrics().sent_by(SUPERVISOR) - before;
    // Only background round-robin/probe traffic — bounded by rounds, not
    // by subscriber count.
    assert!(
        sup_msgs <= 10,
        "supervisor sent {sup_msgs} msgs for a publish"
    );
}
