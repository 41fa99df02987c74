//! E1 — Figure 1: the skip ring `SR(16)`.
//!
//! Regenerates the figure's triple table `(x, l(x), r(l(x)))` and its
//! edge colouring (16 black ring edges, 8 green level-3, 4 red level-2,
//! 1 blue level-1), then verifies that the *protocol-built* topology
//! (cold bootstrap of 16 subscribers) matches the ideal edge-for-edge.

use crate::{Report, Scale, Table};
use skippub_core::pubsub::SimBackend;
use skippub_core::{scenarios, ProtocolConfig, PubSub};
use skippub_ringmath::{IdealSkipRing, Label};

/// Runs E1.
pub fn run(_scale: Scale, seed: u64) -> Report {
    let sr = IdealSkipRing::new(16);

    // The figure's triples, in insertion order.
    let mut triples = Table::new(
        "Figure 1 triples (x, l(x), r(l(x)))",
        &["x", "l(x)", "r(l(x))"],
    );
    for x in 0..16u64 {
        let l = Label::from_index(x);
        triples.row(vec![x.to_string(), l.to_string(), l.r_fraction()]);
    }

    // Edge colouring.
    let mut edges = Table::new(
        "SR(16) edges by level (Figure 1 colours)",
        &["level", "colour", "edges", "paper"],
    );
    let edge_list = sr.edges();
    let count = |lvl: u8| edge_list.iter().filter(|e| e.level == lvl).count();
    for (lvl, colour, paper) in [
        (4u8, "black (ring)", 16),
        (3, "green", 8),
        (2, "red", 4),
        (1, "blue", 1),
    ] {
        edges.row(vec![
            lvl.to_string(),
            colour.to_string(),
            count(lvl).to_string(),
            paper.to_string(),
        ]);
    }

    // Protocol-built SR(16) must equal the ideal.
    let cfg = ProtocolConfig::topology_only();
    let mut sim = SimBackend::from_world(scenarios::cold_world(16, seed, cfg), cfg);
    let (rounds, converged) = sim.until_legit(2000);
    let mut verdicts = vec![
        (
            "edge counts match Figure 1 (16/8/4/1)".to_string(),
            count(4) == 16 && count(3) == 8 && count(2) == 4 && count(1) == 1,
        ),
        (
            format!("protocol bootstrap reaches SR(16) (took {rounds} rounds)"),
            converged,
        ),
    ];
    // Every subscriber's neighbourhood equals the ideal one.
    let mut all_match = converged;
    if converged {
        for id in sim.subscriber_ids() {
            let s = sim.subscriber(id).expect("live");
            let label = s.label.expect("labelled in legit state");
            let (il, ir) = sr.ring_neighbors(label);
            let el = s.eff_left().map(|r| r.label);
            let er = s.eff_right().map(|r| r.label);
            if el != Some(il) || er != Some(ir) {
                all_match = false;
            }
            let mut ideal_sc: Vec<Label> = sr.shortcuts_of(label).iter().map(|t| t.label).collect();
            ideal_sc.sort();
            let got_sc: Vec<Label> = s.shortcuts.keys().copied().collect();
            if ideal_sc != got_sc {
                all_match = false;
            }
        }
    }
    verdicts.push((
        "protocol topology == Definition-2 topology".to_string(),
        all_match,
    ));

    Report {
        id: "E1",
        artefact: "Figure 1",
        claim:
            "SR(16): labels at 1/16-spaced positions; ring + 8/4/1 shortcut edges on levels 3/2/1",
        tables: vec![triples, edges],
        verdicts,
    }
}
