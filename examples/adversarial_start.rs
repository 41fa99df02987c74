//! Self-stabilization, visualized: start from a thoroughly corrupted
//! state — partitioned components with conflicting labels, garbage in
//! every channel — and watch the legitimate-state checker's issue count
//! fall to zero (Theorem 8). The corrupted worlds are wrapped in the
//! `PubSub` facade's sim backend (`PartitionedBackend::from_world`) and driven
//! with facade steps.
//!
//! ```text
//! cargo run --release --example adversarial_start
//! ```

use skippub_core::pubsub::PartitionedBackend;
use skippub_core::scenarios::{adversarial_world, Adversary};
use skippub_core::{ProtocolConfig, PubSub, TopicId};

fn main() {
    let n = 24;
    let cfg = ProtocolConfig::topology_only();

    for adversary in Adversary::all() {
        let world = adversarial_world(n, 99, cfg, adversary);
        let mut ps = PartitionedBackend::from_world(world, cfg);
        println!("\n▶ initial state: {} (n = {n})", adversary.name());
        let mut round = 0u64;
        let mut last_issues = usize::MAX;
        loop {
            let issues = ps.report(TopicId(0)).issues.len();
            if issues != last_issues && (round.is_multiple_of(5) || issues == 0) {
                println!("  round {round:>4}: {issues:>3} invariant violations");
                last_issues = issues;
            }
            if issues == 0 {
                break;
            }
            assert!(round < 40_000, "did not converge");
            ps.step();
            round += 1;
        }
        println!("  ✓ legitimate after {round} rounds");
        // Closure: once the state *and the channels* have settled, the
        // system stays legitimate. Stale messages left in flight by the
        // adversarial start may still perturb the topology transiently
        // (the model only promises eventual permanence), so demand 50
        // *consecutive* legitimate rounds.
        let mut streak = 0;
        while streak < 50 {
            ps.step();
            round += 1;
            streak = if ps.is_legitimate() { streak + 1 } else { 0 };
            assert!(round < 40_000, "legitimacy never became permanent");
        }
        println!("  ✓ stayed legitimate for 50 consecutive rounds (closure)");
    }
    println!("\n✓ all adversarial families converged and stayed converged");
}
