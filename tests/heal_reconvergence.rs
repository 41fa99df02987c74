//! Post-heal reconvergence is logarithmic in n, and a converged system
//! stays silent (ROADMAP item 3a; DESIGN.md §7.6).
//!
//! A tenth of the members is severed for a fixed window while both sides
//! publish. Flooding cannot cross the cut, so after the heal every
//! publication is missing on one side and anti-entropy has to repair it.
//! With Algorithm 5 alone a repaired publication moves one ring hop per
//! exchange (≈ 3·n rounds); the relay of repaired publications sends it
//! on along every edge, so the repair spreads like a flood.

use skippub_core::{BackendKind, PubSub, SystemBuilder, TopicId};
use skippub_sim::{FaultSpec, NodeId, Sever};

const T: TopicId = TopicId(0);
const CUT_ROUNDS: u64 = 12;

/// `4·⌈log2 n⌉ + 8`: a flood's worth of hops for the slowest repair to
/// start, cross the overlay and be acknowledged by the checker, with a
/// constant for the anti-entropy exchange that finds the difference.
fn settle_bound(n: usize) -> u64 {
    4 * u64::from(skippub_ringmath::analytics::max_level(n as u64)) + 8
}

/// A legitimate `n`-member world built through the facade.
fn legit(kind: BackendKind, n: usize) -> (Box<dyn PubSub>, Vec<NodeId>) {
    let mut ps = SystemBuilder::new(0x4EA1 + n as u64).shards(4).build(kind);
    let ids: Vec<NodeId> = (0..n).map(|_| ps.subscribe(T)).collect();
    let (_, ok) = ps.until_legit(2_000);
    assert!(ok, "{} n={n}: bootstrap must stabilize", kind.name());
    (ps, ids)
}

fn healed_partition_reconverges_in_logarithmic_rounds(kind: BackendKind) {
    for n in [256usize, 1_024, 4_096] {
        let (mut ps, ids) = legit(kind, n);
        let (minority, majority) = ids.split_at(n / 10);
        ps.set_faults(Some(FaultSpec {
            seed: 7,
            rules: vec![],
            severs: vec![Sever {
                from_round: 0,
                to_round: CUT_ROUNDS,
                group: minority.iter().map(|id| id.0).collect(),
            }],
        }));
        for r in 0..CUT_ROUNDS as usize {
            let side = if r % 2 == 0 { minority } else { majority };
            let author = side[(r / 2) % side.len()];
            ps.publish(author, T, format!("story {r}").into_bytes())
                .expect("live author");
            ps.step();
        }
        assert!(
            !ps.publications_converged().0,
            "{} n={n}: the cut must have kept the sides apart",
            kind.name()
        );
        let bound = settle_bound(n);
        let (rounds, ok) = ps.until_pubs_converged(bound);
        assert!(
            ok && ps.is_legitimate(),
            "{} n={n}: not reconverged {bound} rounds after the heal",
            kind.name()
        );
        assert_eq!(ps.publications_converged().1, CUT_ROUNDS as usize);
        eprintln!(
            "{} n={n}: reconverged {rounds} rounds after the heal (bound {bound})",
            kind.name()
        );
    }
}

// One test per backend: the n = 4096 bootstrap dominates, and the two
// run side by side.
#[test]
fn sim_reconverges_in_logarithmic_rounds_after_a_heal() {
    healed_partition_reconverges_in_logarithmic_rounds(BackendKind::Sim);
}

#[test]
fn sharded_reconverges_in_logarithmic_rounds_after_a_heal() {
    healed_partition_reconverges_in_logarithmic_rounds(BackendKind::Sharded);
}

/// Closure: once legitimate and converged, nobody ships a publication —
/// the relay adds no steady-state traffic.
#[test]
fn converged_world_sends_no_publications() {
    let builder = SystemBuilder::new(0xC105).shards(4);
    let mut sim = builder.build_sim();
    let mut sharded = builder.build_sharded();
    let quiet = |ps: &mut dyn PubSub| {
        let ids: Vec<NodeId> = (0..64).map(|_| ps.subscribe(T)).collect();
        assert!(ps.until_legit(2_000).1);
        for (k, id) in ids.iter().step_by(16).enumerate() {
            ps.publish(*id, T, format!("story {k}").into_bytes())
                .expect("live author");
        }
        assert!(ps.until_pubs_converged(200).1);
        // In-flight flood copies drain before the observation starts.
        for _ in 0..20 {
            ps.step();
        }
    };
    quiet(&mut sim);
    quiet(&mut sharded);
    let (sim_before, sharded_before) = (sim.metrics().clone(), sharded.metrics());
    for _ in 0..200 {
        sim.step();
        sharded.step();
    }
    for (name, during) in [
        ("sim", sim.metrics().diff(&sim_before)),
        ("sharded", sharded.metrics().diff(&sharded_before)),
    ] {
        assert!(
            during.kind("CheckTrie") > 0,
            "{name}: anti-entropy keeps probing"
        );
        for kind in ["Publish", "CheckAndPublish", "PublishNew"] {
            assert_eq!(
                during.kind(kind),
                0,
                "{name}: {kind} sent in a converged world"
            );
        }
        assert!(sim.is_legitimate() && sharded.is_legitimate());
    }
}
