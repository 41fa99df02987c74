//! Conformance of the fast boolean checker with the diagnostic checker:
//! `fast_check_parts(sup, members, scratch) == check_topology_parts(sup, members).ok()`
//! on randomly corrupted worlds (label flips, dropped/garbled edges,
//! stale database entries, membership flips, shortcut poisoning) and on
//! every mid-stabilization snapshot of a cold bootstrap — the
//! correctness bar of the incremental checking layer. Beside it, the
//! publication-convergence fast path:
//! `pubs_converged_fast(subs, scratch) == publications_converged_of(subs)`
//! on random store families.

use proptest::collection::vec;
use proptest::prelude::*;
use skippub_core::checker::{self, CheckScratch};
use skippub_core::{scenarios, ProtocolConfig};
use skippub_ringmath::Label;
use skippub_sim::{NodeId, World};
use skippub_trie::{PatriciaTrie, Publication};

/// One random corruption, interpreted against the world's population
/// (indices taken modulo the relevant collection sizes so every drawn
/// tuple is applicable).
type Corruption = (u8, u64, u64);

fn apply(world: &mut World<skippub_core::Actor>, (kind, a, b): Corruption) {
    let ids = scenarios::subscriber_ids(world);
    if ids.is_empty() {
        return;
    }
    let victim = ids[(a % ids.len() as u64) as usize];
    let sup_id = scenarios::supervisor_id(world);
    let label_pool = ["0", "1", "01", "11", "010", "111111"];
    let lab: Label = label_pool[(b % label_pool.len() as u64) as usize]
        .parse()
        .unwrap();
    match kind % 8 {
        0 => {
            // Label flip.
            let s = world.node_mut(victim).unwrap().subscriber_mut().unwrap();
            s.label = Some(lab);
        }
        1 => {
            // Dropped edges.
            let s = world.node_mut(victim).unwrap().subscriber_mut().unwrap();
            s.left = None;
            s.right = None;
        }
        2 => {
            // Garbled ring edge pointing at self under a random label.
            let s = world.node_mut(victim).unwrap().subscriber_mut().unwrap();
            s.ring = Some(skippub_core::NodeRef::new(lab, victim));
        }
        3 => {
            // Stale db entry: (label, ⊥).
            let sup = world.node_mut(sup_id).unwrap().supervisor_mut().unwrap();
            sup.database_mut().insert(lab, None);
        }
        4 => {
            // Duplicate db value under an extra label.
            let sup = world.node_mut(sup_id).unwrap().supervisor_mut().unwrap();
            sup.database_mut().insert(lab, Some(victim));
        }
        5 => {
            // Membership-intent flip (an "unsubscribing but still
            // labelled and listed" state).
            let s = world.node_mut(victim).unwrap().subscriber_mut().unwrap();
            s.wants_membership = !s.wants_membership;
        }
        6 => {
            // Shortcut poisoning: clear one slot or file a bogus one.
            let s = world.node_mut(victim).unwrap().subscriber_mut().unwrap();
            if b % 2 == 0 {
                if let Some(k) = s.shortcuts.keys().next().copied() {
                    s.shortcuts.insert(k, None);
                }
            } else {
                s.shortcuts.insert(lab, Some(NodeId(a)));
            }
        }
        _ => {
            // db entry redirected to a dead/unknown node.
            let sup = world.node_mut(sup_id).unwrap().supervisor_mut().unwrap();
            if let Some(v) = sup.database_mut().values_mut().next() {
                *v = Some(NodeId(0xDEAD_0000 + a));
            }
        }
    }
}

/// The fast verdict on a whole single-topic world: exactly one
/// supervisor (as `check_topology` demands), then `fast_check_parts`.
fn fast_check(world: &World<skippub_core::Actor>, scratch: &mut CheckScratch) -> bool {
    let mut sups = world.iter().filter_map(|(_, a)| a.supervisor());
    match (sups.next(), sups.next()) {
        (Some(sup), None) => checker::fast_check_parts(
            sup,
            world
                .iter()
                .filter_map(|(id, a)| a.subscriber().map(|s| (id, s))),
            scratch,
        ),
        _ => false,
    }
}

fn assert_paths_agree(world: &World<skippub_core::Actor>, scratch: &mut CheckScratch) {
    let full = checker::check_topology(world);
    let fast = fast_check(world, scratch);
    assert_eq!(
        fast,
        full.ok(),
        "fast and diagnostic checkers disagree; issues: {:?}",
        full.issues
    );
}

proptest! {
    // At least 48 cases; `PROPTEST_CASES` can ask for more.
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::default().cases.max(48),
        ..ProptestConfig::default()
    })]

    #[test]
    fn fast_equals_diagnostic_on_corrupted_worlds(
        seed in any::<u64>(),
        n in 2usize..12,
        corruptions in vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..6),
    ) {
        let mut world = scenarios::legit_world(n, seed, ProtocolConfig::default());
        let mut scratch = CheckScratch::default();
        // Sanity: the uncorrupted world agrees (and is legitimate).
        prop_assert!(fast_check(&world, &mut scratch));
        for c in corruptions {
            apply(&mut world, c);
            let full = checker::check_topology(&world).ok();
            let fast = fast_check(&world, &mut scratch);
            prop_assert_eq!(fast, full);
        }
    }

    #[test]
    fn fast_equals_diagnostic_on_mid_stabilization_snapshots(
        seed in any::<u64>(),
        n in 2usize..10,
    ) {
        // A cold start passes through every intermediate topology shape;
        // the paths must agree on each per-round snapshot, not just on
        // the fixed points.
        let mut world = scenarios::cold_world(n, seed, ProtocolConfig::default());
        let mut scratch = CheckScratch::default();
        for _ in 0..120 {
            let full = checker::check_topology(&world).ok();
            let fast = fast_check(&world, &mut scratch);
            prop_assert_eq!(fast, full);
            if full {
                break;
            }
            world.run_round();
        }
    }
}

#[test]
fn scratch_is_reusable_across_divergent_worlds() {
    // One scratch must serve worlds of very different sizes without
    // carrying state over (stale buffers were a real failure mode of
    // hand-rolled scratch reuse).
    let mut scratch = CheckScratch::default();
    for n in [1usize, 16, 2, 33, 1] {
        let world = scenarios::legit_world(n, 5, ProtocolConfig::default());
        assert_paths_agree(&world, &mut scratch);
    }
}

/// FNV-1a over `text`'s bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The diagnostic checker's text, not just its verdict, on a fixed list
/// of corruptions: every kind `apply` knows, alone and paired with
/// another, on three seeded 64-member worlds. The pinned hash was
/// recorded from the linear-scan checker, so a faster lookup that
/// changes one issue, its wording or its order fails here.
#[test]
fn diagnostic_text_is_pinned_on_fixed_corruptions() {
    let mut text = String::new();
    for seed in [1u64, 2, 3] {
        for kind in 0..8u8 {
            let (a, b) = (seed * 31 + u64::from(kind), seed + 5 * u64::from(kind));
            let pairs: [&[Corruption]; 2] = [
                &[(kind, a, b)],
                &[(kind, a, b), ((kind + 3) % 8, b, a)],
            ];
            for corruptions in pairs {
                let mut world = scenarios::legit_world(64, seed, ProtocolConfig::default());
                for &c in corruptions {
                    apply(&mut world, c);
                }
                for issue in checker::check_topology(&world).issues {
                    text.push_str(&issue);
                    text.push('\n');
                }
            }
        }
    }
    for part in ["shortcut", "missing from database", "database says", "expected"] {
        assert!(text.contains(part), "the list must reach {part:?} issues");
    }
    if std::env::var("FIXTURE_PRINT").is_ok() {
        println!("{} lines, {:#018x}", text.lines().count(), fnv1a(&text));
    }
    assert_eq!(text.lines().count(), 108, "issue count moved:\n{text}");
    assert_eq!(fnv1a(&text), 0xb5c4_0997_0570_e22e, "issue text moved:\n{text}");
}

/// `(author, payload)` pairs that become publications.
type Items = Vec<(u64, Vec<u8>)>;

fn items(max: usize) -> impl Strategy<Value = Items> {
    vec((0u64..32, vec(any::<u8>(), 0..4)), 0..max)
}

fn store(items: &[(u64, Vec<u8>)], m: usize) -> PatriciaTrie {
    let mut trie = PatriciaTrie::new();
    for (author, payload) in items {
        trie.insert(Publication::with_key_bits(*author, payload.clone(), m));
    }
    trie
}

proptest! {
    // No fixed case count: `PROPTEST_CASES` scales this exactness check.
    #[test]
    fn fast_pubs_equal_the_union_on_random_store_families(
        seed in any::<u64>(),
        common in items(48),
        members in vec((any::<u8>(), any::<u8>(), items(8)), 1..12),
    ) {
        let world = scenarios::legit_world(members.len(), seed, ProtocolConfig::default());
        let mut subs: Vec<skippub_core::Subscriber> =
            world.iter().filter_map(|(_, a)| a.subscriber()).cloned().collect();
        for (s, (kind, cut, extra)) in subs.iter_mut().zip(&members) {
            // A prefix of the shared items (members that took the same
            // one and no extras hold one key set), plus extras.
            let cut = *cut as usize % (common.len() + 1);
            let held: Items = common[..cut].iter().chain(extra).cloned().collect();
            s.trie = match kind % 8 {
                0 => PatriciaTrie::new(),
                1 => store(&held, 12), // another key length
                _ => store(&held, 20),
            };
            // Departed members hold stores the verdict must ignore.
            s.wants_membership = kind % 5 != 0;
        }
        let mut scratch = CheckScratch::default();
        for end in 0..=subs.len() {
            let family = &subs[..end];
            let fast = checker::pubs_converged_fast(family, &mut scratch);
            prop_assert_eq!(fast, checker::publications_converged_of(family.iter()));
        }
    }
}
