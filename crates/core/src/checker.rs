//! Legitimate-state predicates (Definition 1's "set of legitimate states",
//! made executable).
//!
//! The checker evaluates *global* snapshots of a simulated world; the
//! protocol cannot self-certify. A state is legitimate when:
//!
//! 1. the supervisor's database is non-corrupted and matches the live,
//!    membership-wanting subscriber population (Lemma 9 / 10);
//! 2. every subscriber stores exactly the label the database assigns
//!    (Lemma 11);
//! 3. list/ring edges form the sorted ring of Definition 2 — interior
//!    nodes hold `left`/`right`, the extrema hold the wrap edge in `ring`
//!    (Lemma 11);
//! 4. every subscriber's shortcut slots hold exactly the derived shortcut
//!    labels, each resolved to the correct node (Lemma 12).
//!
//! A separate predicate checks publication convergence (Theorem 17): all
//! subscribers' Patricia tries contain the same publication set.

use crate::actor::Actor;
use crate::msg::{Msg, NodeRef};
use crate::subscriber::Subscriber;
use crate::supervisor::Supervisor;
use skippub_bits::Hash128;
use skippub_ringmath::{shortcut, Label};
use skippub_sim::{NodeId, Protocol, World};
use std::collections::BTreeMap;

/// Outcome of a legitimacy check.
#[derive(Clone, Debug, Default)]
pub struct LegitReport {
    /// Human-readable violations (empty ⇔ legitimate).
    pub issues: Vec<String>,
}

impl LegitReport {
    /// Whether the snapshot is legitimate.
    pub fn ok(&self) -> bool {
        self.issues.is_empty()
    }

    fn note(&mut self, msg: String) {
        if self.issues.len() < 64 {
            self.issues.push(msg);
        }
    }
}

/// Expected edges for one subscriber, derived from the database ring.
struct Expect {
    left: Option<NodeRef>,
    right: Option<NodeRef>,
    ring: Option<NodeRef>,
}

fn expected_edges(sorted: &[(Label, NodeId)], i: usize) -> Expect {
    let n = sorted.len();
    if n == 1 {
        return Expect {
            left: None,
            right: None,
            ring: None,
        };
    }
    let r = |j: usize| NodeRef::new(sorted[j].0, sorted[j].1);
    if i == 0 {
        Expect {
            left: None,
            right: Some(r(1)),
            ring: Some(r(n - 1)),
        }
    } else if i == n - 1 {
        Expect {
            left: Some(r(n - 2)),
            right: None,
            ring: Some(r(0)),
        }
    } else {
        Expect {
            left: Some(r(i - 1)),
            right: Some(r(i + 1)),
            ring: None,
        }
    }
}

fn check_edge(
    report: &mut LegitReport,
    who: NodeId,
    name: &str,
    got: Option<NodeRef>,
    want: Option<NodeRef>,
) {
    match (got, want) {
        (None, None) => {}
        (Some(g), Some(w)) if g == w => {}
        (g, w) => report.note(format!("{who}: {name} is {g:?}, expected {w:?}")),
    }
}

/// Full topology legitimacy check of a world snapshot.
pub fn check_topology(world: &World<Actor>) -> LegitReport {
    // --- locate the supervisor ---
    let supervisors: Vec<NodeId> = world
        .iter()
        .filter(|(_, a)| a.supervisor().is_some())
        .map(|(id, _)| id)
        .collect();
    if supervisors.len() != 1 {
        let mut report = LegitReport::default();
        report.note(format!(
            "expected exactly 1 supervisor, found {}",
            supervisors.len()
        ));
        return report;
    }
    let sup = world
        .node(supervisors[0])
        .and_then(Actor::supervisor)
        .expect("found above");
    check_topology_parts(
        sup,
        world.iter().filter_map(|(id, a)| a.subscriber().map(|s| (id, s))),
    )
}

/// Topology legitimacy over an explicit supervisor + member set — the
/// entry point the partitioned backend uses to judge one topic *by
/// reference* (no per-poll world cloning).
pub fn check_topology_parts<'a>(
    sup: &Supervisor,
    members: impl IntoIterator<Item = (NodeId, &'a Subscriber)>,
) -> LegitReport {
    let mut report = LegitReport::default();

    // --- database validity (Lemma 9) ---
    let mut db: Vec<(Label, NodeId)> = Vec::with_capacity(sup.database.len());
    for (l, v) in &sup.database {
        match v {
            None => report.note(format!("database has (label {l}, ⊥)")),
            Some(node) => db.push((*l, *node)),
        }
    }
    // Labels must be exactly {l(0), …, l(n−1)} — as a *set*; the BTreeMap
    // iterates them in ring order, not insertion order.
    let n = db.len() as u64;
    for (l, _) in &db {
        match l.index() {
            Some(i) if i < n => {}
            _ => report.note(format!("database label {l} is outside l(0..{n})")),
        }
    }
    {
        let mut nodes: Vec<NodeId> = db.iter().map(|(_, v)| *v).collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() as u64 != n {
            report.note("database maps several labels to one subscriber".into());
        }
    }
    // --- membership agreement (Lemma 10) ---
    let members: BTreeMap<NodeId, &Subscriber> = members.into_iter().collect();
    for (_, v) in &db {
        match members.get(v) {
            None => report.note(format!("database references dead/unknown node {v}")),
            Some(s) if !s.wants_membership => {
                report.note(format!("database still holds unsubscribing node {v}"))
            }
            Some(_) => {}
        }
    }
    for (id, s) in &members {
        if s.wants_membership && !db.iter().any(|(_, v)| v == id) {
            report.note(format!("live subscriber {id} missing from database"));
        }
        if !s.wants_membership && s.label.is_some() {
            report.note(format!("departed subscriber {id} still labelled"));
        }
    }
    if !report.ok() {
        return report; // edge checks below assume a sane database
    }

    // --- per-subscriber state (Lemmas 11–12) ---
    // db is sorted by label (BTreeMap order = ring order).
    for (i, (label, v)) in db.iter().enumerate() {
        let Some(s) = members.get(v) else {
            // Unreachable after the membership section returned above on
            // any db entry without a live member — but the old code
            // `continue`d here *silently*, which would have judged a
            // db-references-dead-node world by its remaining members had
            // the early return ever been relaxed. Note it defensively so
            // the diagnostic and fast boolean paths can never disagree
            // on this edge (regression-tested).
            report.note(format!("database references dead/unknown node {v}"));
            continue;
        };
        if s.label != Some(*label) {
            report.note(format!(
                "{v}: label is {:?}, database says {label}",
                s.label
            ));
            continue;
        }
        let want = expected_edges(&db, i);
        check_edge(&mut report, *v, "left", s.left, want.left);
        check_edge(&mut report, *v, "right", s.right, want.right);
        check_edge(&mut report, *v, "ring", s.ring, want.ring);
        // Shortcuts (only meaningful when ring edges are right).
        if s.cfg.shortcuts {
            let eff_left = s.eff_left();
            let eff_right = s.eff_right();
            if let (Some(el), Some(er)) = (eff_left, eff_right) {
                let expected = shortcut::expected_shortcuts(*label, el.label, er.label);
                let want_map: BTreeMap<Label, NodeId> = expected
                    .iter()
                    .filter_map(|t| {
                        db.iter()
                            .find(|(l, _)| *l == t.label)
                            .map(|(_, id)| (t.label, *id))
                    })
                    .collect();
                if want_map.len() != expected.len() {
                    report.note(format!(
                        "{v}: some expected shortcut labels missing from db"
                    ));
                }
                let got: BTreeMap<Label, Option<NodeId>> = s.shortcuts.clone();
                for (l, want_id) in &want_map {
                    match got.get(l) {
                        Some(Some(id)) if id == want_id => {}
                        other => report.note(format!(
                            "{v}: shortcut {l} is {other:?}, expected {want_id}"
                        )),
                    }
                }
                for l in got.keys() {
                    if !want_map.contains_key(l) {
                        report.note(format!("{v}: unexpected shortcut slot {l}"));
                    }
                }
            } else if db.len() > 1 {
                report.note(format!("{v}: missing effective ring neighbours"));
            }
        }
    }
    report
}

/// Convenience wrapper: `true` iff the snapshot is topology-legitimate.
pub fn is_legitimate(world: &World<Actor>) -> bool {
    check_topology(world).ok()
}

/// Reusable buffers for the fast boolean checker: with a warm scratch,
/// [`fast_check_parts`] performs **zero heap allocations** per call —
/// the property the steady-state polling loop's counting-allocator test
/// pins.
#[derive(Clone, Debug, Default)]
pub struct CheckScratch {
    /// The database flattened in label (= ring) order.
    db: Vec<(Label, NodeId)>,
    /// `(node id, index into db)` sorted by id, for O(log n) membership
    /// lookups.
    by_id: Vec<(u64, u32)>,
    /// Shortcut-derivation buffer.
    expected: Vec<shortcut::ShortcutTarget>,
}

/// Boolean twin of [`check_topology_parts`]: same verdict on every
/// input (`fast_check_parts(sup, m, s) == check_topology_parts(sup, m).ok()`,
/// property-tested on randomly corrupted worlds), but built for the
/// polling hot path — no `String` formatting, no per-call `BTreeMap`s or
/// clones, and shortcut targets resolved by **binary search on the
/// label-sorted database slice** (O(log ring)) instead of a linear scan.
///
/// `members` must yield each live subscriber of the topic exactly once,
/// in ascending id order (both world shapes iterate that way).
pub fn fast_check_parts<'a>(
    sup: &Supervisor,
    members: impl IntoIterator<Item = (NodeId, &'a Subscriber)>,
    scratch: &mut CheckScratch,
) -> bool {
    let CheckScratch { db, by_id, expected } = scratch;
    db.clear();
    by_id.clear();

    // --- database validity (Lemma 9) ---
    for (l, v) in &sup.database {
        match v {
            None => return false, // (label, ⊥)
            Some(node) => db.push((*l, *node)),
        }
    }
    let n = db.len() as u64;
    for (l, _) in db.iter() {
        // Distinct labels with a valid index < n are exactly {l(0..n)}.
        match l.index() {
            Some(i) if i < n => {}
            _ => return false,
        }
    }
    by_id.extend(db.iter().enumerate().map(|(i, (_, v))| (v.0, i as u32)));
    by_id.sort_unstable_by_key(|&(id, _)| id);
    if by_id.windows(2).any(|w| w[0].0 == w[1].0) {
        return false; // several labels map to one subscriber
    }

    // --- one pass over the members: Lemma 10 membership agreement
    // interleaved with the per-subscriber Lemma 11–12 checks ---
    let mut matched = 0u64;
    for (id, s) in members {
        let pos = by_id
            .binary_search_by_key(&id.0, |&(i, _)| i)
            .ok()
            .map(|k| by_id[k].1 as usize);
        match (s.wants_membership, pos) {
            // Live, membership-wanting subscriber missing from the db.
            (true, None) => return false,
            // The db still holds an unsubscribing node.
            (false, Some(_)) => return false,
            // Departed subscriber must have dropped its label.
            (false, None) => {
                if s.label.is_some() {
                    return false;
                }
            }
            (true, Some(i)) => {
                matched += 1;
                let (label, _) = db[i];
                if s.label != Some(label) {
                    return false;
                }
                let want = expected_edges(db, i);
                if s.left != want.left || s.right != want.right || s.ring != want.ring {
                    return false;
                }
                if s.cfg.shortcuts {
                    match (s.eff_left(), s.eff_right()) {
                        (Some(el), Some(er)) => {
                            shortcut::expected_shortcuts_into(label, el.label, er.label, expected);
                            for t in expected.iter() {
                                // O(log ring) resolution on the sorted db.
                                let Ok(j) = db.binary_search_by_key(&t.label, |&(l, _)| l) else {
                                    return false; // expected label missing from db
                                };
                                match s.shortcuts.get(&t.label) {
                                    Some(Some(holder)) if *holder == db[j].1 => {}
                                    _ => return false,
                                }
                            }
                            // Expected labels are distinct (level is a
                            // function of the label lengths), so equal
                            // cardinality ⇒ no unexpected slots.
                            if s.shortcuts.len() != expected.len() {
                                return false;
                            }
                        }
                        _ if db.len() > 1 => return false, // missing effective neighbours
                        _ => {}
                    }
                }
            }
        }
    }
    // Every db entry must have been claimed by a live wanting member
    // (values are distinct, so `matched` counts distinct entries).
    matched == n
}

/// Boolean twin of [`check_topology`] over a whole single-topic world —
/// the supervisor-count gate plus [`fast_check_parts`]. Allocation-free
/// with a warm scratch.
pub fn fast_check_topology(world: &World<Actor>, scratch: &mut CheckScratch) -> bool {
    let mut sup = None;
    for (_, a) in world.iter() {
        if let Some(s) = a.supervisor() {
            if sup.replace(s).is_some() {
                return false; // more than one supervisor
            }
        }
    }
    let Some(sup) = sup else {
        return false; // no supervisor at all
    };
    fast_check_parts(
        sup,
        world.iter().filter_map(|(id, a)| a.subscriber().map(|s| (id, s))),
        scratch,
    )
}

/// Publication convergence (Theorem 17): every membership-wanting
/// subscriber stores the same key set, which is the union of all stored
/// key sets. Returns `(converged, union_size)`.
pub fn publications_converged(world: &World<Actor>) -> (bool, usize) {
    publications_converged_of(world.iter().filter_map(|(_, a)| a.subscriber()))
}

/// [`publications_converged`] over an explicit subscriber set — used by
/// the partitioned backend to judge one topic by reference.
pub fn publications_converged_of<'a>(
    subs: impl IntoIterator<Item = &'a Subscriber>,
) -> (bool, usize) {
    let tries: Vec<&Subscriber> = subs
        .into_iter()
        .filter(|s| s.wants_membership)
        .collect();
    let mut union: std::collections::BTreeSet<&skippub_bits::BitStr> =
        std::collections::BTreeSet::new();
    for s in &tries {
        for k in s.trie.iter_keys() {
            union.insert(k);
        }
    }
    let ok = tries.iter().all(|s| s.trie.len() == union.len());
    let hashes: Vec<_> = tries.iter().map(|s| s.trie.root_hash()).collect();
    let ok = ok && hashes.windows(2).all(|w| w[0] == w[1]);
    (ok, union.len())
}

/// Root-hash fast path for Theorem 17: two tries hold the same key set
/// **iff** their Merkle root hashes agree (pinned by the trie crate's
/// `root_hash_equality_iff_same_keys` test), so when every
/// membership-wanting subscriber reports the same root hash the stores
/// are converged and the union size can be read off any one trie — O(1)
/// per subscriber, no key-set union, no allocation. Only when hashes
/// *disagree* (a transient, pre-convergence state) does it fall back to
/// the exact union of [`publications_converged_of`], so the returned
/// pair is identical to the from-scratch computation on every input.
///
/// `subs` is a closure because the fallback needs a second pass.
pub fn pubs_converged_fast<'a, I, F>(subs: F) -> (bool, usize)
where
    F: Fn() -> I,
    I: IntoIterator<Item = &'a Subscriber>,
{
    let mut first: Option<(Option<Hash128>, usize)> = None;
    for s in subs() {
        if !s.wants_membership {
            continue;
        }
        let h = s.trie.root_hash();
        match first {
            None => first = Some((h, s.trie.len())),
            Some((f, _)) if f == h => {}
            Some(_) => return publications_converged_of(subs()),
        }
    }
    match first {
        Some((_, len)) => (true, len),
        None => (true, 0),
    }
}

/// Snapshot of message-kind counters for closure experiments: in a
/// legitimate state, topology-mutating messages must stay absent.
pub fn mutating_kinds() -> &'static [&'static str] {
    &[
        "Intro",
        "SetData",
        "Subscribe",
        "Unsubscribe",
        "RemoveConnections",
    ]
}

/// Count of topology-mutating messages sent so far in a world.
pub fn mutating_msgs(world: &World<Actor>) -> u64 {
    mutating_kinds()
        .iter()
        .map(|k| world.metrics().kind(k))
        .sum()
}

/// Helper for experiments: a stricter legitimacy that also requires the
/// in-flight channels to carry no mutating messages. Note `SetData`
/// *does* keep flowing in legitimate states (the supervisor's round-robin
/// refresh), so it is exempted here; closure is about *effect*, which
/// experiment E12 verifies by diffing state snapshots.
pub fn world_quiescent(world: &World<Actor>) -> bool {
    is_legitimate(world)
}

// `Protocol` must be in scope for `World::<Actor>` methods used here.
#[allow(unused)]
fn _assert_protocol<T: Protocol<Msg = Msg>>() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use crate::ProtocolConfig;

    #[test]
    fn legit_world_passes() {
        for n in [1usize, 2, 3, 4, 5, 8, 16, 33] {
            let world = scenarios::legit_world(n, 7, ProtocolConfig::topology_only());
            let report = check_topology(&world);
            assert!(report.ok(), "n={n}: {:?}", report.issues);
        }
    }

    #[test]
    fn detects_wrong_label() {
        let mut world = scenarios::legit_world(4, 7, ProtocolConfig::topology_only());
        let ids = scenarios::subscriber_ids(&world);
        let s = world.node_mut(ids[0]).unwrap().subscriber_mut().unwrap();
        s.label = Some("111".parse().unwrap());
        assert!(!is_legitimate(&world));
    }

    #[test]
    fn detects_missing_edge() {
        let mut world = scenarios::legit_world(4, 7, ProtocolConfig::topology_only());
        let ids = scenarios::subscriber_ids(&world);
        let s = world.node_mut(ids[1]).unwrap().subscriber_mut().unwrap();
        s.left = None;
        s.right = None;
        assert!(!is_legitimate(&world));
    }

    #[test]
    fn detects_corrupt_database() {
        let mut world = scenarios::legit_world(4, 7, ProtocolConfig::topology_only());
        let sup_id = scenarios::supervisor_id(&world);
        let sup = world.node_mut(sup_id).unwrap().supervisor_mut().unwrap();
        let l: Label = "0101".parse().unwrap();
        sup.database.insert(l, None);
        assert!(!is_legitimate(&world));
    }

    #[test]
    fn detects_wrong_shortcut() {
        let mut world = scenarios::legit_world(8, 7, ProtocolConfig::topology_only());
        let ids = scenarios::subscriber_ids(&world);
        for id in ids {
            let s = world.node_mut(id).unwrap().subscriber_mut().unwrap();
            if !s.shortcuts.is_empty() {
                let k = *s.shortcuts.keys().next().unwrap();
                s.shortcuts.insert(k, None);
                break;
            }
        }
        assert!(!is_legitimate(&world));
    }

    #[test]
    fn publications_converged_on_empty() {
        let world = scenarios::legit_world(4, 7, ProtocolConfig::topology_only());
        let (ok, n) = publications_converged(&world);
        assert!(ok);
        assert_eq!(n, 0);
    }

    /// The boolean fast path must agree with the diagnostic path on
    /// every corruption the diagnostic unit tests above exercise (the
    /// broad randomized agreement proptest lives in
    /// `tests/checker_equiv.rs`).
    #[test]
    fn fast_check_agrees_with_diagnostic_on_unit_corruptions() {
        let mut scratch = CheckScratch::default();
        let agree = |world: &World<Actor>, scratch: &mut CheckScratch| {
            let full = check_topology(world).ok();
            let fast = fast_check_topology(world, scratch);
            assert_eq!(fast, full, "paths disagree: {:?}", check_topology(world).issues);
            full
        };
        for n in [1usize, 2, 4, 8, 33] {
            let world = scenarios::legit_world(n, 7, ProtocolConfig::default());
            assert!(agree(&world, &mut scratch), "n={n} must be legitimate");
        }
        let mut world = scenarios::legit_world(8, 7, ProtocolConfig::default());
        let ids = scenarios::subscriber_ids(&world);
        // Wrong label.
        world.node_mut(ids[0]).unwrap().subscriber_mut().unwrap().label =
            Some("111111".parse().unwrap());
        assert!(!agree(&world, &mut scratch));
        // Dropped edge.
        let mut world = scenarios::legit_world(8, 7, ProtocolConfig::default());
        world.node_mut(ids[2]).unwrap().subscriber_mut().unwrap().right = None;
        assert!(!agree(&world, &mut scratch));
        // Corrupt database value.
        let mut world = scenarios::legit_world(8, 7, ProtocolConfig::default());
        let sup_id = scenarios::supervisor_id(&world);
        let sup = world.node_mut(sup_id).unwrap().supervisor_mut().unwrap();
        let l: Label = "0101".parse().unwrap();
        sup.database.insert(l, None);
        assert!(!agree(&world, &mut scratch));
        // Poisoned shortcut slot.
        let mut world = scenarios::legit_world(8, 7, ProtocolConfig::default());
        for id in scenarios::subscriber_ids(&world) {
            let s = world.node_mut(id).unwrap().subscriber_mut().unwrap();
            if let Some(k) = s.shortcuts.keys().next().copied() {
                s.shortcuts.insert(k, None);
                break;
            }
        }
        assert!(!agree(&world, &mut scratch));
        // Crashed supervisor: zero supervisors in the snapshot.
        let mut world = scenarios::legit_world(4, 7, ProtocolConfig::default());
        world.crash(scenarios::supervisor_id(&world));
        assert!(!agree(&world, &mut scratch));
    }

    /// Regression for the latent asymmetry: a database entry whose node
    /// is not among the members must fail on *both* paths, and the
    /// diagnostic must say so.
    #[test]
    fn db_referencing_dead_node_fails_on_both_paths() {
        let world = scenarios::legit_world(5, 11, ProtocolConfig::default());
        let sup_id = scenarios::supervisor_id(&world);
        let sup = world.node(sup_id).unwrap().supervisor().unwrap();
        let ids = scenarios::subscriber_ids(&world);
        let dead = ids[2];
        // Present the checker with a member set missing one db-referenced
        // node — exactly what a crashed-but-not-yet-evicted world shows.
        let members = || {
            world
                .iter()
                .filter_map(|(id, a)| a.subscriber().map(|s| (id, s)))
                .filter(|(id, _)| *id != dead)
        };
        let report = check_topology_parts(sup, members());
        assert!(!report.ok());
        assert!(
            report.issues.iter().any(|i| i.contains("dead/unknown")),
            "diagnostic must name the dead reference: {:?}",
            report.issues
        );
        let mut scratch = CheckScratch::default();
        assert!(!fast_check_parts(sup, members(), &mut scratch));
    }

    #[test]
    fn fast_pubs_path_matches_exact_union() {
        use skippub_trie::Publication;
        let mut world = scenarios::legit_world(4, 7, ProtocolConfig::default());
        let ids = scenarios::subscriber_ids(&world);
        let subs = |w: &World<Actor>| {
            w.iter()
                .filter_map(|(_, a)| a.subscriber())
                .cloned()
                .collect::<Vec<_>>()
        };
        let check = |w: &World<Actor>| {
            let owned = subs(w);
            let fast = pubs_converged_fast(|| owned.iter());
            let full = publications_converged_of(owned.iter());
            assert_eq!(fast, full);
            fast
        };
        assert_eq!(check(&world), (true, 0));
        // One node learns a publication: divergent (exact union path).
        world
            .node_mut(ids[0])
            .unwrap()
            .subscriber_mut()
            .unwrap()
            .trie
            .insert(Publication::new(ids[0].0, b"solo".to_vec()));
        assert_eq!(check(&world), (false, 1));
        // Everyone learns it: converged via the root-hash fast path.
        for &id in &ids[1..] {
            world
                .node_mut(id)
                .unwrap()
                .subscriber_mut()
                .unwrap()
                .trie
                .insert(Publication::new(ids[0].0, b"solo".to_vec()));
        }
        assert_eq!(check(&world), (true, 1));
    }
}
