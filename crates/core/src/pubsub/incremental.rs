//! Incremental verdict caching for the polling predicates
//! (`is_legitimate` / `publications_converged`) — the read side of the
//! dirty-channel scheme described in `crate::dirty` and DESIGN.md
//! § Incremental checking.
//!
//! Each topic's cached verdict is keyed on its dirty-channel version:
//! a poll re-judges a topic **only if the version moved** since the
//! cached verdict was produced, and a re-judge iterates the topic's
//! **member index** (topic → subscriber ids, maintained by the facade
//! ops) instead of scanning every node in the world once per topic.
//! Steady-state polls therefore cost O(topics) version reads — zero
//! allocations (counting-allocator-tested) — instead of the old
//! O(topics × world) scan, and a churn burst touching `k` topics costs
//! O(Σ members of those k topics).
//!
//! Correctness: the verdict is **identical** to the from-scratch
//! checker on every input. The judge functions are the boolean twins in
//! [`crate::checker`] (property-tested equal to the diagnostic path),
//! and a cached verdict is reused only while the topic's version holds
//! still, which the invalidation argument (every verdict-moving
//! transition bumps the version) makes exact — cross-checked every
//! round by the churn conformance tests.

use crate::checker::{self, CheckScratch};
use crate::replica::ReplicaGroup;
use crate::topics::{MultiActor, TopicId};
use crate::{Actor, Supervisor};
use skippub_sim::{NodeId, NodeView, World};

/// One cached boolean verdict: valid while the topic's dirty-channel
/// version still equals `version`.
#[derive(Clone, Copy, Debug)]
struct Cached<T: Copy> {
    version: u64,
    value: T,
}

/// Sentinel "never judged / invalidated" version. Dirty counters count
/// up from 0 one bump at a time, so they never reach it.
const INVALID: u64 = u64::MAX;

impl<T: Copy + Default> Default for Cached<T> {
    fn default() -> Self {
        Cached {
            version: INVALID,
            value: T::default(),
        }
    }
}

/// Cached replica-agreement verdict, keyed on a [`ReplicaGroup`]'s
/// monotone version counter — the incremental-checker extension for
/// replicated supervisors. With `k ≥ 2` replicas, legitimacy
/// additionally requires all live replicas to hold identical replayed
/// database states (the group behaves as *one logical supervisor*);
/// this cache makes that an O(1) version read per poll, re-comparing
/// digests only when the group actually changed.
#[derive(Default)]
pub(crate) struct ReplicaAgreement {
    cache: Cached<bool>,
}

impl ReplicaAgreement {
    /// Cached-or-recomputed agreement of every group in `groups` (one
    /// per supervisor endpoint; empty = unreplicated, trivially one
    /// logical supervisor each). Versions are monotone, so their sum
    /// strictly increases whenever any group changes — a valid cache
    /// key for the conjunction.
    pub(crate) fn check(&mut self, groups: &[ReplicaGroup]) -> bool {
        if groups.is_empty() {
            return true;
        }
        let version: u64 = groups.iter().map(|g| g.version()).sum();
        if self.cache.version == version {
            return self.cache.value;
        }
        let value = groups.iter().all(|g| g.agreement());
        self.cache = Cached { version, value };
        value
    }

    fn invalidate(&mut self) {
        self.cache.version = INVALID;
    }
}

/// Verdict caches + per-topic member index for the multi-topic world
/// shapes (serial and partitioned).
pub(crate) struct IncChecker {
    topo: Vec<Cached<bool>>,
    pubs: Vec<Cached<(bool, usize)>>,
    /// Per-topic member ids, ascending. A superset of the true member
    /// set between re-judges (ids whose instance dropped are purged on
    /// the next re-judge, which the instance-drop bump guarantees
    /// happens before the verdict is read); never missing a true member
    /// unless `members_stale`.
    members: Vec<Vec<NodeId>>,
    scratch: CheckScratch,
    /// Set by the raw-world escape hatch: the next judge rebuilds the
    /// member index from a full world scan.
    members_stale: bool,
    /// Replica-agreement verdict (replicated supervisors).
    replicas: ReplicaAgreement,
}

impl IncChecker {
    pub(crate) fn new(topics: u32) -> Self {
        IncChecker {
            topo: vec![Cached::default(); topics as usize],
            pubs: vec![Cached::default(); topics as usize],
            members: vec![Vec::new(); topics as usize],
            scratch: CheckScratch::default(),
            members_stale: false,
            replicas: ReplicaAgreement::default(),
        }
    }

    /// Cached replica-agreement component of the legitimacy predicate
    /// (one group per supervisor; an empty slice means replication is
    /// off).
    pub(crate) fn replica_groups_agree(&mut self, groups: &[ReplicaGroup]) -> bool {
        self.replicas.check(groups)
    }

    /// Drops every cached verdict and schedules a member-index rebuild —
    /// called when raw world access may have changed anything.
    pub(crate) fn invalidate_all(&mut self) {
        for c in &mut self.topo {
            c.version = INVALID;
        }
        for c in &mut self.pubs {
            c.version = INVALID;
        }
        self.replicas.invalidate();
        self.members_stale = true;
    }

    /// Records `id` as a member of `topic` (subscribe/join ops).
    pub(crate) fn add_member(&mut self, topic: TopicId, id: NodeId) {
        let list = &mut self.members[topic.0 as usize];
        if let Err(pos) = list.binary_search(&id) {
            list.insert(pos, id);
        }
    }

    /// Removes `id` from `topic`'s index (crash ops).
    pub(crate) fn remove_member(&mut self, topic: TopicId, id: NodeId) {
        let list = &mut self.members[topic.0 as usize];
        if let Ok(pos) = list.binary_search(&id) {
            list.remove(pos);
        }
    }

    fn rebuild_members<V: NodeView<MultiActor>>(&mut self, world: &V) {
        for list in &mut self.members {
            list.clear();
        }
        for (id, actor) in world.nodes() {
            for (t, _) in actor.subscriptions() {
                // World iteration ascends by id, so pushes stay sorted.
                self.members[t.0 as usize].push(id);
            }
        }
        self.members_stale = false;
    }

    /// Whole-system legitimacy: every topic's cached-or-rejudged
    /// verdict. `topo_version(t)` reads topic `t`'s topology channel,
    /// `sup_of(t)` names its responsible supervisor.
    pub(crate) fn all_legit<V: NodeView<MultiActor>>(
        &mut self,
        world: &V,
        topics: u32,
        topo_version: impl Fn(u32) -> u64,
        sup_of: impl Fn(TopicId) -> NodeId,
    ) -> bool {
        (0..topics).all(|t| {
            let topic = TopicId(t);
            self.topic_legit(world, topo_version(t), sup_of(topic), topic)
        })
    }

    /// Whole-system publication convergence: converged iff every topic
    /// converged; the total is the sum of per-topic union sizes either
    /// way (matching the single-topic backends).
    pub(crate) fn all_pubs<V: NodeView<MultiActor>>(
        &mut self,
        world: &V,
        topics: u32,
        pubs_version: impl Fn(u32) -> u64,
    ) -> (bool, usize) {
        let mut all_ok = true;
        let mut total = 0;
        for t in 0..topics {
            let (ok, n) = self.topic_pubs(world, pubs_version(t), TopicId(t));
            all_ok &= ok;
            total += n;
        }
        (all_ok, total)
    }

    /// Topology verdict for one topic: cached while `version` holds.
    fn topic_legit<V: NodeView<MultiActor>>(
        &mut self,
        world: &V,
        version: u64,
        sup_id: NodeId,
        topic: TopicId,
    ) -> bool {
        let t = topic.0 as usize;
        if self.topo[t].version == version {
            return self.topo[t].value;
        }
        if self.members_stale {
            self.rebuild_members(world);
        }
        // Purge ids whose instance is gone (departures completed since
        // the last judge), then judge the remaining members by reference.
        self.members[t]
            .retain(|id| world.peek(*id).is_some_and(|a| a.topic_subscriber(topic).is_some()));
        let members = self.members[t]
            .iter()
            .filter_map(|id| world.peek(*id).and_then(|a| a.topic_subscriber(topic).map(|s| (*id, s))));
        let ok = match world.peek(sup_id).and_then(|a| a.topic_supervisor(topic)) {
            Some(sup) => checker::fast_check_parts(sup, members, &mut self.scratch),
            // Topic never contacted: judged against an empty supervisor.
            None => checker::fast_check_parts(&Supervisor::new(sup_id), members, &mut self.scratch),
        };
        self.topo[t] = Cached { version, value: ok };
        ok
    }

    /// Publication-convergence verdict for one topic: cached while
    /// `version` holds; root-hash fast path on a re-judge.
    fn topic_pubs<V: NodeView<MultiActor>>(
        &mut self,
        world: &V,
        version: u64,
        topic: TopicId,
    ) -> (bool, usize) {
        let t = topic.0 as usize;
        if self.pubs[t].version == version {
            return self.pubs[t].value;
        }
        if self.members_stale {
            self.rebuild_members(world);
        }
        // Ids without an instance are skipped, not purged — purging is
        // the topology judge's job, and a dropped instance (always
        // non-membership-wanting by then) cannot affect this predicate.
        let value = checker::pubs_converged_fast(|| {
            self.members[t]
                .iter()
                .filter_map(|id| world.peek(*id).and_then(|a| a.topic_subscriber(topic)))
        });
        self.pubs[t] = Cached { version, value };
        value
    }
}

/// Verdict caches for the single-topic [`World<Actor>`] backend: same
/// version-keyed invalidation; a re-judge runs the boolean whole-world
/// checker (one topic, so the member index degenerates to "the world").
pub(crate) struct SimChecker {
    topo: Cached<bool>,
    pubs: Cached<(bool, usize)>,
    scratch: CheckScratch,
    /// Replica-agreement verdict (replicated supervisors).
    replicas: ReplicaAgreement,
}

impl SimChecker {
    pub(crate) fn new() -> Self {
        SimChecker {
            topo: Cached::default(),
            pubs: Cached::default(),
            scratch: CheckScratch::default(),
            replicas: ReplicaAgreement::default(),
        }
    }

    /// Cached replica-agreement component of the legitimacy predicate.
    pub(crate) fn replicas_agree(&mut self, group: Option<&ReplicaGroup>) -> bool {
        self.replicas.check(group.map_or(&[], std::slice::from_ref))
    }

    pub(crate) fn invalidate_all(&mut self) {
        self.topo.version = INVALID;
        self.pubs.version = INVALID;
        self.replicas.invalidate();
    }

    pub(crate) fn legit(&mut self, world: &World<Actor>, version: u64) -> bool {
        if self.topo.version == version {
            return self.topo.value;
        }
        let ok = checker::fast_check_topology(world, &mut self.scratch);
        self.topo = Cached { version, value: ok };
        ok
    }

    pub(crate) fn pubs(&mut self, world: &World<Actor>, version: u64) -> (bool, usize) {
        if self.pubs.version == version {
            return self.pubs.value;
        }
        let value = checker::pubs_converged_fast(|| {
            world.iter().filter_map(|(_, a)| a.subscriber())
        });
        self.pubs = Cached { version, value };
        value
    }
}
