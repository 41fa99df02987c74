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
use crate::topics::TopicId;
use crate::{Actor, Supervisor};
use skippub_sim::{NodeId, World};

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

/// Verdict caches + per-topic member index for the partitioned world,
/// where every topic instance is its own node ([`crate::topics`]).
pub(crate) struct IncChecker {
    topo: Vec<Cached<bool>>,
    pubs: Vec<Cached<(bool, usize)>>,
    /// Per-topic subscriber-instance addresses, ascending. Exact between
    /// facade calls — joins add, crashes remove, and a departed instance
    /// stays a (non-wanting) member — unless `members_stale`.
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

    /// Records the instance at `addr` as a member of its topic (joins).
    pub(crate) fn add_member(&mut self, addr: NodeId) {
        let list = &mut self.members[TopicId::of(addr).0 as usize];
        if let Err(pos) = list.binary_search(&addr) {
            list.insert(pos, addr);
        }
    }

    /// Removes the instance at `addr` from its topic's index (crashes).
    pub(crate) fn remove_member(&mut self, addr: NodeId) {
        let list = &mut self.members[TopicId::of(addr).0 as usize];
        if let Ok(pos) = list.binary_search(&addr) {
            list.remove(pos);
        }
    }

    fn rebuild_members(&mut self, world: &World<Actor>) {
        for list in &mut self.members {
            list.clear();
        }
        for (addr, actor) in world.iter() {
            if actor.subscriber().is_some() {
                // World iteration ascends by address, so pushes stay sorted.
                self.members[TopicId::of(addr).0 as usize].push(addr);
            }
        }
        self.members_stale = false;
    }

    /// Whole-system legitimacy: every topic's cached-or-rejudged
    /// verdict. `topo_version(t)` reads topic `t`'s topology channel,
    /// `sup_of(t)` names its supervisor instance.
    pub(crate) fn all_legit(
        &mut self,
        world: &World<Actor>,
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
    /// way.
    pub(crate) fn all_pubs(
        &mut self,
        world: &World<Actor>,
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
    fn topic_legit(
        &mut self,
        world: &World<Actor>,
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
        let members = self.members[t].iter().filter_map(|id| {
            world
                .node(*id)
                .and_then(Actor::subscriber)
                .map(|s| (*id, s))
        });
        let ok = match world.node(sup_id).and_then(Actor::supervisor) {
            Some(sup) => checker::fast_check_parts(sup, members, &mut self.scratch),
            // No subscriber ever joined: judged against an empty supervisor.
            None => checker::fast_check_parts(&Supervisor::new(sup_id), members, &mut self.scratch),
        };
        self.topo[t] = Cached { version, value: ok };
        ok
    }

    /// Publication-convergence verdict for one topic: cached while
    /// `version` holds; root-hash fast path on a re-judge.
    fn topic_pubs(
        &mut self,
        world: &World<Actor>,
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
        let value = checker::pubs_converged_fast(
            self.members[t]
                .iter()
                .filter_map(|id| world.node(*id).and_then(Actor::subscriber)),
            &mut self.scratch,
        );
        self.pubs[t] = Cached { version, value };
        value
    }
}
