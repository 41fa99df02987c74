//! Replicated supervisor: a self-stabilizing replicated state machine
//! over the supervisor database, lifting the paper's "the supervisor
//! never crashes" assumption (ROADMAP item 4).
//!
//! The supervisor of each topic is already a **deterministic state
//! machine**: its state is a pure function of the sequence of semantic
//! operations applied to it (`Subscribe`, `Unsubscribe`,
//! `GetConfiguration`, `Timeout`, `TokenReturn`, `Suspect`) — the
//! handlers draw no randomness and read nothing but their own fields.
//! Replication therefore follows the classic replicated-log
//! construction (cf. Self-Stabilizing Paxos, arXiv 1305.4263): the
//! *primary* replica appends every operation the live supervisor
//! executes to an ordered log ([`ReplicaLog`]), and the backup replicas
//! adopt that log via periodic **anti-entropy** and replay it through
//! the *same* handler code. Log positions are content-addressed with a
//! [`Hash128`] prefix chain, so two replicas can find their longest
//! common prefix by comparing O(log n) hashes and converge from **any**
//! initial log state — including adversarial ones — by truncating to
//! the common prefix and adopting the primary's suffix. This makes the
//! replica layer itself self-stabilizing: corruption of a backup's log
//! is repaired by the next anti-entropy round, exactly like corruption
//! of a subscriber's ring pointers is repaired by BuildSR.
//!
//! **Election** is deterministic: the primary is the live replica with
//! the lowest label (a monotone u64 assigned at spawn). When the
//! failure-detector feed reports the primary crashed
//! ([`ReplicaGroup::fail_primary`]), the lowest surviving label takes
//! over, adopts the longest live log, a fresh replacement replica is
//! spawned (empty log; anti-entropy syncs it), and the new primary's
//! replayed state is installed at the *same* protocol endpoint
//! (virtual-endpoint takeover) — in-flight protocol messages addressed
//! to the supervisor are re-homed without any client-side change and
//! without losing legitimacy.
//!
//! **Agreement** (`all live replicas' digests equal`) is folded into
//! the legitimacy predicate by the backends: a system with a replicated
//! supervisor is legitimate only if the replicas behave as *one logical
//! supervisor*.

use crate::msg::Msg;
use crate::supervisor::Supervisor;
use crate::topics::{TopicId, MAX_TOPICS};
use skippub_bits::Hash128;
use skippub_sim::NodeId;
use skippub_snapshot::{snap_enum, Snap, SnapError, SnapReader, SnapWriter};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seed for the throwaway replay contexts. Supervisor handlers draw no
/// randomness, so the value is irrelevant — it only has to be fixed.
const REPLAY_SEED: u64 = 0x5EED_5EED;

/// One supervisor-semantic operation, without its topic tag. This is
/// what an instrumented [`Supervisor`] pushes to its outbox; the
/// backend draining the outbox knows which topic's supervisor it
/// drained and wraps the kind into a topic-tagged [`RepOp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepOpKind {
    /// `Subscribe(v)` reached the supervisor.
    Subscribe {
        /// Subscribing node.
        v: NodeId,
    },
    /// `Unsubscribe(v)` reached the supervisor.
    Unsubscribe {
        /// Leaving node.
        v: NodeId,
    },
    /// `GetConfiguration(u)` reached the supervisor.
    GetConfig {
        /// Node whose configuration is requested.
        u: NodeId,
        /// Original requester, when it differs from `u`.
        requester: Option<NodeId>,
    },
    /// The supervisor's periodic `Timeout` fired.
    Timeout,
    /// The §6 verification token came home.
    TokenReturn {
        /// Token issue number.
        seq: u64,
    },
    /// The failure detector reported `v` crashed.
    Suspect {
        /// Suspected node.
        v: NodeId,
    },
}

/// A topic-tagged supervisor operation: one log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepOp {
    /// Topic whose supervisor instance executed the operation.
    pub topic: TopicId,
    /// The operation itself.
    pub kind: RepOpKind,
}

impl RepOp {
    /// Stable byte encoding used for the content-addressed prefix chain.
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.topic.0.to_le_bytes());
        match &self.kind {
            RepOpKind::Subscribe { v } => {
                buf.push(0);
                buf.extend_from_slice(&v.0.to_le_bytes());
            }
            RepOpKind::Unsubscribe { v } => {
                buf.push(1);
                buf.extend_from_slice(&v.0.to_le_bytes());
            }
            RepOpKind::GetConfig { u, requester } => {
                buf.push(2);
                buf.extend_from_slice(&u.0.to_le_bytes());
                match requester {
                    None => buf.push(0),
                    Some(r) => {
                        buf.push(1);
                        buf.extend_from_slice(&r.0.to_le_bytes());
                    }
                }
            }
            RepOpKind::Timeout => buf.push(3),
            RepOpKind::TokenReturn { seq } => {
                buf.push(4);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            RepOpKind::Suspect { v } => {
                buf.push(5);
                buf.extend_from_slice(&v.0.to_le_bytes());
            }
        }
    }
}

snap_enum!(RepOpKind {
    0 => Subscribe { v },
    1 => Unsubscribe { v },
    2 => GetConfig { u, requester },
    3 => Timeout,
    4 => TokenReturn { seq },
    5 => Suspect { v },
});

/// A topic past [`MAX_TOPICS`] is malformed: replay runs the topic's
/// supervisor at its instance address, which has no lane for it.
impl Snap for RepOp {
    fn save(&self, w: &mut SnapWriter) {
        self.topic.save(w);
        self.kind.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let topic = TopicId::load(r)?;
        if topic.0 >= MAX_TOPICS {
            return Err(SnapError::Malformed(format!(
                "rep-op topic {} outside 0..{MAX_TOPICS}",
                topic.0
            )));
        }
        Ok(RepOp {
            topic,
            kind: Snap::load(r)?,
        })
    }
}

/// An ordered operation log with a content-addressed prefix chain:
/// `hash[i] = H(hash[i-1] ‖ encode(op[i]))`. Equal hashes at index `i`
/// imply equal prefixes `ops[..=i]`, so the longest common prefix of
/// two logs is found by comparing hashes (monotone ⇒ binary search).
#[derive(Clone, Debug, Default)]
pub struct ReplicaLog {
    ops: Vec<RepOp>,
    hashes: Vec<Hash128>,
}

impl ReplicaLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operations in the log.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the log holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, oldest first.
    pub fn ops(&self) -> &[RepOp] {
        &self.ops
    }

    /// Hash of the whole log (zero for the empty log). Two logs with
    /// equal heads and equal lengths are equal.
    pub fn head(&self) -> Hash128 {
        self.hashes.last().copied().unwrap_or(Hash128(0))
    }

    /// Appends one operation, extending the prefix chain.
    pub fn push(&mut self, op: RepOp) {
        let mut buf = Vec::with_capacity(48);
        buf.extend_from_slice(&self.head().0.to_le_bytes());
        op.encode(&mut buf);
        self.hashes.push(Hash128::of_bytes(&buf));
        self.ops.push(op);
    }

    /// Drops every operation from index `n` on.
    pub fn truncate(&mut self, n: usize) {
        self.ops.truncate(n);
        self.hashes.truncate(n);
    }

    /// Length of the longest common prefix with `other`, computed by
    /// comparing chain hashes. Fast path: when one log extends the
    /// other, a single hash comparison suffices.
    pub fn lcp(&self, other: &ReplicaLog) -> usize {
        let max = self.len().min(other.len());
        if max == 0 {
            return 0;
        }
        if self.hashes[max - 1] == other.hashes[max - 1] {
            return max;
        }
        // Prefix equality is monotone in the index: binary-search the
        // largest i with equal hashes.
        let (mut lo, mut hi) = (0usize, max - 1); // lcp in [lo, hi)
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.hashes[mid] == other.hashes[mid] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The ops alone: load derives the prefix chain again — saving the
/// hashes would only add bytes that must agree with the ops anyway.
impl Snap for ReplicaLog {
    fn save(&self, w: &mut SnapWriter) {
        self.ops.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut log = ReplicaLog::new();
        for op in Vec::<RepOp>::load(r)? {
            log.push(op);
        }
        Ok(log)
    }
}

/// Applies one logged operation to a replica's state map by running the
/// *same* supervisor handler the live endpoint ran — the topic's
/// instance, at its address `topic.at(sup_id)`. Sends produced by the
/// handler are dropped: backups simulate, only the live endpoint talks
/// to the network.
fn apply_rep_op(
    state: &mut BTreeMap<TopicId, Supervisor>,
    sup_id: NodeId,
    token_enabled: bool,
    op: &RepOp,
) {
    let me = op.topic.at(sup_id);
    let sup = state.entry(op.topic).or_insert_with(|| {
        let mut s = Supervisor::new(me);
        s.token_enabled = token_enabled;
        s
    });
    let kind = op.kind.clone();
    let _dropped: Vec<(NodeId, Msg)> =
        skippub_sim::testing::run_handler(me, REPLAY_SEED, |ctx| match kind {
            RepOpKind::Subscribe { v } => sup.on_subscribe(v),
            RepOpKind::Unsubscribe { v } => sup.on_unsubscribe(v),
            RepOpKind::GetConfig { u, requester } => sup.on_get_configuration(ctx, u, requester),
            RepOpKind::Timeout => sup.timeout(ctx),
            RepOpKind::TokenReturn { seq } => sup.on_token_return(seq),
            RepOpKind::Suspect { v } => sup.suspect(v),
        });
}

/// Textual digest of one topic-supervisor state; replicas agree exactly
/// when these strings (hashed) agree for every topic.
fn write_sup_digest(out: &mut String, topic: TopicId, s: &Supervisor) {
    let _ = write!(
        out,
        "t{}:id={};next={};epoch={};tok={},{},{},{};",
        topic.0, s.id.0, s.next, s.db_epoch, s.token_enabled, s.token_seq, s.token_outstanding,
        s.token_age
    );
    for (l, v) in s.database() {
        let _ = write!(out, "{l:?}->{v:?};");
    }
    for (tag, set) in [
        ("sus", &s.suspected),
        ("stg", &s.staged),
        ("rel", &s.relabelled),
    ] {
        for v in set {
            let _ = write!(out, "{tag}{};", v.0);
        }
    }
    let c = &s.counters;
    let _ = write!(
        out,
        "c={},{},{},{},{},{}|",
        c.roundrobin_configs,
        c.staged_configs,
        c.repairs,
        c.evictions,
        c.tokens_issued,
        c.tokens_returned
    );
}

/// One supervisor replica: a log plus the state replayed from it.
#[derive(Clone, Debug)]
pub struct SupervisorReplica {
    /// Election label: the live replica with the lowest label is the
    /// primary. Monotone across spawns, never reused.
    pub label: u64,
    /// False once the failure detector reported this replica crashed.
    pub alive: bool,
    /// The replicated operation log.
    pub log: ReplicaLog,
    /// State machine replayed from `log[..applied]`.
    state: BTreeMap<TopicId, Supervisor>,
    /// Replay cursor into `log`.
    applied: usize,
    /// Cached digest of `state`; cleared whenever `state` moves.
    digest: RefCell<Option<Hash128>>,
}

impl SupervisorReplica {
    fn new(label: u64) -> Self {
        SupervisorReplica {
            label,
            alive: true,
            log: ReplicaLog::new(),
            state: BTreeMap::new(),
            applied: 0,
            digest: RefCell::new(None),
        }
    }

    /// Replays any unapplied log suffix. O(new ops).
    fn catch_up(&mut self, sup_id: NodeId, token_enabled: bool) {
        if self.applied >= self.log.len() {
            return;
        }
        for i in self.applied..self.log.len() {
            apply_rep_op(&mut self.state, sup_id, token_enabled, &self.log.ops()[i]);
        }
        self.applied = self.log.len();
        *self.digest.borrow_mut() = None;
    }

    /// Forgets all replayed state (used when the log was truncated below
    /// the replay cursor — replay restarts from the beginning, which is
    /// exactly how the replica recovers from an adversarial log).
    fn reset_state(&mut self) {
        self.state.clear();
        self.applied = 0;
        *self.digest.borrow_mut() = None;
    }

    /// Digest of the replayed state (cached until the state moves).
    pub fn digest(&self) -> Hash128 {
        if let Some(h) = *self.digest.borrow() {
            return h;
        }
        let mut text = String::new();
        for (topic, sup) in &self.state {
            write_sup_digest(&mut text, *topic, sup);
        }
        let h = Hash128::of_bytes(text.as_bytes());
        *self.digest.borrow_mut() = Some(h);
        h
    }

    /// The replayed per-topic supervisor states.
    pub fn state(&self) -> &BTreeMap<TopicId, Supervisor> {
        &self.state
    }
}

/// Label, liveness and log only: the replayed state, its cursor and the
/// digest cache are skipped, and [`ReplicaGroup`]'s load derives them
/// from the log again.
impl Snap for SupervisorReplica {
    fn save(&self, w: &mut SnapWriter) {
        self.label.save(w);
        self.alive.save(w);
        self.log.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let label = Snap::load(r)?;
        let alive = Snap::load(r)?;
        let log = Snap::load(r)?;
        Ok(SupervisorReplica {
            label,
            alive,
            log,
            state: BTreeMap::new(),
            applied: 0,
            digest: RefCell::new(None),
        })
    }
}

/// A group of supervisor replicas behind one logical supervisor
/// endpoint. `k = 1` models the paper's original assumption (a single,
/// never-replaced supervisor); `k ≥ 2` tolerates primary crashes.
#[derive(Clone, Debug)]
pub struct ReplicaGroup {
    /// The supervisor process the group shadows: topic `t`'s instance
    /// of it runs at `t.at(sup_id)`.
    sup_id: NodeId,
    /// Seed value for `token_enabled` on replayed topic supervisors
    /// (mirrors how the backend constructs its live supervisor).
    token_enabled: bool,
    replicas: Vec<SupervisorReplica>,
    /// Next election label to assign; monotone, never reused.
    next_label: u64,
    /// Label of the current primary.
    primary: u64,
    /// Bumped on every observable change (log growth, anti-entropy
    /// repair, failover). Lets checkers cache agreement verdicts.
    version: u64,
    /// Completed primary failovers.
    failovers: u64,
}

impl ReplicaGroup {
    /// A fresh group of `k ≥ 1` replicas with empty logs; replica 0 is
    /// the initial primary.
    pub fn new(k: usize, sup_id: NodeId, token_enabled: bool) -> Self {
        let k = k.max(1);
        ReplicaGroup {
            sup_id,
            token_enabled,
            replicas: (0..k as u64).map(SupervisorReplica::new).collect(),
            next_label: k as u64,
            primary: 0,
            version: 0,
            failovers: 0,
        }
    }

    /// Replica count (live + crashed).
    pub fn k(&self) -> usize {
        self.replicas.len()
    }

    /// Number of live replicas.
    pub fn live_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.alive).count()
    }

    /// Label of the current primary.
    pub fn primary_label(&self) -> u64 {
        self.primary
    }

    /// Completed failovers.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Monotone change counter (for cached agreement checks).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The replicas (test/diagnostic access).
    pub fn replicas(&self) -> &[SupervisorReplica] {
        &self.replicas
    }

    /// Whether the group can survive a primary crash right now.
    pub fn can_fail_over(&self) -> bool {
        self.live_count() >= 2
    }

    fn primary_index(&self) -> usize {
        self.replicas
            .iter()
            .position(|r| r.label == self.primary)
            .expect("primary label always present")
    }

    /// Appends operations drained from the live supervisor of `topic`
    /// to the primary's log.
    pub fn record_topic(&mut self, topic: TopicId, kinds: Vec<RepOpKind>) {
        if kinds.is_empty() {
            return;
        }
        let idx = self.primary_index();
        for kind in kinds {
            self.replicas[idx].log.push(RepOp { topic, kind });
        }
        self.version += 1;
    }

    /// One anti-entropy round: every live backup adopts the primary's
    /// log (truncate to the longest common prefix, then append the
    /// primary's suffix), and every live replica replays its unapplied
    /// suffix. Converges from any initial log state — an adversarial
    /// backup log is repaired in one round.
    pub fn anti_entropy(&mut self) {
        let pidx = self.primary_index();
        let plen = self.replicas[pidx].log.len();
        let mut changed = false;
        for i in 0..self.replicas.len() {
            if i == pidx || !self.replicas[i].alive {
                continue;
            }
            let lcp = self.replicas[i].log.lcp(&self.replicas[pidx].log);
            if lcp < self.replicas[i].log.len() {
                // Divergent suffix: drop it (the primary's order wins).
                self.replicas[i].log.truncate(lcp);
                if self.replicas[i].applied > lcp {
                    self.replicas[i].reset_state();
                }
                changed = true;
            }
            if lcp < plen {
                for j in lcp..plen {
                    let op = self.replicas[pidx].log.ops()[j].clone();
                    self.replicas[i].log.push(op);
                }
                changed = true;
            }
        }
        let (sup_id, token_enabled) = (self.sup_id, self.token_enabled);
        for r in &mut self.replicas {
            if r.alive {
                r.catch_up(sup_id, token_enabled);
            }
        }
        if changed {
            self.version += 1;
        }
    }

    /// Overwrites replica `idx`'s log (adversarial initial state for
    /// tests): state is forgotten and replayed from the injected log.
    pub fn inject_log(&mut self, idx: usize, ops: Vec<RepOp>) {
        let r = &mut self.replicas[idx];
        r.log = ReplicaLog::new();
        for op in ops {
            r.log.push(op);
        }
        r.reset_state();
        let (sup_id, token_enabled) = (self.sup_id, self.token_enabled);
        self.replicas[idx].catch_up(sup_id, token_enabled);
        self.version += 1;
    }

    /// Failure-detector input: the current primary crashed. Elects the
    /// live replica with the lowest label, lets it adopt the longest
    /// live log, and spawns a fresh replacement replica (synced by the
    /// next anti-entropy round). Returns `false` — and changes nothing —
    /// when no backup is live (`k = 1` keeps the paper's "supervisor
    /// never crashes" reading: such reports are uniform no-ops).
    pub fn fail_primary(&mut self) -> bool {
        if !self.can_fail_over() {
            return false;
        }
        let pidx = self.primary_index();
        self.replicas[pidx].alive = false;
        // Deterministic election: lowest live label.
        let new_primary = self
            .replicas
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.label)
            .min()
            .expect("can_fail_over checked a live backup exists");
        self.primary = new_primary;
        // The new primary adopts the longest live log (all live logs are
        // prefixes of each other after anti-entropy; this covers the
        // window where a longer sibling exists).
        let longest = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .max_by_key(|(_, r)| r.log.len())
            .map(|(i, _)| i)
            .expect("live replica exists");
        let nidx = self.primary_index();
        if self.replicas[longest].log.len() > self.replicas[nidx].log.len() {
            let lcp = self.replicas[nidx].log.lcp(&self.replicas[longest].log);
            if lcp < self.replicas[nidx].log.len() {
                self.replicas[nidx].log.truncate(lcp);
                if self.replicas[nidx].applied > lcp {
                    self.replicas[nidx].reset_state();
                }
            }
            for j in lcp..self.replicas[longest].log.len() {
                let op = self.replicas[longest].log.ops()[j].clone();
                self.replicas[nidx].log.push(op);
            }
        }
        // Spawn the replacement so repeated primary crashes stay
        // survivable; its empty log is synced by anti-entropy.
        let label = self.next_label;
        self.next_label += 1;
        self.replicas.push(SupervisorReplica::new(label));
        self.failovers += 1;
        self.version += 1;
        self.anti_entropy();
        true
    }

    /// All live replicas hold identical replayed states. With one live
    /// replica this is trivially true.
    pub fn agreement(&self) -> bool {
        let mut digests = self.replicas.iter().filter(|r| r.alive).map(|r| r.digest());
        match digests.next() {
            None => false,
            Some(first) => digests.all(|d| d == first),
        }
    }

    /// Combined digest of the live replicas (diagnostics / snapshots).
    pub fn group_digest(&self) -> Hash128 {
        let mut buf = Vec::new();
        for r in self.replicas.iter().filter(|r| r.alive) {
            buf.extend_from_slice(&r.label.to_le_bytes());
            buf.extend_from_slice(&r.digest().0.to_le_bytes());
        }
        Hash128::of_bytes(&buf)
    }

    /// A clone of the new primary's replayed supervisor of `topic`,
    /// marked live (`replicated = true`, empty outbox) — ready to
    /// install at the topic's instance after a failover; a fresh
    /// supervisor when the log never touched `topic`.
    pub fn primary_topic(&self, topic: TopicId) -> Supervisor {
        let replayed = self.replicas[self.primary_index()].state.get(&topic);
        let mut s = replayed.cloned().unwrap_or_else(|| {
            let mut s = Supervisor::new(topic.at(self.sup_id));
            s.token_enabled = self.token_enabled;
            s
        });
        s.replicated = true;
        s.outbox.clear();
        s
    }
}

/// A group without a replica holding the primary's label is malformed;
/// every live replica's state is derived by replaying its log.
impl Snap for ReplicaGroup {
    fn save(&self, w: &mut SnapWriter) {
        self.sup_id.save(w);
        self.token_enabled.save(w);
        self.next_label.save(w);
        self.primary.save(w);
        self.version.save(w);
        self.failovers.save(w);
        self.replicas.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let sup_id = Snap::load(r)?;
        let token_enabled = Snap::load(r)?;
        let next_label = Snap::load(r)?;
        let primary = Snap::load(r)?;
        let version = Snap::load(r)?;
        let failovers = Snap::load(r)?;
        let replicas: Vec<SupervisorReplica> = Snap::load(r)?;
        let mut g = ReplicaGroup {
            sup_id,
            token_enabled,
            replicas,
            next_label,
            primary,
            version,
            failovers,
        };
        if g.replicas.is_empty() || !g.replicas.iter().any(|x| x.label == g.primary) {
            return Err(SnapError::Malformed("replica group without primary".into()));
        }
        // Rebuild replayed state; the log is the durable truth.
        let (sup_id, token_enabled) = (g.sup_id, g.token_enabled);
        for rep in &mut g.replicas {
            if rep.alive {
                rep.catch_up(sup_id, token_enabled);
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(topic: u32, kind: RepOpKind) -> RepOp {
        RepOp {
            topic: TopicId(topic),
            kind,
        }
    }

    fn sub(v: u64) -> RepOpKind {
        RepOpKind::Subscribe { v: NodeId(v) }
    }

    #[test]
    fn log_prefix_hashes_detect_divergence() {
        let mut a = ReplicaLog::new();
        let mut b = ReplicaLog::new();
        for i in 1..=5 {
            a.push(op(0, sub(i)));
            b.push(op(0, sub(i)));
        }
        assert_eq!(a.lcp(&b), 5);
        assert_eq!(a.head(), b.head());
        b.push(op(0, sub(99)));
        assert_eq!(a.lcp(&b), 5, "a is a prefix of b");
        let mut c = ReplicaLog::new();
        c.push(op(0, sub(1)));
        c.push(op(0, sub(42))); // diverges at index 1
        c.push(op(0, sub(3)));
        assert_eq!(a.lcp(&c), 1);
        assert_eq!(c.lcp(&a), 1);
        assert_eq!(a.lcp(&ReplicaLog::new()), 0);
    }

    #[test]
    fn record_and_anti_entropy_converges_backups() {
        let mut g = ReplicaGroup::new(3, NodeId(0), false);
        g.record_topic(TopicId(0), vec![sub(1), sub(2), sub(3)]);
        g.anti_entropy();
        assert!(g.agreement());
        for r in g.replicas() {
            assert_eq!(r.log.len(), 3);
            assert_eq!(r.state()[&TopicId(0)].n(), 3);
        }
        // Replays produce identical epochs and counters, not just DBs.
        let d0 = g.replicas()[0].digest();
        assert!(g.replicas().iter().all(|r| r.digest() == d0));
    }

    #[test]
    fn adversarial_backup_log_is_repaired() {
        let mut g = ReplicaGroup::new(3, NodeId(0), false);
        g.record_topic(TopicId(0), vec![sub(1), sub(2)]);
        g.anti_entropy();
        // Corrupt backup 2 with a totally unrelated log.
        g.inject_log(
            2,
            vec![op(7, sub(50)), op(7, sub(51)), op(7, sub(52)), op(7, sub(53))],
        );
        assert!(!g.agreement(), "corruption must be visible");
        g.anti_entropy();
        assert!(g.agreement(), "one round repairs any backup log");
        assert_eq!(g.replicas()[2].log.len(), 2);
    }

    #[test]
    fn failover_elects_lowest_live_label_and_spawns_replacement() {
        let mut g = ReplicaGroup::new(3, NodeId(0), false);
        g.record_topic(TopicId(0), vec![sub(1), sub(2), sub(3)]);
        g.anti_entropy();
        assert_eq!(g.primary_label(), 0);
        assert!(g.fail_primary());
        assert_eq!(g.primary_label(), 1, "lowest surviving label");
        assert_eq!(g.k(), 4, "replacement spawned");
        assert_eq!(g.live_count(), 3);
        assert_eq!(g.failovers(), 1);
        assert!(g.agreement(), "replacement synced by anti-entropy");
        // The installed state matches what the old primary held.
        let st = g.primary_topic(TopicId(0));
        assert_eq!(st.n(), 3);
        assert!(st.replicated);
        // Second failover: labels 2,3 remain; 2 wins.
        assert!(g.fail_primary());
        assert_eq!(g.primary_label(), 2);
    }

    #[test]
    fn single_replica_group_never_fails_over() {
        let mut g = ReplicaGroup::new(1, NodeId(0), false);
        g.record_topic(TopicId(0), vec![sub(1)]);
        g.anti_entropy();
        assert!(!g.can_fail_over());
        assert!(!g.fail_primary(), "k = 1 keeps the paper's assumption");
        assert_eq!(g.failovers(), 0);
        assert_eq!(g.live_count(), 1);
        assert!(g.agreement(), "a single live replica agrees trivially");
    }

    #[test]
    fn replay_matches_a_directly_driven_supervisor() {
        use crate::msg::Msg;
        // Drive a live supervisor through a mixed handler sequence…
        let mut live = Supervisor::new(NodeId(0));
        live.replicated = true;
        let mut kinds = Vec::new();
        let mut run = |s: &mut Supervisor, k: RepOpKind| {
            let kk = k.clone();
            let _: Vec<(NodeId, Msg)> =
                skippub_sim::testing::run_handler(NodeId(0), 1, |ctx| match kk {
                    RepOpKind::Subscribe { v } => s.on_subscribe(v),
                    RepOpKind::Unsubscribe { v } => s.on_unsubscribe(v),
                    RepOpKind::GetConfig { u, requester } => {
                        s.on_get_configuration(ctx, u, requester)
                    }
                    RepOpKind::Timeout => s.timeout(ctx),
                    RepOpKind::TokenReturn { seq } => s.on_token_return(seq),
                    RepOpKind::Suspect { v } => s.suspect(v),
                });
            kinds.push(k);
        };
        for v in 1..=5 {
            run(&mut live, sub(v));
        }
        run(&mut live, RepOpKind::Timeout);
        run(&mut live, RepOpKind::Unsubscribe { v: NodeId(2) });
        run(&mut live, RepOpKind::Suspect { v: NodeId(3) });
        run(&mut live, RepOpKind::Timeout);
        run(
            &mut live,
            RepOpKind::GetConfig {
                u: NodeId(4),
                requester: Some(NodeId(5)),
            },
        );
        // …and the instrumented outbox must carry exactly that sequence.
        assert_eq!(live.outbox, kinds);
        // A replica replaying the log reaches the identical state.
        let mut g = ReplicaGroup::new(2, NodeId(0), false);
        g.record_topic(TopicId(0), live.outbox.clone());
        g.anti_entropy();
        let replayed = g.primary_topic(TopicId(0));
        assert_eq!(replayed.database(), live.database());
        assert_eq!(replayed.next, live.next);
        assert_eq!(replayed.db_epoch, live.db_epoch);
        assert_eq!(replayed.suspected, live.suspected);
        assert_eq!(replayed.staged, live.staged);
        assert_eq!(replayed.relabelled, live.relabelled);
        assert!(
            live.staged.contains(&NodeId(4)),
            "the sequence ends between a handler and its timeout"
        );
        assert_eq!(replayed.counters.evictions, live.counters.evictions);
        assert_eq!(replayed.counters.repairs, live.counters.repairs);
    }

    #[test]
    fn failover_between_handler_and_timeout_keeps_the_owed_configuration() {
        use crate::msg::Msg;
        // The primary handled a join and a leave and crashed before the
        // timeout that would have told anybody.
        let mut g = ReplicaGroup::new(3, NodeId(0), false);
        let settled: Vec<RepOpKind> = (1..=4).map(sub).chain([RepOpKind::Timeout]).collect();
        g.record_topic(TopicId(0), settled);
        g.anti_entropy();
        let quiet = g.group_digest();
        g.record_topic(
            TopicId(0),
            vec![sub(5), RepOpKind::Unsubscribe { v: NodeId(2) }],
        );
        g.anti_entropy();
        assert!(g.agreement());
        assert_ne!(g.group_digest(), quiet, "the digest covers the staged sets");
        assert!(g.fail_primary());
        let mut elected = g.primary_topic(TopicId(0));
        assert_eq!(
            elected.staged,
            std::collections::BTreeSet::from([NodeId(2), NodeId(5)])
        );
        assert_eq!(
            elected.relabelled,
            std::collections::BTreeSet::from([NodeId(5)])
        );
        // Its first timeout pays the debt: the joiner hears the label it
        // holds after the leave, the leaver its permission.
        let sent: Vec<(NodeId, Msg)> =
            skippub_sim::testing::run_handler(NodeId(0), 1, |ctx| elected.timeout(ctx));
        let label_for = |v: u64| {
            sent.iter().find_map(|(to, m)| match m {
                Msg::SetData { label, .. } if *to == NodeId(v) => Some(*label),
                _ => None,
            })
        };
        assert_eq!(label_for(5), Some(Some("1".parse().unwrap())));
        assert_eq!(label_for(2), Some(None));
    }

    #[test]
    fn staged_sets_tell_replica_digests_apart() {
        let mut a = Supervisor::new(NodeId(0));
        let b = a.clone();
        let digest = |s: &Supervisor| {
            let mut out = String::new();
            write_sup_digest(&mut out, TopicId(0), s);
            out
        };
        assert_eq!(digest(&a), digest(&b));
        a.staged.insert(NodeId(7));
        assert_ne!(digest(&a), digest(&b));
        a.staged.clear();
        a.relabelled.insert(NodeId(7));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn group_snapshot_round_trips_byte_exactly() {
        let mut g = ReplicaGroup::new(3, NodeId(0), true);
        g.record_topic(TopicId(0), vec![sub(1), sub(2)]);
        g.record_topic(TopicId(1), vec![sub(3), RepOpKind::Timeout]);
        g.anti_entropy();
        g.fail_primary();
        let mut w = SnapWriter::new();
        g.save(&mut w);
        let snap = w.finish("replica-test");
        let mut r = snap.reader().expect("reader");
        let g2 = ReplicaGroup::load(&mut r).expect("load");
        r.finish().expect("fully consumed");
        assert_eq!(g2.primary_label(), g.primary_label());
        assert_eq!(g2.failovers(), g.failovers());
        assert_eq!(g2.group_digest(), g.group_digest());
        let mut w2 = SnapWriter::new();
        g2.save(&mut w2);
        assert_eq!(
            w2.finish("replica-test").as_text(),
            snap.as_text(),
            "re-save must be byte-exact"
        );
    }
}
