//! Multi-topic publish-subscribe (§4): one `BuildSR` instance per topic.
//!
//! "To construct a publish-subscribe system out of our self-stabilizing
//! supervised overlay network, we basically run a BuildSR protocol for
//! each topic t ∈ T at the supervisor. … By assigning the topic number to
//! each message that is sent out, we can identify the appropriate protocol
//! at the receiver."
//!
//! The supervisor's per-timeout work is therefore **linear in the number
//! of topics but independent of the number of subscribers** (experiment
//! E13 measures exactly this).

use crate::config::ProtocolConfig;
use crate::msg::Msg;
use crate::subscriber::Subscriber;
use crate::supervisor::Supervisor;
use skippub_sim::{Ctx, NodeId, Protocol};
use std::collections::BTreeMap;

/// Topic identifier (`t ∈ T ⊂ N`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TopicId(pub u32);

/// A topic-tagged protocol message.
#[derive(Clone, Debug)]
pub struct TopicMsg {
    /// Which `BuildSR` instance the message belongs to.
    pub topic: TopicId,
    /// The inner message.
    pub msg: Msg,
}

/// A multi-topic process: a supervisor hosting one database per topic, or
/// a client subscribed to any subset of topics.
#[derive(Clone, Debug)]
pub enum MultiActor {
    /// The supervisor: one `BuildSR` supervisor instance per topic.
    Supervisor {
        /// Per-topic supervisor state.
        topics: BTreeMap<TopicId, Supervisor>,
        /// Own id.
        id: NodeId,
        /// Whether lazily instantiated topic supervisors record their
        /// operations for a [`crate::replica::ReplicaGroup`]. Seeded by
        /// the backend when `SystemBuilder::replicas(k)` with `k ≥ 2`.
        replicated: bool,
        /// Forwarding tombstones for topics handed off to another
        /// supervisor (shard rebalancing): topic → current owner at the
        /// time of the last handoff. A stale in-flight message for a
        /// moved topic is forwarded one hop instead of lazily
        /// resurrecting a zombie instance here. Following the chain of
        /// last-handoff pointers always terminates at the current owner
        /// (whose own tombstone is cleared on adoption).
        moved: BTreeMap<TopicId, NodeId>,
    },
    /// A client: one `BuildSR` subscriber instance per subscribed topic.
    Client {
        /// Per-topic subscriber state.
        topics: BTreeMap<TopicId, Box<Subscriber>>,
        /// Own id.
        id: NodeId,
        /// The (hard-coded) supervisor.
        supervisor: NodeId,
        /// Configuration applied to newly joined topics.
        cfg: ProtocolConfig,
        /// Topics whose instance was dropped after a granted departure,
        /// with the supervisor that granted it. A stale in-flight
        /// `Subscribe` processed *after* the departure re-inserts the
        /// client into that supervisor's database — and with the
        /// instance gone, nobody would ever refuse the entry (the
        /// single-topic backends self-heal here because the departed
        /// node keeps existing and re-sends `Unsubscribe`). The
        /// tombstone lets the client refuse membership-implying configs
        /// for departed topics, restoring that self-healing — and answer
        /// neighbours that still probe it with `RemoveConnections`, as
        /// the unlabelled instance of the single-topic backends does.
        departed: BTreeMap<TopicId, NodeId>,
    },
}

impl MultiActor {
    /// New multi-topic supervisor.
    pub fn new_supervisor(id: NodeId) -> Self {
        MultiActor::Supervisor {
            topics: BTreeMap::new(),
            id,
            replicated: false,
            moved: BTreeMap::new(),
        }
    }

    /// New client with no subscriptions.
    pub fn new_client(id: NodeId, supervisor: NodeId, cfg: ProtocolConfig) -> Self {
        MultiActor::Client {
            topics: BTreeMap::new(),
            id,
            supervisor,
            cfg,
            departed: BTreeMap::new(),
        }
    }

    /// Client-side: start a `BuildSR` instance for `topic` ("Once a
    /// subscriber wants to subscribe to some topic t ∈ T, it starts
    /// running a new BuildSR protocol for topic t"). If an instance
    /// still exists from a pending departure, membership is re-affirmed
    /// instead (matching the single-topic backends' rejoin semantics).
    pub fn join_topic(&mut self, topic: TopicId) {
        if let MultiActor::Client {
            topics,
            id,
            supervisor,
            cfg,
            departed,
        } = self
        {
            departed.remove(&topic);
            topics
                .entry(topic)
                .and_modify(|s| s.wants_membership = true)
                .or_insert_with(|| Box::new(Subscriber::new(*id, *supervisor, *cfg)));
        }
    }

    /// Client-side variant of [`MultiActor::join_topic`] that directs the
    /// new `BuildSR` instance at an explicit `supervisor` — the hook the
    /// partitioned backend uses to route each topic to the supervisor
    /// responsible for it (the consistent-hash shard of §1.3).
    pub fn join_topic_at(&mut self, topic: TopicId, supervisor: NodeId) {
        if let MultiActor::Client {
            topics,
            id,
            cfg,
            departed,
            ..
        } = self
        {
            departed.remove(&topic);
            topics
                .entry(topic)
                .and_modify(|s| s.wants_membership = true)
                .or_insert_with(|| Box::new(Subscriber::new(*id, supervisor, *cfg)));
        }
    }

    /// Client-side: request departure from `topic`; the instance is
    /// dropped once the supervisor grants permission (observed as the
    /// label being cleared).
    pub fn leave_topic(&mut self, topic: TopicId) {
        if let MultiActor::Client { topics, .. } = self {
            if let Some(s) = topics.get_mut(&topic) {
                s.wants_membership = false;
            }
        }
    }

    /// The subscriber instance for `topic`, if any.
    pub fn topic_subscriber(&self, topic: TopicId) -> Option<&Subscriber> {
        match self {
            MultiActor::Client { topics, .. } => topics.get(&topic).map(|s| &**s),
            MultiActor::Supervisor { .. } => None,
        }
    }

    /// Mutable subscriber instance for `topic`.
    pub fn topic_subscriber_mut(&mut self, topic: TopicId) -> Option<&mut Subscriber> {
        match self {
            MultiActor::Client { topics, .. } => topics.get_mut(&topic).map(|s| &mut **s),
            MultiActor::Supervisor { .. } => None,
        }
    }

    /// The supervisor instance for `topic`, if this is the supervisor.
    pub fn topic_supervisor(&self, topic: TopicId) -> Option<&Supervisor> {
        match self {
            MultiActor::Supervisor { topics, .. } => topics.get(&topic),
            MultiActor::Client { .. } => None,
        }
    }

    /// Topics this actor currently participates in.
    pub fn topic_ids(&self) -> Vec<TopicId> {
        match self {
            MultiActor::Supervisor { topics, .. } => topics.keys().copied().collect(),
            MultiActor::Client { topics, .. } => topics.keys().copied().collect(),
        }
    }

    /// Borrowing iterator over a client's `(topic, instance)` pairs in
    /// topic order (empty for supervisors) — the allocation-free form
    /// hot paths use instead of [`MultiActor::topic_ids`] + per-topic
    /// lookups.
    pub fn subscriptions(&self) -> impl Iterator<Item = (TopicId, &Subscriber)> {
        match self {
            MultiActor::Client { topics, .. } => Some(topics.iter().map(|(t, s)| (*t, &**s))),
            MultiActor::Supervisor { .. } => None,
        }
        .into_iter()
        .flatten()
    }

    /// Whether this actor is a client.
    pub fn is_client(&self) -> bool {
        matches!(self, MultiActor::Client { .. })
    }

    /// Client-side local publish on `topic` (inserts into the per-topic
    /// trie and floods along that topic's edges, §4.3). Returns the
    /// derived publication key, or `None` if this actor is not a client
    /// subscribed to `topic`.
    pub fn publish_local(
        &mut self,
        ctx: &mut Ctx<'_, TopicMsg>,
        topic: TopicId,
        payload: Vec<u8>,
    ) -> Option<skippub_bits::BitStr> {
        self.publish_local_shared(ctx, topic, payload.into())
    }

    /// [`publish_local`](Self::publish_local) over an already-shared
    /// payload — the zero-copy form the facade backends feed from their
    /// payload interner.
    pub fn publish_local_shared(
        &mut self,
        ctx: &mut Ctx<'_, TopicMsg>,
        topic: TopicId,
        payload: std::sync::Arc<[u8]>,
    ) -> Option<skippub_bits::BitStr> {
        let MultiActor::Client { topics, .. } = self else {
            return None;
        };
        let sub = topics.get_mut(&topic)?;
        let mut key = None;
        with_topic_ctx(topic, ctx, |ictx| {
            key = Some(sub.publish_local_shared(ictx, payload));
        });
        key
    }

    /// Client-side out-of-band publication insert (no flooding): models a
    /// publication that arrived through an unmodelled channel, used by
    /// adversarial-start experiments. Returns whether it was new.
    pub fn seed_publication(
        &mut self,
        topic: TopicId,
        publication: skippub_trie::Publication,
    ) -> bool {
        match self {
            MultiActor::Client { topics, .. } => topics
                .get_mut(&topic)
                .map(|s| s.trie.insert(publication))
                .unwrap_or(false),
            MultiActor::Supervisor { .. } => false,
        }
    }

    /// Supervisor-side failure-detector feed (§3.3): suspect `node` in
    /// every topic instance hosted here. No-op on clients.
    pub fn suspect(&mut self, node: NodeId) {
        if let MultiActor::Supervisor { topics, .. } = self {
            for sup in topics.values_mut() {
                sup.suspect(node);
            }
        }
    }

    /// Backend-side replication hook: flips operation recording on or
    /// off for this supervisor and every topic instance it already
    /// hosts (lazily instantiated topics inherit the flag). No-op on
    /// clients.
    pub fn set_replicated(&mut self, on: bool) {
        if let MultiActor::Supervisor {
            topics, replicated, ..
        } = self
        {
            *replicated = on;
            for sup in topics.values_mut() {
                sup.replicated = on;
                sup.outbox.clear();
            }
        }
    }

    /// Drains every topic instance's recorded operations, in ascending
    /// topic order (deterministic regardless of message interleaving
    /// within a round). Empty for clients.
    pub fn drain_outboxes(&mut self) -> Vec<(TopicId, Vec<crate::replica::RepOpKind>)> {
        let MultiActor::Supervisor { topics, .. } = self else {
            return Vec::new();
        };
        topics
            .iter_mut()
            .filter(|(_, s)| !s.outbox.is_empty())
            .map(|(t, s)| (*t, s.drain_outbox()))
            .collect()
    }

    /// Replaces the hosted per-topic supervisor map — the replica
    /// failover install (the electee's replayed state takes over the
    /// endpoint). No-op on clients.
    pub fn install_topics(&mut self, new_topics: BTreeMap<TopicId, Supervisor>) {
        if let MultiActor::Supervisor { topics, .. } = self {
            *topics = new_topics;
        }
    }

    /// Supervisor-side start of a topic handoff (shard rebalancing):
    /// records a forwarding tombstone `topic → new_owner` and extracts
    /// the hosted instance, if any. The tombstone is recorded even when
    /// no instance exists yet — a `Subscribe` may already be in flight
    /// toward this supervisor, and without the tombstone its arrival
    /// would lazily resurrect a zombie instance here. No-op (`None`) on
    /// clients.
    pub fn begin_move(&mut self, topic: TopicId, new_owner: NodeId) -> Option<Supervisor> {
        let MultiActor::Supervisor { topics, moved, .. } = self else {
            return None;
        };
        moved.insert(topic, new_owner);
        topics.remove(&topic)
    }

    /// Supervisor-side completion of a topic handoff: installs the moved
    /// instance under this supervisor's identity and clears any stale
    /// tombstone from an earlier outbound move of the same topic (this
    /// supervisor is the owner again). No-op on clients.
    pub fn adopt_topic(&mut self, topic: TopicId, mut instance: Supervisor) {
        if let MultiActor::Supervisor {
            topics, id, moved, ..
        } = self
        {
            instance.id = *id;
            moved.remove(&topic);
            topics.insert(topic, instance);
        }
    }

    /// Client-side supervisor retarget after a topic handoff: future
    /// probes and departure requests for `topic` go to `new_sup`. Both
    /// the live instance and a departed tombstone are retargeted (a
    /// stale-Subscribe refusal must reach the current owner). No-op on
    /// supervisors and on clients without state for the topic.
    pub fn retarget_topic(&mut self, topic: TopicId, new_sup: NodeId) {
        if let MultiActor::Client {
            topics, departed, ..
        } = self
        {
            if let Some(sub) = topics.get_mut(&topic) {
                sub.supervisor = new_sup;
            }
            if let Some(granter) = departed.get_mut(&topic) {
                *granter = new_sup;
            }
        }
    }
}

thread_local! {
    /// Reusable inner-send buffer for [`with_topic_ctx`]: the re-tag
    /// adapter sits on the per-delivered-message hot path of the
    /// multi-topic backends, so it must not allocate per call (beyond
    /// the buffer's one-time growth to its high-water mark). Per-thread
    /// storage also keeps the partitioned executor's workers off a
    /// shared allocator lock.
    static RETAG: std::cell::RefCell<Vec<(NodeId, Msg)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Adapter: runs a single-topic handler inside a topic-tagged context by
/// translating sends into [`TopicMsg`]s. The inner context shares the
/// outer context's RNG stream ([`Ctx::nest`]), so behaviour stays a
/// deterministic function of the world seed without paying a fresh RNG
/// construction per delivered message.
fn with_topic_ctx(topic: TopicId, ctx: &mut Ctx<'_, TopicMsg>, f: impl FnOnce(&mut Ctx<'_, Msg>)) {
    RETAG.with(|buf| {
        let mut out = buf.take();
        debug_assert!(out.is_empty());
        ctx.nest(&mut out, f);
        for (to, msg) in out.drain(..) {
            ctx.send(to, TopicMsg { topic, msg });
        }
        buf.replace(out);
    });
}

impl Protocol for MultiActor {
    type Msg = TopicMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, TopicMsg>, tm: TopicMsg) {
        let TopicMsg { topic, msg } = tm;
        match self {
            MultiActor::Supervisor {
                topics,
                id,
                replicated,
                moved,
            } => {
                // A message for a topic handed off to another shard:
                // forward one hop toward the current owner (a moved
                // tombstone implies no local instance; lazily creating
                // one here would resurrect a zombie supervisor).
                if let Some(&owner) = moved.get(&topic) {
                    ctx.send(owner, TopicMsg { topic, msg });
                    return;
                }
                // The supervisor lazily instantiates a topic on first
                // contact ("topics … predefined by the supervisor" — we
                // model the predefined set as "whatever is contacted").
                let sup = topics.entry(topic).or_insert_with(|| {
                    let mut s = Supervisor::new(*id);
                    s.replicated = *replicated;
                    s
                });
                let epoch = sup.db_epoch;
                with_topic_ctx(topic, ctx, |ictx| {
                    crate::actor::dispatch_supervisor(sup, ictx, msg)
                });
                if sup.db_epoch != epoch {
                    ctx.mark_dirty(crate::dirty::topo_key(topic.0));
                }
            }
            MultiActor::Client {
                topics, departed, ..
            } => {
                if let Some(sub) = topics.get_mut(&topic) {
                    let (topo, pubs) = crate::dirty::subscriber_delta(sub, |sub| {
                        with_topic_ctx(topic, ctx, |ictx| {
                            crate::actor::dispatch_subscriber(sub, ictx, msg)
                        })
                    });
                    if topo {
                        ctx.mark_dirty(crate::dirty::topo_key(topic.0));
                    }
                    if pubs {
                        ctx.mark_dirty(crate::dirty::pubs_key(topic.0));
                    }
                } else if let Some(&sup) = departed.get(&topic) {
                    // A topic we left: answer exactly as a still-running
                    // unlabelled instance would, so the world it left
                    // self-heals. A membership-implying config means a
                    // stale `Subscribe` re-inserted us into the
                    // supervisor's database after the granted departure:
                    // refuse it. A neighbour that still probes or
                    // introduces us holds a reference nobody else will
                    // ever correct (Lemma 6): ask it to drop it. Both
                    // replies are terminal — the departure permission
                    // `SetData(⊥,⊥,⊥)` and everything else stay ignored.
                    let me = ctx.me();
                    let reply = match &msg {
                        Msg::SetData { label: Some(_), .. } => {
                            Some((sup, Msg::Unsubscribe { node: me }))
                        }
                        Msg::Check { sender: from, .. }
                        | Msg::CheckShortcut { sender: from, .. }
                        | Msg::Intro { node: from, .. }
                        | Msg::IntroduceShortcut { node: from } => {
                            Some((from.id, Msg::RemoveConnections { node: me }))
                        }
                        _ => None,
                    };
                    if let Some((to, msg)) = reply {
                        ctx.send(to, TopicMsg { topic, msg });
                    }
                }
                // Other messages for topics we never joined: corrupted
                // content, consumed silently.
            }
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, TopicMsg>) {
        match self {
            MultiActor::Supervisor { topics, .. } => {
                // One round-robin config per topic per timeout — the §4
                // "linear in |T|, independent of subscribers" overhead.
                for (t, sup) in topics.iter_mut() {
                    let epoch = sup.db_epoch;
                    with_topic_ctx(*t, ctx, |ictx| sup.timeout(ictx));
                    if sup.db_epoch != epoch {
                        ctx.mark_dirty(crate::dirty::topo_key(t.0));
                    }
                }
            }
            MultiActor::Client {
                topics, departed, ..
            } => {
                let mut done: Vec<(TopicId, NodeId)> = Vec::new();
                for (t, sub) in topics.iter_mut() {
                    let (topo, pubs) = crate::dirty::subscriber_delta(sub, |sub| {
                        with_topic_ctx(*t, ctx, |ictx| sub.timeout(ictx))
                    });
                    if topo {
                        ctx.mark_dirty(crate::dirty::topo_key(t.0));
                    }
                    if pubs {
                        ctx.mark_dirty(crate::dirty::pubs_key(t.0));
                    }
                    // "Upon unsubscribing, the subscriber may remove the
                    // respective BuildSR protocol, once it gets the
                    // permission from the supervisor."
                    if !sub.wants_membership && sub.label.is_none() {
                        done.push((*t, sub.supervisor));
                    }
                }
                for (t, sup) in done {
                    topics.remove(&t);
                    departed.insert(t, sup);
                    // The member set itself is topology state: dropping
                    // the instance must invalidate the topic's verdict.
                    ctx.mark_dirty(crate::dirty::topo_key(t.0));
                }
            }
        }
    }

    fn msg_kind(tm: &TopicMsg) -> &'static str {
        tm.msg.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NodeRef;
    use skippub_sim::World;

    const SUP: NodeId = NodeId(0);

    fn multi_world(clients: u64, seed: u64) -> World<MultiActor> {
        let mut w = World::new(seed);
        w.add_node(SUP, MultiActor::new_supervisor(SUP));
        for i in 1..=clients {
            w.add_node(
                NodeId(i),
                MultiActor::new_client(NodeId(i), SUP, ProtocolConfig::topology_only()),
            );
        }
        w
    }

    #[test]
    fn two_topics_stabilize_independently() {
        let mut w = multi_world(6, 21);
        let (ta, tb) = (TopicId(1), TopicId(2));
        for i in 1..=6u64 {
            let a = w.node_mut(NodeId(i)).unwrap();
            if i <= 4 {
                a.join_topic(ta);
            }
            if i >= 3 {
                a.join_topic(tb);
            }
        }
        for _ in 0..250 {
            w.run_round();
        }
        let sup = w.node(SUP).unwrap();
        assert_eq!(sup.topic_supervisor(ta).unwrap().n(), 4);
        assert_eq!(sup.topic_supervisor(tb).unwrap().n(), 4);
        // Per-topic subscriber state must carry per-topic labels.
        let n3 = w.node(NodeId(3)).unwrap();
        assert!(n3.topic_subscriber(ta).unwrap().label.is_some());
        assert!(n3.topic_subscriber(tb).unwrap().label.is_some());
    }

    #[test]
    fn leaving_a_topic_drops_the_instance() {
        let mut w = multi_world(3, 22);
        let t = TopicId(9);
        for i in 1..=3u64 {
            w.node_mut(NodeId(i)).unwrap().join_topic(t);
        }
        for _ in 0..80 {
            w.run_round();
        }
        w.node_mut(NodeId(2)).unwrap().leave_topic(t);
        for _ in 0..120 {
            w.run_round();
        }
        assert!(w.node(NodeId(2)).unwrap().topic_subscriber(t).is_none());
        assert_eq!(w.node(SUP).unwrap().topic_supervisor(t).unwrap().n(), 2);
    }

    #[test]
    fn rejoin_during_pending_departure_reaffirms_membership() {
        let mut w = multi_world(3, 24);
        let t = TopicId(5);
        for i in 1..=3u64 {
            w.node_mut(NodeId(i)).unwrap().join_topic(t);
        }
        for _ in 0..80 {
            w.run_round();
        }
        // Leave, then immediately rejoin before the supervisor grants
        // the departure: the node must stay a member (same semantics as
        // the single-topic backends' rejoin).
        let n2 = w.node_mut(NodeId(2)).unwrap();
        n2.leave_topic(t);
        n2.join_topic(t);
        for _ in 0..120 {
            w.run_round();
        }
        let sub = w
            .node(NodeId(2))
            .unwrap()
            .topic_subscriber(t)
            .expect("instance kept");
        assert!(sub.wants_membership);
        assert!(sub.label.is_some());
        assert_eq!(w.node(SUP).unwrap().topic_supervisor(t).unwrap().n(), 3);
    }

    #[test]
    fn stale_subscribe_after_departure_self_heals() {
        // Regression (found by the scenario engine's churn workloads): a
        // `Subscribe` still in flight when the supervisor grants the
        // sender's departure re-inserts the leaver into the database —
        // and the leaver's instance is gone, so nothing refused the
        // entry and the topic stayed illegitimate forever. The departed
        // tombstone now answers membership-implying configs with
        // `Unsubscribe`.
        let mut w = multi_world(4, 25);
        let t = TopicId(3);
        for i in 1..=4u64 {
            w.node_mut(NodeId(i)).unwrap().join_topic(t);
        }
        for _ in 0..120 {
            w.run_round();
        }
        w.node_mut(NodeId(2)).unwrap().leave_topic(t);
        for _ in 0..120 {
            w.run_round();
        }
        assert!(w.node(NodeId(2)).unwrap().topic_subscriber(t).is_none());
        // The stale (re-ordered) Subscribe arrives after the departure.
        w.inject(SUP, TopicMsg { topic: t, msg: Msg::Subscribe { node: NodeId(2) } });
        w.run_round();
        let poisoned = w.node(SUP).unwrap().topic_supervisor(t).unwrap();
        assert!(
            poisoned.database.values().any(|v| *v == Some(NodeId(2))),
            "stale Subscribe must have re-inserted the leaver"
        );
        for _ in 0..200 {
            w.run_round();
        }
        let sup = w.node(SUP).unwrap().topic_supervisor(t).unwrap();
        assert!(
            sup.database.values().all(|v| *v != Some(NodeId(2))),
            "database must drop the departed node again"
        );
        assert_eq!(sup.n(), 3);
        assert!(
            w.node(NodeId(2)).unwrap().topic_subscriber(t).is_none(),
            "the refusal must not resurrect the instance"
        );
    }

    #[test]
    fn departed_client_asks_probing_neighbours_to_forget_it() {
        // The instance is dropped with the departure, so without the
        // tombstone's reply a neighbour that still holds the leaver
        // keeps checking a node that never answers — and the topic
        // stays illegitimate until the round-robin comes by.
        let mut w = multi_world(3, 27);
        let t = TopicId(5);
        for i in 1..=3u64 {
            w.node_mut(NodeId(i)).unwrap().join_topic(t);
        }
        for _ in 0..120 {
            w.run_round();
        }
        w.node_mut(NodeId(2)).unwrap().leave_topic(t);
        for _ in 0..120 {
            w.run_round();
        }
        assert!(w.node(NodeId(2)).unwrap().topic_subscriber(t).is_none());
        let stale = NodeRef::new("1".parse().unwrap(), NodeId(2));
        let prober = NodeRef::new("0".parse().unwrap(), NodeId(1));
        w.node_mut(NodeId(1))
            .unwrap()
            .topic_subscriber_mut(t)
            .unwrap()
            .left = Some(stale);
        let probes = [
            Msg::Check {
                sender: prober,
                assumed: stale.label,
                cyc: false,
            },
            Msg::CheckShortcut {
                sender: prober,
                assumed: stale.label,
            },
            Msg::Intro {
                node: prober,
                cyc: false,
            },
            Msg::IntroduceShortcut { node: prober },
        ];
        for msg in probes {
            let sent = skippub_sim::testing::run_handler(NodeId(2), 1, |ctx| {
                let mut leaver = w.node(NodeId(2)).unwrap().clone();
                leaver.on_message(ctx, TopicMsg { topic: t, msg });
            });
            assert_eq!(sent.len(), 1);
            assert_eq!(sent[0].0, NodeId(1));
            assert!(matches!(
                sent[0].1,
                TopicMsg {
                    topic,
                    msg: Msg::RemoveConnections { node: NodeId(2) }
                } if topic == t
            ));
        }
        // End to end: node 1's corrupted edge is gone two rounds later.
        w.run_round();
        w.run_round();
        let left = w.node(NodeId(1)).unwrap().topic_subscriber(t).unwrap().left;
        assert!(left.is_none_or(|l| l.id != NodeId(2)));
    }

    #[test]
    fn unjoined_topic_messages_are_consumed() {
        let mut w = multi_world(1, 23);
        w.inject(
            NodeId(1),
            TopicMsg {
                topic: TopicId(77),
                msg: Msg::SetData {
                    pred: None,
                    label: None,
                    succ: None,
                },
            },
        );
        w.run_round();
        assert!(w
            .node(NodeId(1))
            .unwrap()
            .topic_subscriber(TopicId(77))
            .is_none());
    }
}
