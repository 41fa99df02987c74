//! [`World`]: the simulated system — one or more slab partitions
//! stepped by a **deterministic parallel round executor**.
//!
//! # Engine layout
//!
//! The stepping core lives in the partition-generic engine
//! ([`crate::engine`]): each partition keeps its nodes in a **slab** — a
//! dense `Vec` of slots plus an id → slot hash map (deterministic
//! FxHash) and a free list. Crashes tombstone the slot; rejoins reuse
//! free slots. Message delivery, routing and timeout firing therefore
//! cost one O(1) map probe plus an array index.
//!
//! # One partition: the serial world
//!
//! [`World::new`] is one partition on the raw seed. A world of one
//! partition is **local-only**: no sibling can host an id the partition
//! does not, so a send or inject to an unhosted id is the partition's
//! own §3.3 drop, before the fault plane sees it
//! (`tests/determinism_fixtures.rs` pins this under a fault storm that
//! names dead ids). [`World::partitioned`] splits the system into `k`
//! partitions on derived seeds (below); placement is the caller's
//! policy ([`World::add_node_in`]).
//!
//! # Why rounds are an exact parallelism barrier
//!
//! The paper's execution model is synchronous-round based: in one
//! "timeout interval" every node processes the messages that were in
//! its channel *at activation* and fires `Timeout` once; everything it
//! sends is handled no earlier than the next round at a remote node.
//! Partition the nodes, and a round factorizes: intra-partition
//! scheduling touches only the partition's own slab and RNG stream,
//! while every cross-partition message crosses a round boundary anyway.
//! Stepping partitions concurrently therefore yields **bit-identical
//! results for any worker count** — the only sharing is the mailbox
//! hand-off, and that is ordered canonically (below).
//!
//! # The round protocol
//!
//! Each round runs in two phases separated by barriers:
//!
//! 1. **drain** — every partition takes its inbound mailbox, sorts the
//!    batch by `(source partition, sequence number)`, and appends the
//!    envelopes to the destination nodes' channels. The sort makes the
//!    hand-off independent of which worker pushed first.
//! 2. **step + flush** — every partition runs one round on its own
//!    slab/RNG (sends to local nodes go straight to channels; sends to
//!    foreign ids are staged in the partition's outbox), then flushes
//!    the outbox: each staged send becomes an `Envelope` stamped with
//!    the source partition and a monotone per-source sequence number and
//!    is pushed to the destination partition's mailbox.
//!
//! The barrier between the phases keeps round `r` drains from racing
//! round `r` flushes; the barrier at the end of the round keeps round
//! `r` flushes from racing round `r+1` drains.
//!
//! # RNG stream splitting
//!
//! In a [`World::partitioned`] world, partition `i` owns
//! `StdRng::seed_from_u64(splitmix64(seed, i))` — an independent stream
//! derived from the world seed by a SplitMix64 finalizer, so partition
//! executions are deterministic functions of `(seed, partition count)`
//! and entirely independent of the worker count. Worker threads only
//! decide *which CPU* steps a partition, never *what* it computes.
//!
//! # Determinism
//!
//! Within a partition all randomness flows through its one seeded
//! [`StdRng`](rand::rngs::StdRng): the activation shuffle over id-sorted
//! live nodes, the inbox shuffle, chaos delivery draws and handler
//! draws, in exactly the order the original `BTreeMap` engine consumed
//! them, so a seed reproduces byte-identical [`Metrics`] across engine
//! versions — see `tests/determinism_fixtures.rs`.
//!
//! # Zero-allocation invariant
//!
//! Steady-state rounds perform **no heap allocation in the engine**:
//! the activation order, each node's drained inbox, the chaos `kept`
//! buffer, every handler outbox and the inbound envelope batch are
//! reusable scratch buffers owned by the partition, rotated with
//! `mem::take`/`mem::swap` so their capacities persist across rounds,
//! and channel segments come from the partition's message pool, whose
//! spares outlive the channels that drained them. What a burst grew
//! beyond twice what the load of a trim period uses is handed back at
//! the period's end, so a load that recurs allocates nothing
//! (`crate::engine` module docs; `tests/channel_memory.rs` holds both).
//! (Protocol handlers may of course still allocate in their own state.)
//! `tests/zero_alloc.rs` guards this with a counting allocator.
//!
//! # Checkpoints
//!
//! A world whose protocol and messages implement [`Snap`] is itself
//! [`Snap`]: the save borrows every part of the world — no protocol
//! state, channel or mailbox is copied first — and the load builds the
//! partitions straight from the tokens. A restored world **continues
//! byte-identically**: same RNG draws, same activation shuffles, same
//! metrics, same message trajectories. The checkpoint holds exactly
//! what influences future behavior: per partition the live nodes in
//! ascending id order with their channels (message ages included), the
//! RNG state words, every engine register, the metrics in intern order
//! and the armed fault plane; then the mailboxes' envelopes, the worker
//! count, the round and the orphan-inject metrics. Slab slots,
//! tombstones, free lists, the id → partition home map and the
//! dirty-channel counters are not in it: the home map is "which
//! partition lists the id", and nothing a round does reads the rest
//! (an observer keyed on the counters restarts cold with them).

use crate::engine::{Envelope, Partition};
use crate::fx::FxBuildHasher;
use crate::{ChaosConfig, Ctx, Metrics, NodeId, Protocol};
use skippub_snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};

/// Derives partition `i`'s RNG stream seed from the world seed
/// (SplitMix64 finalizer over `seed ⊕ (i+1)·φ`).
fn split_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulated distributed system: one or more partitions, stepped by
/// the deterministic parallel round executor (module docs).
///
/// Node placement is the caller's policy: [`World::add_node_in`] takes
/// an explicit partition index (the sharded backend co-locates each
/// shard supervisor with its topics' clients). Results are
/// byte-identical for every `threads` value, including `1`.
pub struct World<P: Protocol> {
    partitions: Vec<Partition<P>>,
    /// Per-destination-partition inbound envelope queues.
    mailboxes: Vec<Mutex<Vec<Envelope<P::Msg>>>>,
    /// id → hosting partition, for every live node.
    home: HashMap<u64, u32, FxBuildHasher>,
    threads: usize,
    round: u64,
    /// Dirty-channel bumps from external operations (node additions,
    /// crashes, harness-driven calls) — kept world-level so they need
    /// no partition routing; [`World::dirty_version`] sums this table
    /// with every partition's handler-reported bumps.
    external_bumps: crate::DirtyTable,
    /// Accounting for external injects to ids no partition of a
    /// multi-partition world hosts: counted as one send and its
    /// immediate §3.3 drop, as a lone partition counts them, without
    /// charging any partition for a message none hosted.
    orphan: Metrics,
}

impl<P: Protocol> World<P> {
    /// An empty world of one local-only partition whose RNG stream is
    /// `seed` itself (module docs).
    pub fn new(seed: u64) -> Self {
        Self::over(vec![Partition::new(seed, true)], 1)
    }

    /// `partitions` empty partitions with independent RNG streams
    /// derived from `seed`, stepped by up to `threads` workers.
    pub fn partitioned(seed: u64, partitions: usize, threads: usize) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        assert!(threads >= 1, "need at least one worker");
        let local_only = partitions == 1;
        Self::over(
            (0..partitions)
                .map(|i| Partition::new(split_seed(seed, i as u64), local_only))
                .collect(),
            threads,
        )
    }

    /// A world over fresh `partitions` at round 0.
    fn over(partitions: Vec<Partition<P>>, threads: usize) -> Self {
        World {
            mailboxes: partitions.iter().map(|_| Mutex::new(Vec::new())).collect(),
            partitions,
            home: HashMap::default(),
            threads,
            round: 0,
            external_bumps: crate::DirtyTable::default(),
            orphan: Metrics::default(),
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Adds a node to partition 0 (the only one of a [`World::new`]
    /// world). Panics on duplicate IDs: a corrupted *world*, unlike a
    /// corrupted protocol state, is a harness bug.
    pub fn add_node(&mut self, id: NodeId, proto: P) {
        self.add_node_in(id, proto, 0);
    }

    /// Adds a node to `partition`. Panics on duplicate IDs (across all
    /// partitions) or an out-of-range partition.
    pub fn add_node_in(&mut self, id: NodeId, proto: P, partition: u32) {
        assert!(
            (partition as usize) < self.partitions.len(),
            "partition {partition} out of range"
        );
        assert!(
            !self.home.contains_key(&id.0),
            "duplicate node {id}"
        );
        self.partitions[partition as usize].add_node(id, proto);
        self.home.insert(id.0, partition);
    }

    /// The partition hosting `id`, if alive.
    pub fn partition_of(&self, id: NodeId) -> Option<u32> {
        self.home.get(&id.0).copied()
    }

    /// Crashes a node without warning (§3.3). Envelopes already in
    /// flight to it are consumed at the destination partition's next
    /// drain.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(p) = self.home.remove(&id.0) {
            self.partitions[p as usize].crash(id);
        }
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.home.contains_key(&id.0)
    }

    /// Number of live nodes across all partitions.
    pub fn len(&self) -> usize {
        self.home.len()
    }

    /// Whether no nodes are alive.
    pub fn is_empty(&self) -> bool {
        self.home.is_empty()
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        let p = self.partition_of(id)?;
        self.partitions[p as usize].node(id)
    }

    /// Mutable access to a node's protocol state.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        let p = self.partition_of(id)?;
        self.partitions[p as usize].node_mut(id)
    }

    /// IDs of all live nodes, ascending.
    pub fn ids(&self) -> Vec<NodeId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// Iterates `(id, state)` of live nodes in ascending id order — a
    /// k-way merge over the partitions' sorted orders.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &P)> {
        Merged {
            parts: self.partitions.iter().map(|p| (p, 0usize)).collect(),
        }
    }

    /// Injects a message from outside the system into `to`'s channel
    /// (external requests, or corrupted initial channel content). An
    /// inject to an id no partition hosts counts as one send of its
    /// kind, immediately dropped (§3.3) — by a lone local-only
    /// partition itself.
    pub fn inject(&mut self, to: NodeId, msg: P::Msg) {
        match self.partition_of(to) {
            Some(p) => self.partitions[p as usize].inject(to, msg),
            None if self.partitions.len() == 1 => self.partitions[0].inject(to, msg),
            None => {
                self.orphan.note_sent(to, P::msg_kind(&msg));
                self.orphan.dropped += 1;
            }
        }
    }

    /// Drives node `id` as if it acted locally (subscribe/publish calls):
    /// runs `f` with its state and a context, routes local sends, and
    /// immediately routes cross-partition sends into the destination
    /// mailboxes (delivered from the next round on, exactly like a
    /// local channel push). Returns `None` if the node does not exist.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        let p = self.partition_of(id)?;
        let r = self.partitions[p as usize].with_node(id, f);
        self.partitions[p as usize].flush_outbox(p, &self.home, &self.mailboxes);
        r
    }

    /// Number of in-flight messages in `id`'s channel.
    pub fn channel_len(&self, id: NodeId) -> usize {
        self.partition_of(id)
            .map_or(0, |p| self.partitions[p as usize].channel_len(id))
    }

    /// The messages in `id`'s channel, in channel order (none for an id
    /// no partition hosts).
    pub fn channel(&self, id: NodeId) -> impl Iterator<Item = &P::Msg> {
        let p = self.partition_of(id).map(|p| &self.partitions[p as usize]);
        p.into_iter().flat_map(move |p| p.channel(id))
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current version of dirty channel `key`: the sum of every
    /// partition's handler-reported bumps plus the external-operation
    /// bumps. A sum of monotone counters is monotone, and it moves iff
    /// some component moved, which is all observers rely on. Never
    /// allocates.
    pub fn dirty_version(&self, key: u32) -> u64 {
        let mut v = self.external_bumps.version(key);
        for p in &self.partitions {
            v += p.dirty().version(key);
        }
        v
    }

    /// Bumps dirty channel `key` from outside the protocol — the hook
    /// for external operations (join/leave/crash/publish calls) that
    /// change observable state without a handler running.
    pub fn bump_dirty(&mut self, key: u32) {
        self.external_bumps.bump(key);
    }

    /// Total in-flight messages: channel contents plus mailbox envelopes.
    pub fn in_flight(&self) -> usize {
        let channels: usize = self.partitions.iter().map(|p| p.in_flight()).sum();
        let boxed: usize = self
            .mailboxes
            .iter()
            .map(|m| m.lock().expect("mailbox poisoned").len())
            .sum();
        channels + boxed
    }

    /// High-water mark of channel segment storage, in bytes: the sum of
    /// every partition's own peak, like [`World::peak_in_flight`].
    pub fn peak_channel_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.peak_channel_bytes()).sum()
    }

    /// High-water mark of in-flight messages: the sum of every
    /// partition's own peak (each sampled at its round starts, after the
    /// mailbox drain). An upper bound on the true simultaneous peak that
    /// is deterministic for every thread count — sampling a global
    /// maximum mid-round would race the workers.
    pub fn peak_in_flight(&self) -> usize {
        self.partitions.iter().map(|p| p.peak_in_flight()).sum()
    }

    /// Partition `i`'s own in-flight high-water mark.
    pub fn partition_peak_in_flight(&self, i: usize) -> usize {
        self.partitions[i].peak_in_flight()
    }

    /// Arms (or disarms) the link-fault plane on every partition.
    /// Window offsets in `spec` are relative to the **current round**
    /// (the arming base). Each partition derives its own fault streams
    /// from `(spec seed, partition index)`, so outcomes are
    /// byte-identical for every worker-thread count.
    pub fn set_faults(&mut self, spec: Option<crate::FaultSpec>) {
        for (i, p) in self.partitions.iter_mut().enumerate() {
            p.set_faults(spec.clone(), i as u32);
        }
    }

    /// The armed fault spec, if any.
    pub fn fault_spec(&self) -> Option<&crate::FaultSpec> {
        self.partitions.first().and_then(|p| p.fault_spec())
    }

    /// Aggregated fault accounting over all partitions (zeros when no
    /// plane is armed).
    pub fn fault_counts(&self) -> crate::FaultCounts {
        let mut agg = crate::FaultCounts::default();
        for p in &self.partitions {
            agg.merge(&p.fault_counts());
        }
        agg
    }

    /// Partition `i`'s own fault accounting.
    pub fn partition_fault_counts(&self, i: usize) -> crate::FaultCounts {
        self.partitions[i].fault_counts()
    }

    /// Index of the first sever window active at the current round
    /// that contains `id` — the hook backends watch to turn a
    /// scheduled partition into a supervisor failover. Every partition
    /// shares the same spec and base, so partition 0 answers for all.
    pub fn active_sever_containing(&self, id: NodeId) -> Option<usize> {
        self.partitions
            .first()
            .and_then(|p| p.active_sever_containing(id))
    }

    /// Partition `i`'s own cumulative metrics.
    pub fn partition_metrics(&self, i: usize) -> &Metrics {
        self.partitions[i].metrics()
    }

    /// Cumulative cross-partition envelopes emitted by partition `i`.
    pub fn cross_envelopes(&self, i: usize) -> u64 {
        self.partitions[i].cross_sent()
    }

    /// Cumulative node activations in partition `i` — live slots visited
    /// by rounds. Together with delivered counts this is the
    /// per-partition *work* gauge behind the imbalance metrics.
    pub fn partition_stepped(&self, i: usize) -> u64 {
        self.partitions[i].stepped()
    }

    /// Cumulative mailbox lock acquisitions charged to partition `i`:
    /// one per inbound drain plus one per non-empty destination batch it
    /// flushed. Data-determined, so identical for every thread count.
    pub fn partition_lock_acquisitions(&self, i: usize) -> u64 {
        self.partitions[i].lock_acquisitions()
    }

    /// Total mailbox lock acquisitions across all partitions. Bounded
    /// by `(1 + partitions) · partitions · rounds` in the worst case —
    /// per round each partition takes one drain lock and at most one
    /// flush lock per destination — instead of one lock per envelope.
    pub fn lock_acquisitions(&self) -> u64 {
        self.partitions.iter().map(|p| p.lock_acquisitions()).sum()
    }

    /// Aggregated metrics over all partitions: totals, per-kind and
    /// per-node counters are summed (plus the orphan-inject bucket, so
    /// totals match a one-partition world fed the same op sequence); `rounds`
    /// is the world's round count, not the sum — every partition steps
    /// every round.
    pub fn metrics(&self) -> Metrics {
        let mut agg = Metrics::default();
        for p in &self.partitions {
            agg.merge(p.metrics());
        }
        agg.merge(&self.orphan);
        agg.rounds = self.round;
        agg
    }

    /// Capacity reserved by the engine's scratch buffers, summed over
    /// partitions — `(order, inbox, kept, out)`. Test hook for the
    /// zero-allocation invariant: steady-state rounds must not grow
    /// these.
    #[doc(hidden)]
    pub fn scratch_capacities(&self) -> (usize, usize, usize, usize) {
        self.partitions.iter().fold((0, 0, 0, 0), |acc, p| {
            let c = p.scratch_capacities();
            (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2, acc.3 + c.3)
        })
    }
}

impl<P: Protocol + Send> World<P>
where
    P::Msg: Send,
{
    /// One **synchronous round** — the paper's §3.3 "timeout interval":
    /// every live node, in random order, first processes (in random
    /// order) all messages that were in its channel when it was
    /// activated, then executes `Timeout` exactly once. Messages a node
    /// sends while processing are handled next round. It is the chaos
    /// round under [`ChaosConfig::SYNCHRONOUS`]; results are identical
    /// for every `threads` setting.
    pub fn run_round(&mut self) {
        self.run_rounds(1);
    }

    /// Runs `n` synchronous rounds: [`World::run_chaos_rounds`] under
    /// [`ChaosConfig::SYNCHRONOUS`].
    pub fn run_rounds(&mut self, n: u64) {
        self.run_chaos_rounds(n, ChaosConfig::SYNCHRONOUS);
    }

    /// One **chaos round**: every node, in random order, delivers a
    /// random subset of its channel — each message independently with
    /// probability [`ChaosConfig::delivery_prob`], *forced* once its age
    /// exceeds [`ChaosConfig::max_age`] (the paper's fair message
    /// receipt: unbounded but finite delay) — and fires `Timeout` with
    /// probability [`ChaosConfig::timeout_prob`] (weak fairness comes
    /// from infinitely many rounds).
    pub fn run_chaos_round(&mut self, cfg: ChaosConfig) {
        self.run_chaos_rounds(1, cfg);
    }

    /// Runs synchronous rounds until `pred(self)` holds or `max_rounds`
    /// elapse; returns the number of rounds executed and whether the
    /// predicate held.
    pub fn run_until(&mut self, max_rounds: u64, pred: impl FnMut(&Self) -> bool) -> (u64, bool) {
        self.run_chaos_until(ChaosConfig::SYNCHRONOUS, max_rounds, pred)
    }

    /// Chaos-round variant of [`World::run_until`].
    pub fn run_chaos_until(
        &mut self,
        cfg: ChaosConfig,
        max_rounds: u64,
        mut pred: impl FnMut(&Self) -> bool,
    ) -> (u64, bool) {
        for i in 0..max_rounds {
            if pred(self) {
                return (i, true);
            }
            self.run_chaos_round(cfg);
        }
        (max_rounds, pred(self))
    }

    /// Runs `n` rounds in which every partition steps one chaos round
    /// under `cfg` (see [`World::run_chaos_round`]). With `threads > 1`
    /// the worker scope is spawned once for the whole batch, so driving
    /// the world in batches amortizes thread start-up; single-round
    /// calls remain correct (and remain deterministic) either way.
    pub fn run_chaos_rounds(&mut self, n: u64, cfg: ChaosConfig) {
        if n == 0 {
            return;
        }
        let workers = self.threads.min(self.partitions.len()).max(1);
        if workers == 1 {
            for _ in 0..n {
                for (i, p) in self.partitions.iter_mut().enumerate() {
                    p.drain_inbound(&self.mailboxes[i]);
                }
                for (i, p) in self.partitions.iter_mut().enumerate() {
                    p.run_chaos_round(cfg);
                    p.flush_outbox(i as u32, &self.home, &self.mailboxes);
                }
            }
        } else {
            let chunk = self.partitions.len().div_ceil(workers);
            let nchunks = self.partitions.len().div_ceil(chunk);
            let barrier = Barrier::new(nchunks);
            let home = &self.home;
            let mailboxes = &self.mailboxes;
            std::thread::scope(|s| {
                for (ci, parts) in self.partitions.chunks_mut(chunk).enumerate() {
                    let barrier = &barrier;
                    let base = ci * chunk;
                    s.spawn(move || {
                        for _ in 0..n {
                            for (j, p) in parts.iter_mut().enumerate() {
                                p.drain_inbound(&mailboxes[base + j]);
                            }
                            barrier.wait();
                            for (j, p) in parts.iter_mut().enumerate() {
                                p.run_chaos_round(cfg);
                                p.flush_outbox((base + j) as u32, home, mailboxes);
                            }
                            barrier.wait();
                        }
                    });
                }
            });
        }
        self.round += n;
    }
}

/// The world checkpoint: every partition (its live nodes with their
/// protocol states and channels, RNG words, registers, metrics and
/// fault plane), the mailboxes' envelopes, the worker count, the round
/// and the orphan-inject metrics. A loaded world continues
/// byte-identically for every worker count. Save at a round boundary
/// only: partition outboxes are flushed there, while mailboxes may hold
/// envelopes in flight, which the checkpoint keeps. A stream no world
/// could have written is an `Err`: no partition, a mailbox count other
/// than the partition count, an id hosted twice, an envelope from a
/// partition that does not exist, or an all-zero RNG state.
impl<P> Snap for World<P>
where
    P: Protocol + Snap,
    P::Msg: Snap,
{
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.partitions.len() as u64);
        for p in &self.partitions {
            p.save(w);
        }
        w.put_u64(self.mailboxes.len() as u64);
        for m in &self.mailboxes {
            w.put_seq(m.lock().expect("mailbox poisoned").iter());
        }
        w.put_u64(self.threads as u64);
        w.put_u64(self.round);
        self.orphan.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let bad = |why: String| Err(SnapError::Malformed(format!("world state {why}")));
        let k = r.u64()? as usize;
        if k == 0 {
            return bad("has no partition".to_string());
        }
        let mut partitions = Vec::new();
        let mut home: HashMap<u64, u32, FxBuildHasher> = HashMap::default();
        for i in 0..k {
            let p = Partition::load(r, k == 1)?;
            for &(id, _) in p.order() {
                if home.insert(id, i as u32).is_some() {
                    return bad(format!("hosts node {} twice", NodeId(id)));
                }
            }
            partitions.push(p);
        }
        let boxes = r.u64()?;
        if boxes != k as u64 {
            return bad(format!("has {boxes} mailboxes for {k} partitions"));
        }
        let mut mailboxes = Vec::with_capacity(k);
        for _ in 0..k {
            let mut batch = Vec::new();
            for _ in 0..r.u64()? {
                let env: Envelope<P::Msg> = Snap::load(r)?;
                if env.src as usize >= k {
                    return bad(format!(
                        "holds an envelope from partition {} of {k}",
                        env.src
                    ));
                }
                batch.push(env);
            }
            mailboxes.push(Mutex::new(batch));
        }
        Ok(World {
            partitions,
            mailboxes,
            home,
            threads: (r.u64()? as usize).max(1),
            round: r.u64()?,
            external_bumps: crate::DirtyTable::default(),
            orphan: Metrics::load(r)?,
        })
    }
}

/// Ascending-id k-way merge over partitions' sorted node orders.
struct Merged<'a, P: Protocol> {
    /// `(partition, cursor into its order slice)` per partition.
    parts: Vec<(&'a Partition<P>, usize)>,
}

impl<'a, P: Protocol> Iterator for Merged<'a, P> {
    type Item = (NodeId, &'a P);

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(usize, u64)> = None;
        for (k, (p, c)) in self.parts.iter().enumerate() {
            if let Some(&(id, _)) = p.order().get(*c) {
                if best.is_none_or(|(_, bid)| id < bid) {
                    best = Some((k, id));
                }
            }
        }
        let (k, _) = best?;
        let (p, c) = &mut self.parts[k];
        let (id, s) = p.order()[*c];
        *c += 1;
        Some((NodeId(id), p.proto_at(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy protocol: forwards a token along `next`, counts everything.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Toy {
        next: NodeId,
        tokens_seen: u64,
        timeouts: u64,
    }

    #[derive(Clone, Debug)]
    struct Token(u32);

    impl Protocol for Toy {
        type Msg = Token;

        fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, msg: Token) {
            self.tokens_seen += 1;
            if msg.0 > 0 {
                ctx.send(self.next, Token(msg.0 - 1));
            }
        }

        fn on_timeout(&mut self, _ctx: &mut Ctx<'_, Token>) {
            self.timeouts += 1;
        }

        fn msg_kind(_: &Token) -> &'static str {
            "token"
        }
    }

    fn toy(next: u64) -> Toy {
        Toy {
            next: NodeId(next),
            tokens_seen: 0,
            timeouts: 0,
        }
    }

    /// `n` nodes in a ring, node `i` in partition `i % k`: every hop
    /// crosses a partition boundary (for `k > 1`).
    fn ring(n: u64, k: usize, threads: usize, seed: u64) -> World<Toy> {
        let mut w = World::partitioned(seed, k, threads);
        for i in 0..n {
            w.add_node_in(NodeId(i), toy((i + 1) % n), (i % k as u64) as u32);
        }
        w
    }

    /// `n` nodes in a ring in a [`World::new`] world.
    fn serial_ring(n: u64, seed: u64) -> World<Toy> {
        let mut w = World::new(seed);
        for i in 0..n {
            w.add_node(NodeId(i), toy((i + 1) % n));
        }
        w
    }

    #[test]
    fn timeouts_fire_every_round() {
        let mut w = serial_ring(3, 2);
        for _ in 0..10 {
            w.run_round();
        }
        for (_, t) in w.iter() {
            assert_eq!(t.timeouts, 10);
        }
        assert_eq!(w.metrics().rounds, 10);
    }

    #[test]
    fn chaos_mode_eventually_delivers_everything() {
        let mut w = serial_ring(6, 3);
        for _ in 0..20 {
            w.inject(NodeId(2), Token(0));
        }
        assert_eq!(w.peak_in_flight(), 0, "peak samples at round starts");
        let cfg = ChaosConfig {
            delivery_prob: 0.2,
            timeout_prob: 0.3,
            max_age: 5,
        };
        let (_, done) = w.run_chaos_until(cfg, 200, |w| {
            w.node(NodeId(2)).map(|t| t.tokens_seen) == Some(20)
        });
        assert!(done, "fair receipt must deliver all tokens");
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.peak_in_flight(), 20, "peak is a high-water mark");
    }

    #[test]
    fn crash_consumes_messages_silently() {
        let mut w = serial_ring(3, 4);
        w.crash(NodeId(1));
        assert!(!w.is_alive(NodeId(1)));
        w.inject(NodeId(1), Token(0));
        assert!(w.metrics().dropped >= 1);
        // A token routed through the crashed node dies there.
        w.inject(NodeId(0), Token(5));
        for _ in 0..10 {
            w.run_round();
        }
        let total: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert_eq!(
            total, 1,
            "only node 0 sees the token before it hits the crash"
        );
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut w = serial_ring(4, 6);
        let (rounds, ok) = w.run_until(50, |w| w.round() >= 7);
        assert!(ok);
        assert_eq!(rounds, 7);
    }

    #[test]
    fn rejoin_after_crash_allowed() {
        let mut w = serial_ring(2, 8);
        w.crash(NodeId(0));
        w.add_node(NodeId(0), toy(1));
        assert!(w.is_alive(NodeId(0)));
    }

    #[test]
    fn rejoin_reuses_tombstoned_slot_and_continues_metrics() {
        let mut w = serial_ring(3, 9);
        w.inject(NodeId(1), Token(0));
        w.run_round();
        let sent_before = w.metrics().sent_by(NodeId(1));
        w.crash(NodeId(1));
        w.add_node(NodeId(1), toy(2));
        // Same slot count as before the crash: tombstone was reused.
        assert_eq!(w.len(), 3);
        w.inject(NodeId(1), Token(0));
        w.run_round();
        assert_eq!(w.node(NodeId(1)).unwrap().tokens_seen, 1);
        // Per-id counters continued, not reset.
        assert!(w.metrics().sent_by(NodeId(1)) >= sent_before);
    }

    #[test]
    fn scratch_capacities_survive_rounds() {
        // The full zero-allocation invariant is asserted with a counting
        // allocator in tests/zero_alloc.rs; here just check the scratch
        // buffers exist and hold their capacity across empty rounds.
        let mut w = serial_ring(16, 10);
        w.run_round();
        let warmed = w.scratch_capacities();
        assert!(warmed.0 >= 16, "order scratch must hold all nodes");
        for _ in 0..50 {
            w.run_round();
        }
        assert_eq!(w.scratch_capacities(), warmed);
    }

    #[test]
    fn cross_partition_token_is_delivered_exactly_ttl_plus_one_times() {
        let mut w = ring(12, 4, 2, 3);
        w.inject(NodeId(0), Token(25));
        for _ in 0..60 {
            w.run_round();
        }
        let total: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert_eq!(total, 26);
        let crossed: u64 = (0..4).map(|i| w.cross_envelopes(i)).sum();
        assert!(crossed >= 25, "ring hops must cross partitions");
        assert_eq!(w.metrics().kind("token"), 26);
    }

    #[test]
    fn results_are_identical_for_every_thread_count() {
        let run = |threads: usize| {
            let mut w = ring(24, 6, threads, 7);
            w.inject(NodeId(5), Token(200));
            w.run_rounds(80);
            let states: Vec<(NodeId, Toy)> = w.iter().map(|(id, t)| (id, t.clone())).collect();
            let per_part: Vec<Metrics> = (0..6).map(|i| w.partition_metrics(i).clone()).collect();
            let peaks: Vec<usize> = (0..6).map(|i| w.partition_peak_in_flight(i)).collect();
            let locks: Vec<u64> = (0..6).map(|i| w.partition_lock_acquisitions(i)).collect();
            let stepped: Vec<u64> = (0..6).map(|i| w.partition_stepped(i)).collect();
            (
                states,
                per_part,
                peaks,
                locks,
                stepped,
                w.peak_in_flight(),
                w.metrics(),
            )
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn batched_flush_takes_at_most_partitions_squared_locks_per_round() {
        // Every ring hop crosses a partition boundary, so the old
        // per-envelope locking would take ~1 lock per delivered token
        // hop; the batched flush must stay within the structural bound
        // of (drains + pairwise flushes) per round. Two long-lived
        // tokens per node keep ~48 envelopes crossing every round.
        let mut w = ring(24, 6, 2, 7);
        for i in 0..24 {
            w.inject(NodeId(i), Token(10_000));
            w.inject(NodeId(i), Token(10_000));
        }
        let rounds = 80u64;
        w.run_rounds(rounds);
        let locks = w.lock_acquisitions();
        let parts = w.partition_count() as u64;
        // Per round: one drain lock per partition plus at most one
        // flush lock per ordered partition pair.
        let bound = rounds * (parts + parts * parts);
        assert!(
            locks <= bound,
            "lock acquisitions {locks} exceed structural bound {bound}"
        );
        // And the batching must actually beat per-envelope locking.
        let envelopes: u64 = (0..6).map(|i| w.cross_envelopes(i)).sum();
        assert!(
            locks < envelopes,
            "batched flush ({locks} locks) must undercut per-envelope \
             locking ({envelopes} envelopes)"
        );
    }

    #[test]
    fn single_round_stepping_equals_batched_stepping() {
        let mut a = ring(10, 3, 4, 11);
        let mut b = ring(10, 3, 4, 11);
        a.inject(NodeId(0), Token(40));
        b.inject(NodeId(0), Token(40));
        for _ in 0..30 {
            a.run_round();
        }
        b.run_rounds(30);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.round(), b.round());
    }

    #[test]
    fn crash_consumes_in_flight_envelopes() {
        let mut w = ring(6, 3, 2, 13);
        w.inject(NodeId(0), Token(30));
        w.run_round();
        // Node 1 (partition 1) has an envelope in flight; crash it.
        w.crash(NodeId(1));
        assert!(!w.is_alive(NodeId(1)));
        let before = w.len();
        for _ in 0..20 {
            w.run_round();
        }
        assert_eq!(w.len(), before);
        // The token died at the crash; nobody past node 0 saw it twice.
        let total: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert!(total <= 2, "token must stop at the crashed hop");
        assert!(w.metrics().dropped >= 1);
    }

    #[test]
    fn with_node_routes_across_partitions() {
        let mut w = ring(4, 2, 1, 17);
        // Node 0 (partition 0) sends to node 1 (partition 1) outside a
        // round: the envelope must arrive with one round of latency.
        w.with_node(NodeId(0), |_t, ctx| ctx.send(NodeId(1), Token(0)))
            .unwrap();
        assert_eq!(w.in_flight(), 1);
        w.run_round();
        assert_eq!(w.node(NodeId(1)).unwrap().tokens_seen, 1);
    }

    #[test]
    fn inject_to_unknown_id_counts_like_one_partition() {
        let mut w = ring(4, 2, 1, 19);
        let before = w.metrics();
        w.inject(NodeId(99), Token(0));
        let after = w.metrics();
        // A lone partition counts an inject to a dead id as a send (and
        // its kind) before dropping it; two partitions must agree.
        assert_eq!(after.dropped, before.dropped + 1);
        assert_eq!(after.sent_total, before.sent_total + 1);
        assert_eq!(after.kind("token"), before.kind("token") + 1);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn duplicate_across_partitions_panics() {
        let mut w = ring(4, 2, 1, 23);
        w.add_node_in(NodeId(0), toy(0), 1);
    }

    #[test]
    fn iter_merges_partitions_in_id_order() {
        let w = ring(9, 4, 1, 29);
        let ids: Vec<u64> = w.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..9).collect::<Vec<u64>>());
        assert_eq!(w.ids().len(), 9);
        assert_eq!(w.partition_of(NodeId(5)), Some(1));
    }

    fn storm_spec() -> crate::FaultSpec {
        crate::FaultSpec {
            seed: 77,
            rules: vec![
                crate::FaultRule {
                    from_round: 5,
                    to_round: 30,
                    link: crate::LinkClass::All,
                    drop: 0.2,
                    dup: 0.1,
                    delay: 0.15,
                    delay_rounds: 2,
                    reorder: 0.1,
                    reorder_max: 3,
                },
                crate::FaultRule {
                    drop: 0.5,
                    ..crate::FaultRule::pass(10, 20, crate::LinkClass::Cross { src: 0, dst: 1 })
                },
            ],
            severs: vec![crate::Sever {
                from_round: 12,
                to_round: 18,
                group: vec![2, 3],
            }],
        }
    }

    #[test]
    fn faulted_results_are_identical_for_every_thread_count() {
        let run = |threads: usize| {
            let mut w = ring(24, 6, threads, 7);
            w.set_faults(Some(storm_spec()));
            w.inject(NodeId(5), Token(400));
            w.inject(NodeId(11), Token(400));
            w.run_rounds(80);
            let states: Vec<(NodeId, Toy)> = w.iter().map(|(id, t)| (id, t.clone())).collect();
            let per_part: Vec<crate::FaultCounts> =
                (0..6).map(|i| w.partition_fault_counts(i)).collect();
            (
                states,
                per_part,
                w.fault_counts(),
                w.metrics(),
                w.in_flight(),
            )
        };
        let reference = run(1);
        let total = reference.2;
        assert!(
            total.dropped_by_fault > 0
                && total.duplicated > 0
                && total.delayed > 0
                && total.reordered > 0,
            "storm spec must exercise every fault kind: {total:?}"
        );
        // Per-partition counts must sum to the aggregate.
        let mut summed = crate::FaultCounts::default();
        for c in &reference.1 {
            summed.merge(c);
        }
        assert_eq!(summed, total);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads} diverged");
        }
    }

    /// Arming an *empty* spec must not perturb anything: fault streams
    /// are separate from the protocol RNG and a no-match lookup
    /// consumes no draws.
    #[test]
    fn empty_fault_plane_is_byte_identical_to_no_plane() {
        let run = |armed: bool| {
            let mut w = ring(12, 3, 2, 9);
            if armed {
                w.set_faults(Some(crate::FaultSpec::default()));
            }
            w.inject(NodeId(0), Token(60));
            w.run_rounds(40);
            let states: Vec<(NodeId, Toy)> = w.iter().map(|(id, t)| (id, t.clone())).collect();
            (states, w.metrics())
        };
        assert_eq!(run(true), run(false));
    }

    /// A `drop: 1.0` rule on a group's boundary edge set is
    /// byte-identical to the equivalent scheduled sever: both consume
    /// zero draws and drop at the same sender-side point.
    #[test]
    fn full_drop_group_rule_equals_scheduled_sever() {
        let group = vec![1u64, 2, 4];
        let run = |spec: crate::FaultSpec| {
            let mut w = ring(12, 4, 2, 21);
            w.set_faults(Some(spec));
            w.inject(NodeId(0), Token(500));
            w.inject(NodeId(6), Token(500));
            w.run_rounds(50);
            let states: Vec<(NodeId, Toy)> = w.iter().map(|(id, t)| (id, t.clone())).collect();
            (states, w.metrics(), w.fault_counts())
        };
        let as_rule = run(crate::FaultSpec {
            seed: 3,
            rules: vec![crate::FaultRule {
                drop: 1.0,
                ..crate::FaultRule::pass(10, 25, crate::LinkClass::Group(group.clone()))
            }],
            severs: vec![],
        });
        let as_sever = run(crate::FaultSpec {
            seed: 3,
            rules: vec![],
            severs: vec![crate::Sever {
                from_round: 10,
                to_round: 25,
                group,
            }],
        });
        assert_eq!(as_rule, as_sever);
        assert!(as_rule.2.dropped_by_fault > 0, "the window must bite");
    }

    /// Pure delay (probability 1) holds every message but loses none:
    /// the token still makes all its hops, just later, and held
    /// messages count as in flight until released.
    #[test]
    fn full_delay_releases_everything_and_counts_in_flight() {
        let mut w = ring(6, 3, 2, 33);
        w.set_faults(Some(crate::FaultSpec {
            seed: 1,
            rules: vec![crate::FaultRule {
                delay: 1.0,
                delay_rounds: 4,
                ..crate::FaultRule::pass(0, 400, crate::LinkClass::All)
            }],
            severs: vec![],
        }));
        w.inject(NodeId(0), Token(10));
        w.run_rounds(3);
        assert!(w.in_flight() > 0, "held messages are still in flight");
        w.run_rounds(120);
        let total: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert_eq!(total, 11, "delay must not lose hops");
        assert_eq!(w.in_flight(), 0);
        let c = w.fault_counts();
        assert_eq!(c.delayed, 10, "every forwarded hop was delayed: {c:?}");
        assert_eq!(c.dropped_by_fault, 0);
    }

    /// A sever window cuts boundary traffic while it is open and heals
    /// after: a token that must cross the cut stalls during the window
    /// (dropped hops) but post-heal traffic flows again.
    #[test]
    fn sever_window_cuts_then_heals() {
        let mut w = ring(4, 2, 1, 55);
        w.set_faults(Some(crate::FaultSpec {
            seed: 0,
            rules: vec![],
            severs: vec![crate::Sever {
                from_round: 0,
                to_round: 10,
                group: vec![0, 2],
            }],
        }));
        // Ring 0→1→2→3→0: every hop crosses the {0,2} boundary.
        w.inject(NodeId(0), Token(100));
        w.run_rounds(10);
        let during: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert_eq!(during, 1, "token dies on its first severed hop");
        assert!(w.fault_counts().dropped_by_fault >= 1);
        // Healed: a fresh token circulates freely.
        w.inject(NodeId(0), Token(20));
        w.run_rounds(40);
        let after: u64 = w.iter().map(|(_, t)| t.tokens_seen).sum();
        assert_eq!(after, during + 21, "post-heal hops must all land");
    }
}
