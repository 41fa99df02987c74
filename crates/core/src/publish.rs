//! Publication dissemination (Algorithm 5 + §4.3 flooding), implemented on
//! [`Subscriber`].
//!
//! Two complementary mechanisms, as in the paper, and one documented
//! extension that joins them:
//!
//! * **Anti-entropy** (`PublishTimeout` / `CheckTrie` / `CheckAndPublish`
//!   / `Publish`): the self-stabilizing layer. Every timeout, a subscriber
//!   sends its Patricia-trie root to one random direct ring neighbour;
//!   hash mismatches are drilled down Merkle-style and exactly the missing
//!   publications are shipped (Theorem 17 guarantees system-wide
//!   convergence to the union of all publications).
//! * **Flooding** (`PublishNew`): the fast path. A fresh publication is
//!   broadcast along *all* edges; since the skip ring has diameter
//!   `O(log n)`, delivery takes `O(log n)` hops. Flooding alone is not
//!   self-stabilizing (late joiners / lossy pasts); anti-entropy repairs
//!   whatever flooding misses ("we do not rely on flooding to show
//!   convergence", §4.3).
//! * **Relay of repaired publications** (DESIGN.md §7.6): a publication
//!   first learned through a `Publish(P)` is sent on, once, as part of
//!   one `Publish` batch per edge at the end of the same activation, so
//!   a repair spreads at flood speed instead of one ring hop per
//!   anti-entropy exchange. It only repeats Algorithm 5's own `Publish`
//!   action with `P ⊆` the sender's store, is gated by `cfg.flooding`,
//!   and sends nothing once the stores agree.

use crate::msg::Msg;
use crate::subscriber::Subscriber;
use skippub_bits::BitStr;
use skippub_sim::{Ctx, NodeId};
use skippub_trie::{CheckOutcome, NodeSummary, Publication, TrieBatch};

impl Subscriber {
    /// `PublishTimeout` (Algorithm 5 lines 1–4): send the trie root to a
    /// random direct ring neighbour.
    pub(crate) fn publish_timeout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some(root) = self.trie.root_summary() else {
            return;
        };
        let Some(pick) = self.with_edges(false, |candidates| {
            (!candidates.is_empty()).then(|| candidates[ctx.random_range(candidates.len())])
        }) else {
            return;
        };
        ctx.send(
            pick,
            Msg::CheckTrie {
                sender: self.id,
                tuples: vec![root],
            },
        );
    }

    /// Handles `CheckTrie(sender, tuples)` (Algorithm 5 lines 11–23).
    pub(crate) fn on_check_trie(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sender: NodeId,
        tuples: Vec<NodeSummary>,
    ) {
        if sender == self.id {
            return;
        }
        for tuple in tuples {
            match self.trie.check(&tuple) {
                CheckOutcome::Match => {}
                CheckOutcome::LeafConflict => self.counters.leaf_conflicts += 1,
                CheckOutcome::Descend(c0, c1) => {
                    ctx.send(
                        sender,
                        Msg::CheckTrie {
                            sender: self.id,
                            tuples: vec![c0, c1],
                        },
                    );
                }
                CheckOutcome::Missing {
                    cover,
                    publish_prefix,
                } => {
                    ctx.send(
                        sender,
                        Msg::CheckAndPublish {
                            sender: self.id,
                            tuples: cover.into_iter().collect(),
                            prefix: publish_prefix,
                        },
                    );
                }
            }
        }
    }

    /// Handles `CheckAndPublish(sender, tuples, prefix)` (Algorithm 5
    /// lines 25–28): keep checking, and ship everything under `prefix`.
    pub(crate) fn on_check_and_publish(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sender: NodeId,
        tuples: Vec<NodeSummary>,
        prefix: BitStr,
    ) {
        if sender == self.id {
            return;
        }
        self.on_check_trie(ctx, sender, tuples);
        let pubs: Vec<Publication> = self
            .trie
            .publications_with_prefix(&prefix)
            .into_iter()
            .cloned()
            .collect();
        if !pubs.is_empty() {
            ctx.send(sender, Msg::Publish { pubs });
        }
    }

    /// Handles `Publish(P)` (Algorithm 5 lines 6–9) as one batched
    /// skeleton commit: each touched internal hash is recomputed once
    /// per message instead of once per publication ([`TrieBatch`] is
    /// proptest-equivalent to the insert loop, so the resulting trie —
    /// and every root hash the protocol ships — is identical). The keys
    /// new to the store are noted for [`Subscriber::relay_timeout`].
    pub(crate) fn on_publish(&mut self, pubs: Vec<Publication>) {
        if self.cfg.flooding {
            let new = pubs
                .iter()
                .map(Publication::key)
                .filter(|key| !self.trie.contains_key(key));
            self.relay_pending.extend(new.cloned());
        }
        let batch: TrieBatch = pubs.into_iter().collect();
        self.counters.pubs_via_sync += batch.apply(&mut self.trie) as u64;
    }

    /// Relay of repaired publications (DESIGN.md §7.6): sends what this
    /// activation's `Publish` messages added to the store on along every
    /// edge, as one `Publish` batch per neighbour. Coalescing here, not
    /// forwarding from inside `on_publish`, keeps a repair burst to one
    /// message per edge per activation. The batch is read back from the
    /// store, so an entry the store does not hold (a corrupted initial
    /// state, a rejected insert) is dropped, never sent.
    pub(crate) fn relay_timeout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let keys = std::mem::take(&mut self.relay_pending);
        if keys.is_empty() || !self.cfg.flooding {
            return;
        }
        let pubs: Vec<Publication> = keys
            .iter()
            .filter_map(|key| self.trie.get(key))
            .cloned()
            .collect();
        if pubs.is_empty() {
            return;
        }
        self.with_edges(true, |targets| {
            if let Some((&last, rest)) = targets.split_last() {
                for &t in rest {
                    ctx.send(t, Msg::Publish { pubs: pubs.clone() });
                }
                ctx.send(last, Msg::Publish { pubs });
            }
        });
    }

    /// Handles `PublishNew(p)` (Algorithm 5 lines 30–34): insert if new
    /// and keep flooding; drop if already known.
    pub(crate) fn on_publish_new(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        publication: Publication,
        hops: u32,
    ) {
        if self.trie.contains_key(publication.key()) {
            return;
        }
        let inserted = self.trie.insert(publication.clone());
        if inserted {
            self.counters.pubs_via_flood += 1;
            self.counters.max_flood_hops = self.counters.max_flood_hops.max(hops);
            self.flood(ctx, publication, hops + 1);
        }
    }

    /// Local operation: the user of this subscriber publishes `payload`.
    /// Inserts into the own trie and, when enabled, floods (§4.3).
    /// Returns the derived publication key.
    pub fn publish_local(&mut self, ctx: &mut Ctx<'_, Msg>, payload: Vec<u8>) -> BitStr {
        self.publish_local_shared(ctx, payload.into())
    }

    /// [`publish_local`](Self::publish_local) over an already-shared
    /// payload (e.g. from a backend's
    /// [`PayloadInterner`](skippub_trie::PayloadInterner)): the bytes are
    /// never copied — the trie copy, every flood copy and the caller's
    /// pool entry all reference one allocation.
    pub fn publish_local_shared(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        payload: std::sync::Arc<[u8]>,
    ) -> BitStr {
        let p = Publication::from_shared(self.id.0, payload, self.cfg.key_bits);
        let key = p.key().clone();
        if self.trie.insert(p.clone()) && self.cfg.flooding {
            self.flood(ctx, p, 1);
        }
        key
    }

    /// Broadcast along all edges: `{left, right, ring} ∪ shortcuts`.
    fn flood(&self, ctx: &mut Ctx<'_, Msg>, p: Publication, hops: u32) {
        if !self.cfg.flooding {
            return;
        }
        self.with_edges(true, |targets| {
            for &t in targets {
                ctx.send(
                    t,
                    Msg::PublishNew {
                        publication: p.clone(),
                        hops,
                    },
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::msg::NodeRef;
    use skippub_ringmath::Label;
    use std::collections::BTreeSet;

    fn lab(s: &str) -> Label {
        s.parse().unwrap()
    }

    fn sub(id: u64, label: &str) -> Subscriber {
        let mut s = Subscriber::new(NodeId(id), NodeId(0), ProtocolConfig::default());
        s.label = Some(lab(label));
        s
    }

    /// A subscriber with a ring neighbour, a ring-closure edge and a
    /// shortcut: three distinct flood and relay targets, two probe targets.
    fn three_edges() -> Subscriber {
        let mut s = sub(3, "0");
        s.right = Some(NodeRef::new(lab("01"), NodeId(4)));
        s.ring = Some(NodeRef::new(lab("11"), NodeId(5)));
        s.shortcuts.insert(lab("1"), Some(NodeId(6)));
        s
    }

    fn run(
        s: &mut Subscriber,
        f: impl FnOnce(&mut Subscriber, &mut Ctx<'_, Msg>),
    ) -> Vec<(NodeId, Msg)> {
        skippub_sim::testing::run_handler(s.id, 7, |ctx| f(s, ctx))
    }

    #[test]
    fn publish_local_inserts_and_floods() {
        let mut s = three_edges();
        let sent = run(&mut s, |s, ctx| {
            s.publish_local(ctx, b"hello".to_vec());
        });
        assert_eq!(s.trie.len(), 1);
        let flooded: Vec<NodeId> = sent
            .iter()
            .filter(|(_, m)| matches!(m, Msg::PublishNew { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(flooded, vec![NodeId(4), NodeId(5), NodeId(6)]);
    }

    #[test]
    fn publish_new_forwards_once() {
        let mut s = sub(3, "0");
        s.right = Some(NodeRef::new(lab("01"), NodeId(4)));
        let p = Publication::new(9, b"x".to_vec());
        let sent = run(&mut s, |s, ctx| s.on_publish_new(ctx, p.clone(), 1));
        assert_eq!(sent.len(), 1, "forwarded to the one neighbour");
        assert_eq!(s.counters.max_flood_hops, 1);
        // Second arrival is dropped.
        let sent = run(&mut s, |s, ctx| s.on_publish_new(ctx, p.clone(), 2));
        assert!(sent.is_empty());
        assert_eq!(s.trie.len(), 1);
    }

    #[test]
    fn publish_timeout_targets_ring_neighbors_only() {
        let mut s = three_edges();
        run(&mut s, |s, ctx| {
            s.publish_local(ctx, b"x".to_vec());
        });
        for _ in 0..20 {
            let sent = run(&mut s, |s, ctx| s.publish_timeout(ctx));
            assert_eq!(sent.len(), 1);
            let (to, m) = &sent[0];
            assert!(matches!(m, Msg::CheckTrie { .. }));
            assert!(
                [NodeId(4), NodeId(5)].contains(to),
                "shortcut {to:?} must not receive anti-entropy probes"
            );
        }
    }

    /// The `Publish` batches among `sent`, as `(target, keys)`.
    fn relayed(sent: &[(NodeId, Msg)]) -> Vec<(NodeId, Vec<BitStr>)> {
        sent.iter()
            .filter_map(|(to, m)| match m {
                Msg::Publish { pubs } => Some((*to, pubs.iter().map(|p| p.key().clone()).collect())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn relay_sends_only_first_seen_publications() {
        let mut s = three_edges();
        let known = Publication::new(9, b"known".to_vec());
        let fresh = Publication::new(9, b"fresh".to_vec());
        s.trie.insert(known.clone());
        s.on_publish(vec![known, fresh.clone()]);
        assert_eq!(s.counters.pubs_via_sync, 1);
        let sent = run(&mut s, |s, ctx| s.relay_timeout(ctx));
        let want = vec![fresh.key().clone()];
        assert_eq!(
            relayed(&sent),
            vec![
                (NodeId(4), want.clone()),
                (NodeId(5), want.clone()),
                (NodeId(6), want),
            ]
        );
        // Each publication is relayed once: the set is spent.
        assert!(s.relay_pending.is_empty());
        assert!(run(&mut s, |s, ctx| s.relay_timeout(ctx)).is_empty());
    }

    #[test]
    fn relay_coalesces_one_activation_into_one_batch_per_neighbour() {
        let mut s = three_edges();
        let a = Publication::new(9, b"a".to_vec());
        let b = Publication::new(9, b"b".to_vec());
        let c = Publication::new(8, b"c".to_vec());
        s.on_publish(vec![a.clone()]);
        s.on_publish(vec![b.clone(), a.clone()]);
        s.on_publish(vec![c.clone()]);
        // The whole activation: `timeout` runs the relay before the
        // paper's own timeout actions.
        let sent = run(&mut s, |s, ctx| s.timeout(ctx));
        let batches = relayed(&sent);
        assert_eq!(batches.len(), 3, "one batch per edge");
        let mut want = vec![a.key().clone(), b.key().clone(), c.key().clone()];
        want.sort_unstable();
        for (_, keys) in batches {
            assert_eq!(keys, want, "each publication once, in key order");
        }
    }

    #[test]
    fn relay_is_silent_without_news_or_without_flooding() {
        let mut s = three_edges();
        let p = Publication::new(9, b"p".to_vec());
        s.trie.insert(p.clone());
        s.on_publish(vec![p.clone()]);
        assert!(s.relay_pending.is_empty(), "nothing was new");
        assert!(relayed(&run(&mut s, |s, ctx| s.timeout(ctx))).is_empty());

        let mut quiet = three_edges();
        quiet.cfg.flooding = false;
        quiet.on_publish(vec![p]);
        assert_eq!(quiet.trie.len(), 1, "anti-entropy still stores it");
        assert!(quiet.relay_pending.is_empty());
        // Even a (corrupted) non-empty set is dropped, not sent.
        quiet.relay_pending.insert(quiet.trie.keys()[0].clone());
        assert!(relayed(&run(&mut quiet, |s, ctx| s.timeout(ctx))).is_empty());
        assert!(quiet.relay_pending.is_empty());
    }

    #[test]
    fn relay_drops_pending_keys_the_store_does_not_hold() {
        let mut s = three_edges();
        let held = Publication::new(9, b"held".to_vec());
        let alien = Publication::new(9, b"alien".to_vec());
        s.trie.insert(held.clone());
        s.relay_pending = BTreeSet::from([alien.key().clone(), held.key().clone()]);
        let sent = run(&mut s, |s, ctx| s.relay_timeout(ctx));
        for (_, keys) in relayed(&sent) {
            assert_eq!(keys, vec![held.key().clone()]);
        }
        s.relay_pending = BTreeSet::from([alien.key().clone()]);
        assert!(run(&mut s, |s, ctx| s.relay_timeout(ctx)).is_empty());
    }

    #[test]
    fn empty_trie_sends_no_probe() {
        let mut s = sub(3, "0");
        s.right = Some(NodeRef::new(lab("01"), NodeId(4)));
        let sent = run(&mut s, |s, ctx| s.publish_timeout(ctx));
        assert!(sent.is_empty());
    }

    #[test]
    fn check_trie_mismatch_descends() {
        let mut a = sub(3, "0");
        let mut b = sub(4, "1");
        run(&mut a, |s, ctx| {
            s.publish_local(ctx, b"one".to_vec());
            s.publish_local(ctx, b"two".to_vec());
        });
        run(&mut b, |s, ctx| {
            s.publish_local(ctx, b"three".to_vec());
        });
        let root_b = b.trie.root_summary().unwrap();
        let sent = run(&mut a, |s, ctx| {
            s.on_check_trie(ctx, NodeId(4), vec![root_b]);
        });
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            &sent[0].1,
            Msg::CheckAndPublish { .. } | Msg::CheckTrie { .. }
        ));
    }

    #[test]
    fn full_exchange_converges_two_nodes() {
        // Run the message exchange by hand until quiescent.
        let mut a = sub(3, "0");
        let mut b = sub(4, "1");
        a.right = Some(NodeRef::new(lab("1"), NodeId(4)));
        a.ring = Some(NodeRef::new(lab("1"), NodeId(4)));
        b.left = Some(NodeRef::new(lab("0"), NodeId(3)));
        b.ring = Some(NodeRef::new(lab("0"), NodeId(3)));
        run(&mut a, |s, ctx| {
            for i in 0..10u32 {
                s.publish_local(ctx, format!("a{i}").into_bytes());
            }
        });
        run(&mut b, |s, ctx| {
            for i in 0..7u32 {
                s.publish_local(ctx, format!("b{i}").into_bytes());
            }
        });
        let mut queue: Vec<(NodeId, Msg)> = Vec::new();
        // Alternate initiations until both roots agree.
        for round in 0..8 {
            if a.trie.root_hash() == b.trie.root_hash() {
                break;
            }
            let (init, _other) = if round % 2 == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            queue.extend(run(init, |s, ctx| s.publish_timeout(ctx)));
            while let Some((to, msg)) = queue.pop() {
                let target = if to == NodeId(3) { &mut a } else { &mut b };
                let more = skippub_sim::testing::run_handler(to, 1, |ctx| match msg {
                    Msg::CheckTrie { sender, tuples } => target.on_check_trie(ctx, sender, tuples),
                    Msg::CheckAndPublish {
                        sender,
                        tuples,
                        prefix,
                    } => target.on_check_and_publish(ctx, sender, tuples, prefix),
                    Msg::Publish { pubs } => target.on_publish(pubs),
                    Msg::PublishNew { publication, hops } => {
                        target.on_publish_new(ctx, publication, hops)
                    }
                    _ => {}
                });
                queue.extend(more);
            }
        }
        assert_eq!(a.trie.root_hash(), b.trie.root_hash());
        assert_eq!(a.trie.len(), 17);
        assert_eq!(b.trie.len(), 17);
    }
}
