//! Publication dissemination (Algorithm 5 + §4.3 flooding), implemented on
//! [`Subscriber`].
//!
//! Two complementary mechanisms, as in the paper, and one rule that both
//! obey (DESIGN.md §7.6):
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
//!   convergence", §4.3). A publication a `Publish(P)` repaired re-enters
//!   the flood at the repaired store, so a repair spreads at flood speed
//!   instead of one ring hop per anti-entropy exchange.
//! * **One publication-plane message per edge per activation.** Algorithm
//!   5 ships *sets*, and so does this module: every `CheckTrie` gets one
//!   reply carrying the children, covers and missing prefixes of all its
//!   tuples, a `CheckAndPublish` gets one `Publish`, and everything a
//!   node first learns in an activation — flooded or repaired — leaves
//!   as one `PublishNew` batch per edge from
//!   [`Subscriber::relay_timeout`], which `timeout` runs right after the
//!   inbox. Every batch is a union of sets the per-publication protocol
//!   sends to the same destination, read back from the sender's store;
//!   forwarding is gated by `cfg.flooding`, and nothing of it is sent
//!   once the stores agree.

use crate::msg::Msg;
use crate::subscriber::Subscriber;
use skippub_bits::BitStr;
use skippub_sim::{Ctx, NodeId};
use skippub_trie::{NodeSummary, Publication, TrieBatch};
use std::sync::Arc;

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

    /// Handles `CheckTrie(sender, tuples)` (Algorithm 5 lines 11–23) with
    /// a single reply: the children of every differing node and the
    /// cover of every missing one, as a `CheckTrie` — or, when some
    /// prefix is missing here, as one `CheckAndPublish` naming them all.
    /// A descent is one message per trie level, however many branches
    /// differ.
    pub(crate) fn on_check_trie(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sender: NodeId,
        tuples: Vec<NodeSummary>,
    ) {
        if sender == self.id {
            return;
        }
        let found = self.trie.check_all(&tuples);
        self.counters.leaf_conflicts += found.leaf_conflicts as u64;
        let reply = if !found.prefixes.is_empty() {
            Msg::CheckAndPublish {
                sender: self.id,
                tuples: found.tuples,
                prefixes: found.prefixes,
            }
        } else if !found.tuples.is_empty() {
            Msg::CheckTrie {
                sender: self.id,
                tuples: found.tuples,
            }
        } else {
            return;
        };
        ctx.send(sender, reply);
    }

    /// Handles `CheckAndPublish(sender, tuples, prefixes)` (Algorithm 5
    /// lines 25–28): keep checking, and ship everything under any of
    /// `prefixes` as one `Publish`.
    pub(crate) fn on_check_and_publish(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sender: NodeId,
        tuples: Vec<NodeSummary>,
        prefixes: Vec<BitStr>,
    ) {
        if sender == self.id {
            return;
        }
        self.on_check_trie(ctx, sender, tuples);
        let pubs = self.trie.publications_under(prefixes);
        if !pubs.is_empty() {
            ctx.send(sender, Msg::Publish { pubs });
        }
    }

    /// Stores what is new of a received batch as one skeleton commit:
    /// each touched internal hash is recomputed once per message instead
    /// of once per publication ([`TrieBatch`] is proptest-equivalent to
    /// the insert loop, so the resulting trie — and every root hash the
    /// protocol ships — is identical). The new keys are noted, with the
    /// hops they arrived at, for [`Subscriber::relay_timeout`]. Returns
    /// how many publications were new and the largest hop count among
    /// them.
    fn learn(&mut self, pubs: impl IntoIterator<Item = (Publication, u32)>) -> (u64, u32) {
        let mut batch = TrieBatch::new();
        let mut farthest = 0;
        for (publication, hops) in pubs {
            if self.trie.contains_key(publication.key()) {
                continue;
            }
            if self.cfg.flooding {
                self.relay_pending
                    .entry(publication.key().clone())
                    .or_insert(hops);
            }
            farthest = farthest.max(hops);
            batch.push(publication);
        }
        if batch.is_empty() {
            return (0, 0);
        }
        (batch.apply(&mut self.trie) as u64, farthest)
    }

    /// Handles `Publish(P)` (Algorithm 5 lines 6–9). What it repairs
    /// re-enters the flood here, at hop 0.
    pub(crate) fn on_publish(&mut self, pubs: Vec<Publication>) {
        let (learned, _) = self.learn(pubs.into_iter().map(|p| (p, 0)));
        self.counters.pubs_via_sync += learned;
    }

    /// Handles `PublishNew(P)` (Algorithm 5 lines 30–34): insert what is
    /// new and keep flooding it — from [`Subscriber::relay_timeout`], not
    /// from here; drop what is already known.
    pub(crate) fn on_publish_new(&mut self, pubs: &[(Publication, u32)]) {
        let (learned, farthest) = self.learn(pubs.iter().cloned());
        if learned > 0 {
            self.counters.pubs_via_flood += learned;
            self.counters.max_flood_hops = self.counters.max_flood_hops.max(farthest);
        }
    }

    /// Coalesced dissemination (DESIGN.md §7.6): sends what this
    /// activation added to the store — flooded or repaired — on along
    /// every edge, as one `PublishNew` batch in key order that every
    /// neighbour's message shares, each publication one hop further than
    /// it arrived. Coalescing here, not forwarding from inside the
    /// handlers, keeps a burst to one message per edge per activation.
    /// The batch is read back from the store, so an entry the store does
    /// not hold (a corrupted initial state, a rejected insert) is
    /// dropped, never sent.
    pub(crate) fn relay_timeout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let pending = std::mem::take(&mut self.relay_pending);
        let pubs = pending
            .iter()
            .filter_map(|(key, hops)| Some((self.trie.get(key)?.clone(), hops.saturating_add(1))))
            .collect();
        self.flood(ctx, pubs);
    }

    /// Local operation: the user of this subscriber publishes `payload`.
    /// Inserts into the own trie and, when enabled, floods (§4.3).
    /// Returns the derived publication key. The payload moves into the
    /// publication's one record, which the store and the flood batch
    /// share.
    ///
    /// A local publish happens outside any activation, so it does not
    /// wait for `relay_timeout`: the batch of one leaves in this call.
    /// The author is the process, not this topic's instance of it
    /// (`crate::topics`), so a key does not depend on the topic.
    pub fn publish_local(&mut self, ctx: &mut Ctx<'_, Msg>, payload: Vec<u8>) -> BitStr {
        let p = Publication::with_key_bits(self.id.process().0, payload, self.cfg.key_bits);
        let key = p.key().clone();
        if self.trie.insert(p.clone()) {
            self.flood(ctx, vec![(p, 1)]);
        }
        key
    }

    /// Broadcast along all edges: `{left, right, ring} ∪ shortcuts`. Every
    /// edge's message shares the one batch.
    fn flood(&self, ctx: &mut Ctx<'_, Msg>, pubs: Vec<(Publication, u32)>) {
        if !self.cfg.flooding || pubs.is_empty() {
            return;
        }
        let pubs: Arc<[(Publication, u32)]> = pubs.into();
        self.with_edges(true, |targets| {
            for &t in targets {
                ctx.send(
                    t,
                    Msg::PublishNew {
                        pubs: Arc::clone(&pubs),
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
    use std::collections::BTreeMap;

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

    /// The `PublishNew` batches among `sent`, as `(target, [(key, hops)])`.
    fn flooded(sent: &[(NodeId, Msg)]) -> Vec<(NodeId, Vec<(BitStr, u32)>)> {
        sent.iter()
            .filter_map(|(to, m)| match m {
                Msg::PublishNew { pubs } => Some((
                    *to,
                    pubs.iter()
                        .map(|(p, hops)| (p.key().clone(), *hops))
                        .collect(),
                )),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn publish_local_inserts_and_floods_in_the_same_call() {
        let mut s = three_edges();
        let mut key = None;
        let sent = run(&mut s, |s, ctx| {
            key = Some(s.publish_local(ctx, b"hello".to_vec()));
        });
        assert_eq!(s.trie.len(), 1);
        // A batch of one per edge, at hop 1, without waiting for a timeout.
        let batch = vec![(key.unwrap(), 1)];
        assert_eq!(
            flooded(&sent),
            vec![
                (NodeId(4), batch.clone()),
                (NodeId(5), batch.clone()),
                (NodeId(6), batch),
            ]
        );
        assert!(s.relay_pending.is_empty(), "nothing is left to forward");
        assert!(flooded(&run(&mut s, |s, ctx| s.timeout(ctx))).is_empty());
    }

    #[test]
    fn publish_new_forwards_once_from_the_timeout() {
        let mut s = sub(3, "0");
        s.right = Some(NodeRef::new(lab("01"), NodeId(4)));
        let p = Publication::new(9, b"x".to_vec());
        s.on_publish_new(&[(p.clone(), 1)]);
        assert_eq!(s.counters.pubs_via_flood, 1);
        assert_eq!(s.counters.max_flood_hops, 1);
        let sent = run(&mut s, |s, ctx| s.relay_timeout(ctx));
        assert_eq!(
            flooded(&sent),
            vec![(NodeId(4), vec![(p.key().clone(), 2)])],
            "forwarded to the one neighbour, one hop further"
        );
        // Second arrival is dropped.
        s.on_publish_new(&[(p.clone(), 2)]);
        assert!(s.relay_pending.is_empty());
        assert!(run(&mut s, |s, ctx| s.relay_timeout(ctx)).is_empty());
        assert_eq!((s.trie.len(), s.counters.pubs_via_flood), (1, 1));
        assert_eq!(s.counters.max_flood_hops, 1);
    }

    #[test]
    fn flood_arrivals_of_one_activation_leave_as_one_batch_per_edge() {
        let mut s = three_edges();
        let pubs: Vec<Publication> = (0..5u8).map(|i| Publication::new(9, vec![i])).collect();
        // Five arrivals over three messages, at different distances; the
        // second copy of `pubs[1]` arrives later and farther.
        s.on_publish_new(&[(pubs[0].clone(), 1), (pubs[1].clone(), 4)]);
        s.on_publish_new(&[(pubs[2].clone(), 2)]);
        s.on_publish_new(&[
            (pubs[1].clone(), 7),
            (pubs[3].clone(), 3),
            (pubs[4].clone(), 1),
        ]);
        assert_eq!(s.counters.pubs_via_flood, 5);
        assert_eq!(
            s.counters.max_flood_hops, 4,
            "the duplicate's 7 hops never counted"
        );
        let sent = run(&mut s, |s, ctx| s.timeout(ctx));
        let mut want: Vec<(BitStr, u32)> = pubs
            .iter()
            .zip([1u32, 4, 2, 3, 1])
            .map(|(p, first_arrival)| (p.key().clone(), first_arrival + 1))
            .collect();
        want.sort_unstable();
        assert_eq!(
            flooded(&sent),
            vec![
                (NodeId(4), want.clone()),
                (NodeId(5), want.clone()),
                (NodeId(6), want),
            ],
            "exactly one batch per edge, in key order, first-arrival hops + 1"
        );
        assert!(s.relay_pending.is_empty());
        assert!(flooded(&run(&mut s, |s, ctx| s.timeout(ctx))).is_empty());
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

    /// The forwarded batches among `sent` with the hop counts dropped,
    /// as `(target, keys)`.
    fn relayed(sent: &[(NodeId, Msg)]) -> Vec<(NodeId, Vec<BitStr>)> {
        flooded(sent)
            .into_iter()
            .map(|(to, batch)| (to, batch.into_iter().map(|(key, _)| key).collect()))
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
        // Repairs and a flood arrival in one activation share the batch.
        s.on_publish(vec![a.clone()]);
        s.on_publish(vec![b.clone(), a.clone()]);
        s.on_publish_new(&[(c.clone(), 3), (a.clone(), 3)]);
        assert_eq!(
            (s.counters.pubs_via_sync, s.counters.pubs_via_flood),
            (2, 1)
        );
        // The whole activation: `timeout` runs the relay before the
        // paper's own timeout actions.
        let sent = run(&mut s, |s, ctx| s.timeout(ctx));
        let batches = flooded(&sent);
        assert_eq!(batches.len(), 3, "one batch per edge");
        // A repaired publication re-enters the flood at hop 1.
        let mut want = vec![
            (a.key().clone(), 1),
            (b.key().clone(), 1),
            (c.key().clone(), 4),
        ];
        want.sort_unstable();
        for (_, batch) in batches {
            assert_eq!(batch, want, "each publication once, in key order");
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
        quiet.relay_pending.insert(quiet.trie.keys()[0].clone(), 0);
        assert!(relayed(&run(&mut quiet, |s, ctx| s.timeout(ctx))).is_empty());
        assert!(quiet.relay_pending.is_empty());
    }

    #[test]
    fn relay_drops_pending_keys_the_store_does_not_hold() {
        let mut s = three_edges();
        let held = Publication::new(9, b"held".to_vec());
        let alien = Publication::new(9, b"alien".to_vec());
        s.trie.insert(held.clone());
        s.relay_pending = BTreeMap::from([(alien.key().clone(), 0), (held.key().clone(), 0)]);
        let sent = run(&mut s, |s, ctx| s.relay_timeout(ctx));
        for (_, keys) in relayed(&sent) {
            assert_eq!(keys, vec![held.key().clone()]);
        }
        s.relay_pending = BTreeMap::from([(alien.key().clone(), 0)]);
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
    fn check_trie_with_several_divergent_tuples_gets_one_reply() {
        fn raw(key: &str) -> Publication {
            Publication::with_raw_key(key.parse().unwrap(), 0, Vec::new())
        }
        fn summary(of: &Subscriber, label: &str) -> NodeSummary {
            of.trie.node_summary(&label.parse().unwrap()).expect("node")
        }
        let labels = |tuples: &[NodeSummary]| -> Vec<String> {
            tuples.iter().map(|t| t.label.to_string()).collect()
        };
        let mut mine = sub(3, "0");
        let mut theirs = sub(4, "1");
        for key in [
            "0000", "0010", "0100", "0110", "1000", "1010", "1100", "1110",
        ] {
            mine.trie.insert(raw(key));
        }
        for key in [
            "0000", "0011", "0100", "0111", "1000", "1010", "1100", "1110",
        ] {
            theirs.trie.insert(raw(key));
        }
        // Both halves of the left subtree differ, the right one agrees:
        // the children of both differing nodes travel in one `CheckTrie`.
        let tuples = vec![
            summary(&theirs, "00"),
            summary(&theirs, "01"),
            summary(&theirs, "1"),
        ];
        let sent = run(&mut mine, |s, ctx| s.on_check_trie(ctx, NodeId(4), tuples));
        assert_eq!(sent.len(), 1, "one reply for the whole request");
        let (to, Msg::CheckTrie { sender, tuples }) = &sent[0] else {
            panic!(
                "nothing is missing here, so a plain CheckTrie: {:?}",
                sent[0]
            );
        };
        assert_eq!((*to, *sender), (NodeId(4), NodeId(3)));
        assert_eq!(labels(tuples), ["0000", "0010", "0100", "0110"]);

        // At the other side two of those four are unknown: one
        // `CheckAndPublish` names both prefixes (nothing stored there
        // extends a full-length label, so there is no cover to go on with).
        let sent = run(&mut theirs, |s, ctx| {
            s.on_check_trie(ctx, NodeId(3), tuples.clone())
        });
        assert_eq!(sent.len(), 1);
        let (
            _,
            Msg::CheckAndPublish {
                tuples, prefixes, ..
            },
        ) = &sent[0]
        else {
            panic!("two prefixes are missing: {:?}", sent[0]);
        };
        assert!(tuples.is_empty());
        let prefixes: Vec<String> = prefixes.iter().map(BitStr::to_string).collect();
        assert_eq!(prefixes, ["0010", "0110"]);

        // And the holder ships both under one `Publish`, each once, even
        // if a (corrupted) request names overlapping prefixes.
        let ask: Vec<BitStr> = ["0110", "001", "0010"]
            .iter()
            .map(|p| p.parse().unwrap())
            .collect();
        let sent = run(&mut mine, |s, ctx| {
            s.on_check_and_publish(ctx, NodeId(4), Vec::new(), ask)
        });
        assert_eq!(sent.len(), 1);
        let (_, Msg::Publish { pubs }) = &sent[0] else {
            panic!("one Publish: {:?}", sent[0]);
        };
        let shipped: Vec<String> = pubs.iter().map(|p| p.key().to_string()).collect();
        assert_eq!(shipped, ["0010", "0110"]);
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
                        prefixes,
                    } => target.on_check_and_publish(ctx, sender, tuples, prefixes),
                    Msg::Publish { pubs } => target.on_publish(pubs),
                    Msg::PublishNew { pubs } => target.on_publish_new(&pubs),
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
