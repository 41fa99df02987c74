//! The system under test as the timed driver sees it: the `PubSub`
//! facade with a span around every call, and the ledger of what was
//! published and what each subscriber drained.
//!
//! Only the stable surface is used here and in `workloads/`:
//! `SystemBuilder::…::build(BackendKind)`, the `PubSub` trait,
//! `pubsub::restore`, `BackendSnapshot`, and `scenario::{compile,
//! run_spec, run_recorded, run_spec_with_snapshot, resume_spec, Trace,
//! WarmStart}`.

use crate::trace::Tracer;
use skippub_bits::BitStr;
use skippub_core::{Delivery, PubSub, TopicId};
use skippub_sim::NodeId;
use std::collections::BTreeMap;

pub struct Sys<'a> {
    pub ps: &'a mut dyn PubSub,
    pub tr: &'a mut Tracer,
}

impl<'a> Sys<'a> {
    pub fn new(ps: &'a mut dyn PubSub, tr: &'a mut Tracer) -> Self {
        Sys { ps, tr }
    }

    pub fn step(&mut self) {
        let o = self.tr.begin("sim.step");
        self.ps.step();
        self.tr.end(o);
    }

    /// One checker poll of the topology alone (warm-up needs no more).
    pub fn legit(&mut self) -> bool {
        let o = self.tr.begin("core.checker.poll");
        let l = self.ps.is_legitimate();
        self.tr.end(o);
        l
    }

    /// One checker poll: legitimate and publications converged. Both
    /// predicates are evaluated every time, so a poll is the same work
    /// whether or not the first one holds.
    pub fn settled(&mut self) -> bool {
        let o = self.tr.begin("core.checker.poll");
        let l = self.ps.is_legitimate();
        let c = self.ps.publications_converged().0;
        self.tr.end(o);
        l && c
    }

    /// One checker poll of the publication stores alone.
    pub fn converged(&mut self) -> bool {
        let o = self.tr.begin("core.checker.poll");
        let c = self.ps.publications_converged().0;
        self.tr.end(o);
        c
    }

    /// Steps until legitimate; panics past `budget` (a world that does
    /// not warm up cannot be measured).
    pub fn warm(&mut self, budget: u64) -> u64 {
        let mut rounds = 0;
        while !self.legit() {
            assert!(
                rounds < budget,
                "world not legitimate after {budget} warm-up rounds"
            );
            self.step();
            rounds += 1;
        }
        rounds
    }

    /// Steps `rounds` rounds, then on until legitimate. Nearly every
    /// world is legitimate well inside `rounds`, so set-up is the same
    /// work for nearly every seed.
    pub fn warm_for(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
        self.warm(10_000);
    }

    pub fn subscribe(&mut self, topic: u32) -> NodeId {
        let o = self.tr.begin("core.pubsub.subscribe");
        let id = self.ps.subscribe(TopicId(topic));
        self.tr.end(o);
        id
    }

    pub fn unsubscribe(&mut self, id: NodeId, topic: u32) {
        let o = self.tr.begin("core.pubsub.unsubscribe");
        self.ps.unsubscribe(id, TopicId(topic));
        self.tr.end(o);
    }

    /// Publishes and returns the key; a refused publish is a broken
    /// script (authors are live members by construction).
    pub fn publish(&mut self, id: NodeId, topic: u32, payload: Vec<u8>) -> BitStr {
        let o = self.tr.begin("core.pubsub.publish");
        let key = self.ps.publish(id, TopicId(topic), payload);
        self.tr.end(o);
        key.unwrap_or_else(|| {
            panic!("publish refused: {id:?} is not a live member of topic {topic}")
        })
    }

    pub fn crash(&mut self, id: NodeId) {
        let o = self.tr.begin("core.pubsub.crash");
        self.ps.crash(id);
        self.tr.end(o);
    }

    pub fn report_crash(&mut self, id: NodeId) {
        let o = self.tr.begin("core.pubsub.crash");
        self.ps.report_crash(id);
        self.tr.end(o);
    }

    /// Drains every subscriber in `ids` into the ledger, as one span.
    /// `now` is the round count when the drain happens; with it the
    /// deliveries are latency samples.
    pub fn drain_into(&mut self, ids: &[NodeId], ledger: &mut Ledger, now: Option<u32>) {
        if ids.is_empty() {
            return;
        }
        let o = self.tr.begin_batch("core.pubsub.drain", ids.len() as u32);
        let drained: Vec<Vec<Delivery>> = ids.iter().map(|&id| self.ps.drain_events(id)).collect();
        self.tr.end(o);
        for (&id, events) in ids.iter().zip(&drained) {
            ledger.drained(id, events, now);
        }
    }
}

/// Rounds a world may take after its script to finish delivering.
const GRACE_ROUNDS: u64 = 20_000;

/// After the clock has stopped: lets publications that are still on
/// their way arrive (a script is a fixed number of rounds, and a rare
/// slow recovery can outlast it), drains them, and checks the ledger.
/// What is still missing after that was lost, not late.
pub fn finish_delivery(
    ps: &mut dyn PubSub,
    ledger: &mut Ledger,
    members: &[(NodeId, u32)],
) -> Delivered {
    let mut rounds = 0;
    while !ps.publications_converged().0 && rounds < GRACE_ROUNDS {
        ps.step();
        rounds += 1;
    }
    if rounds > 0 {
        let ids: Vec<NodeId> = members.iter().map(|&(id, _)| id).collect();
        Sys::new(ps, &mut Tracer::new(false)).drain_into(&ids, ledger, None);
    }
    ledger.check(members)
}

/// Count and key fingerprint of a set of publications. Keys are 64-bit
/// hashes, so their wrapping sum separates sets; a publication drained
/// twice changes the count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeySet {
    pub count: u64,
    pub key_sum: u64,
}

impl KeySet {
    fn add(&mut self, key: &BitStr) {
        self.count += 1;
        self.key_sum = self.key_sum.wrapping_add(key.frac_u64());
    }
}

/// What was published per topic, what each subscriber drained, and the
/// latency histogram of the sampled drains.
#[derive(Default)]
pub struct Ledger {
    /// Payload → round the publish was due. Payloads are unique.
    due: BTreeMap<Vec<u8>, u32>,
    published: BTreeMap<u32, KeySet>,
    drained: BTreeMap<NodeId, KeySet>,
    /// `hist[k]` = sampled deliveries seen `k` rounds after they were due.
    pub latency_hist: Vec<u64>,
}

/// Outcome of checking the ledger against the final membership.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Delivered {
    /// (publication, live member of its topic) pairs that should exist.
    pub expected_pairs: u64,
    /// Pairs never drained.
    pub undelivered_pairs: u64,
    /// Members whose drained set has the right size but other keys, or
    /// more deliveries than publications (a duplicate).
    pub wrong_sets: u64,
    /// Publications issued.
    pub publications: u64,
    /// Final members checked.
    pub members: u64,
    /// Fingerprint of (member, drained set) over all members.
    pub fingerprint: u64,
}

impl Ledger {
    pub fn published(&mut self, topic: u32, payload: &[u8], key: &BitStr, due_round: u32) {
        let fresh = self.due.insert(payload.to_vec(), due_round).is_none();
        assert!(fresh, "payloads must be unique");
        self.published.entry(topic).or_default().add(key);
    }

    fn drained(&mut self, id: NodeId, events: &[Delivery], now: Option<u32>) {
        if events.is_empty() {
            return;
        }
        let set = self.drained.entry(id).or_default();
        for d in events {
            set.add(&d.key);
            if let Some(now) = now {
                let due = *self
                    .due
                    .get(&d.payload)
                    .expect("a delivery of something never published");
                let lat = (now - due) as usize;
                if self.latency_hist.len() <= lat {
                    self.latency_hist.resize(lat + 1, 0);
                }
                self.latency_hist[lat] += 1;
            }
        }
    }

    /// Publications issued so far.
    pub fn publications(&self) -> u64 {
        self.published.values().map(|s| s.count).sum()
    }

    /// Every publication must have reached every final member of its
    /// topic exactly once.
    pub fn check(&self, members: &[(NodeId, u32)]) -> Delivered {
        let mut out = Delivered {
            publications: self.publications(),
            members: members.len() as u64,
            ..Delivered::default()
        };
        for &(id, topic) in members {
            let want = self.published.get(&topic).copied().unwrap_or_default();
            let got = self.drained.get(&id).copied().unwrap_or_default();
            out.expected_pairs += want.count;
            out.undelivered_pairs += want.count.saturating_sub(got.count);
            if got.count > want.count || (got.count == want.count && got != want) {
                out.wrong_sets += 1;
            }
            for word in [id.0, got.count, got.key_sum] {
                out.fingerprint = (out.fingerprint ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skippub_trie::Publication;

    fn delivery(p: &Publication, topic: u32) -> Delivery {
        Delivery {
            topic: TopicId(topic),
            key: p.key().clone(),
            author: p.author(),
            payload: p.payload().to_vec(),
        }
    }

    #[test]
    fn ledger_counts_pairs_latencies_and_duplicates() {
        let a = Publication::new(1, b"a".to_vec());
        let b = Publication::new(2, b"b".to_vec());
        let mut l = Ledger::default();
        l.published(0, a.payload(), a.key(), 3);
        l.published(0, b.payload(), b.key(), 4);
        let members = [(NodeId(1), 0), (NodeId(2), 0), (NodeId(3), 1)];
        l.drained(NodeId(1), &[delivery(&a, 0), delivery(&b, 0)], Some(6));
        l.drained(NodeId(2), &[delivery(&a, 0)], None);
        let d = l.check(&members);
        assert_eq!(
            (
                d.expected_pairs,
                d.undelivered_pairs,
                d.wrong_sets,
                d.publications
            ),
            (4, 1, 0, 2)
        );
        assert_eq!(l.latency_hist, vec![0, 0, 1, 1]);
        // A duplicate delivery is a wrong set, not a delivered pair.
        l.drained(NodeId(2), &[delivery(&a, 0), delivery(&a, 0)], None);
        assert_eq!(l.check(&members).wrong_sets, 1);
    }
}
