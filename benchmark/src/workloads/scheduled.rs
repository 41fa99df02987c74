//! The benchmark's own loop over a schedule compiled by
//! `scenario::compile`: the same operations the scenario engine would
//! apply, applied through the facade with spans, a ledger and the
//! driver's own count of live subscribers.

use crate::sys::{Ledger, Sys};
use skippub_harness::scenario::{Fate, PlannedOp, Schedule};
use skippub_sim::NodeId;

/// Slot bindings and membership while a schedule is being applied.
#[derive(Default)]
pub struct Slots {
    /// Slot → id, in spawn order.
    pub ids: Vec<NodeId>,
    /// Slot → (topic, still a live member).
    state: Vec<(u32, bool)>,
    /// Live members right now.
    pub live: u64,
    /// Σ of `live` over the rounds stepped through [`Slots::step`].
    pub node_rounds: u64,
    /// Rounds stepped through [`Slots::step`].
    pub round: u32,
}

impl Slots {
    pub fn apply(&mut self, sys: &mut Sys<'_>, ledger: &mut Ledger, op: &PlannedOp) {
        match op {
            PlannedOp::Subscribe { slot, topic } => {
                assert_eq!(*slot, self.ids.len(), "slots spawn in order");
                self.ids.push(sys.subscribe(*topic));
                self.state.push((*topic, true));
                self.live += 1;
            }
            PlannedOp::Leave { slot, topic } => {
                sys.unsubscribe(self.ids[*slot], *topic);
                self.gone(*slot);
            }
            PlannedOp::Publish {
                slot,
                topic,
                payload,
            } => {
                let key = sys.publish(self.ids[*slot], *topic, payload.clone());
                ledger.published(*topic, payload, &key, self.round);
            }
            PlannedOp::Crash { slot } => {
                sys.crash(self.ids[*slot]);
                self.gone(*slot);
            }
            PlannedOp::Report { slot } => sys.report_crash(self.ids[*slot]),
            PlannedOp::Seed { .. } | PlannedOp::CrashSupervisor { .. } => {
                unreachable!("no workload schedules seeds or supervisor crashes")
            }
        }
    }

    pub fn gone(&mut self, slot: usize) {
        assert!(self.state[slot].1, "slot {slot} left twice");
        self.state[slot].1 = false;
        self.live -= 1;
    }

    /// One round, then the sampled drains as latency samples.
    pub fn step(&mut self, sys: &mut Sys<'_>, ledger: &mut Ledger, sample: &[NodeId]) {
        sys.step();
        self.round += 1;
        self.node_rounds += self.live;
        sys.drain_into(sample, ledger, Some(self.round));
    }

    /// Live members as (id, topic).
    pub fn members(&self) -> Vec<(NodeId, u32)> {
        self.ids
            .iter()
            .zip(&self.state)
            .filter(|(_, s)| s.1)
            .map(|(&id, s)| (id, s.0))
            .collect()
    }
}

/// Slots of the initial population that the schedule never removes and
/// that do not publish: the ones that can be sampled (or crashed by the
/// driver) without disturbing the schedule.
pub fn bystanders(schedule: &Schedule) -> Vec<usize> {
    schedule
        .slots
        .iter()
        .enumerate()
        .filter(|(_, p)| p.fate == Fate::Survives && p.arrives.is_none() && !p.publisher)
        .map(|(slot, _)| slot)
        .collect()
}
