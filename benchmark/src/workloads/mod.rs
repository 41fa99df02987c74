//! The four workloads. Each is a fixed script: a fixed schedule of
//! operations and a fixed number of simulated rounds, all made from the
//! seed. Convergence is observed, never awaited: inside an observation
//! window the driver polls the checker every round and notes the first
//! round it holds, so the timed window covers the same simulated rounds
//! on both sides of any comparison.

pub mod checkpoint_replay;
pub mod churn_crash;
pub mod partition_heal;
pub mod scheduled;
pub mod steady_fanout;

use crate::sys::{finish_delivery, Delivered, Ledger};
use crate::trace::Tracer;
use skippub_core::{PubSub, Stats};
use skippub_sim::NodeId;

/// `Quick` is the smoke size: worlds and windows a tenth of `Full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    /// `full`, or a tenth of it (at least `floor`) on the quick scale.
    pub fn of(self, full: usize, floor: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 10).max(floor),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SteadyFanout,
    ChurnCrash,
    PartitionHeal,
    CheckpointReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyFanout,
        Workload::ChurnCrash,
        Workload::PartitionHeal,
        Workload::CheckpointReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyFanout => "steady-fanout",
            Workload::ChurnCrash => "churn-crash",
            Workload::PartitionHeal => "partition-heal",
            Workload::CheckpointReplay => "checkpoint-replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sets the workload up and runs its script once.
    /// `workers` is the executor's worker-thread cap; only the sharded
    /// world of `steady-fanout` has an executor to cap.
    pub fn rep(self, scale: Scale, seed: u64, workers: usize, tr: &mut Tracer) -> Rep {
        match self {
            Workload::SteadyFanout => steady_fanout::rep(scale, seed, workers, tr),
            Workload::ChurnCrash => churn_crash::rep(scale, seed, tr),
            Workload::PartitionHeal => partition_heal::rep(scale, seed, tr),
            Workload::CheckpointReplay => checkpoint_replay::rep(scale, seed, tr),
        }
    }
}

/// Everything a repetition counts. A function of the seed alone: two
/// repetitions of one seed must produce equal `Counts` (asserted), at
/// any thread count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Worlds the workload runs.
    pub instances: u64,
    /// Length of an observation window, in rounds.
    pub window: u64,
    /// Per observation window, the first round at which the world was
    /// legitimate with converged publications.
    pub settle: Vec<Option<u64>>,
    /// The same for the crash phase of `churn-crash` (empty elsewhere).
    pub crash_window: u64,
    pub crash_settle: Vec<Option<u64>>,
    pub latency_hist: Vec<u64>,
    /// Rounds stepped in the timed window, over all instances.
    pub rounds: u64,
    /// Σ over those rounds of the live subscribers at that round.
    pub node_rounds: u64,
    /// `Stats` deltas over the timed window, summed over instances.
    pub sent: u64,
    pub delivered_msgs: u64,
    pub dropped: u64,
    pub peak_in_flight: u64,
    pub dropped_by_fault: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub delayed: u64,
    pub lock_acquisitions: u64,
    pub cross_envelopes: u64,
    pub delivered_imbalance: f64,
    pub stepped_imbalance: f64,
    /// Publications stored at the end, summed over instances.
    pub stored_pubs: u64,
    pub delivery: Delivered,
    /// Bytes of the serialized trace and checkpoint (`checkpoint-replay`).
    pub trace_bytes: u64,
    pub checkpoint_bytes: u64,
}

impl Counts {
    /// Adds one instance's traffic over its timed window.
    pub fn add_stats(&mut self, before: &Stats, after: &Stats) {
        self.rounds += after.steps - before.steps;
        self.sent += after.sent - before.sent;
        self.delivered_msgs += after.delivered - before.delivered;
        self.dropped += after.dropped - before.dropped;
        self.peak_in_flight = self.peak_in_flight.max(after.peak_in_flight);
        self.dropped_by_fault += after.dropped_by_fault - before.dropped_by_fault;
        self.duplicated += after.duplicated - before.duplicated;
        self.reordered += after.reordered - before.reordered;
        self.delayed += after.delayed - before.delayed;
    }

    /// After the clock has stopped: finishes one world's deliveries,
    /// checks its ledger against the final members, and adds the outcome
    /// and the world's latency samples.
    pub fn close_world(
        &mut self,
        ps: &mut dyn PubSub,
        mut ledger: Ledger,
        members: &[(NodeId, u32)],
    ) {
        let d: Delivered = finish_delivery(ps, &mut ledger, members);
        let t = &mut self.delivery;
        t.expected_pairs += d.expected_pairs;
        t.undelivered_pairs += d.undelivered_pairs;
        t.wrong_sets += d.wrong_sets;
        t.publications += d.publications;
        t.members += d.members;
        t.fingerprint = t.fingerprint.rotate_left(7) ^ d.fingerprint;
        if self.latency_hist.len() < ledger.latency_hist.len() {
            self.latency_hist.resize(ledger.latency_hist.len(), 0);
        }
        for (sum, n) in self.latency_hist.iter_mut().zip(&ledger.latency_hist) {
            *sum += n;
        }
    }
}

/// One repetition: timings, heap, counts, and the world it ended in.
pub struct Rep {
    /// Build + subscribe + warm to legitimacy, all instances.
    pub setup_s: f64,
    /// The fixed script, all instances, one after the other.
    pub wall_s: f64,
    /// High-water of live heap bytes over set-up and script.
    pub peak_heap_bytes: usize,
    /// Allocations during the script.
    pub allocs: u64,
    /// `BitStr` heap spills during the script.
    pub bitstr_allocs: u64,
    pub counts: Counts,
    /// The (last) world as the script left it, for the snapshot probe.
    pub end_state: Option<Box<dyn PubSub>>,
}

/// Starts and stops the clocks and counters around set-up and script,
/// so every workload measures the same way.
pub struct Meter {
    at: std::time::Instant,
    allocs: u64,
    bitstr: u64,
    /// Heap bytes live when set-up began (results of earlier runs in
    /// this process); the high-water is reported above them.
    heap_before: usize,
}

/// What the meter read when the script ended.
pub struct Timed {
    setup_s: f64,
    wall_s: f64,
    peak_heap_bytes: usize,
    allocs: u64,
    bitstr_allocs: u64,
}

impl Meter {
    /// Call first: the heap high-water restarts here.
    pub fn start_setup() -> Meter {
        Meter::now(crate::alloc::reset_peak())
    }

    fn now(heap_before: usize) -> Meter {
        Meter {
            at: std::time::Instant::now(),
            allocs: crate::alloc::alloc_count(),
            bitstr: skippub_bits::BitStr::heap_allocations(),
            heap_before,
        }
    }

    /// Ends set-up, starts the script; returns `setup_s`.
    pub fn start_script(&mut self) -> f64 {
        let setup_s = self.at.elapsed().as_secs_f64();
        *self = Meter::now(self.heap_before);
        setup_s
    }

    /// Ends the script. Checks that need more rounds come after this.
    pub fn stop(self, setup_s: f64) -> Timed {
        Timed {
            setup_s,
            wall_s: self.at.elapsed().as_secs_f64(),
            peak_heap_bytes: crate::alloc::peak_bytes() - self.heap_before,
            allocs: crate::alloc::alloc_count() - self.allocs,
            bitstr_allocs: skippub_bits::BitStr::heap_allocations() - self.bitstr,
        }
    }
}

impl Timed {
    pub fn rep(self, counts: Counts, end_state: Box<dyn PubSub>) -> Rep {
        Rep {
            setup_s: self.setup_s,
            wall_s: self.wall_s,
            peak_heap_bytes: self.peak_heap_bytes,
            allocs: self.allocs,
            bitstr_allocs: self.bitstr_allocs,
            counts,
            end_state: Some(end_state),
        }
    }
}
