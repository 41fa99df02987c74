//! [`ScenarioSpec`]: the declarative description of a workload.
//!
//! A spec names *what happens* — population, churn processes, topic
//! popularity, publish rate, crash storms, adversarial starts, stop
//! condition — and never *how a backend executes it*. The
//! [compiler](crate::scenario::schedule) turns a spec into a
//! deterministic, seeded event schedule; the
//! [engine](crate::scenario::engine) applies that schedule to any
//! [`PubSub`](skippub_core::PubSub) backend.

use skippub_core::{BackendKind, ProtocolConfig};
use skippub_sim::FaultSpec;

/// How subscribers (initial population and arrivals) pick their topic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Popularity {
    /// Deterministic even split: slot `i` subscribes to topic
    /// `i mod topics`.
    Uniform,
    /// Zipf-distributed popularity: topic `k` (0-based rank) is chosen
    /// with probability proportional to `1 / (k+1)^s`. The classic
    /// skewed fan-out of real topic-based workloads (a few hot topics,
    /// a long tail).
    Zipf {
        /// Skew exponent (`s = 0` degenerates to uniform draws; ~1 is
        /// the classic web-popularity skew).
        s: f64,
    },
}

/// When a scenario stops driving rounds (after the scheduled rounds are
/// exhausted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// Stop right after the scheduled rounds (steady-state measurement).
    FixedRounds,
    /// Keep stepping until every topic is legitimate (Definition 1), up
    /// to `max_extra` additional rounds.
    UntilLegit {
        /// Extra-round budget after the schedule.
        max_extra: u64,
    },
    /// Keep stepping until all publication stores agree (Theorem 17),
    /// up to `max_extra` additional rounds.
    UntilPubsConverged {
        /// Extra-round budget after the schedule.
        max_extra: u64,
    },
}

impl Stop {
    /// Short machine name used in reports and trace headers.
    pub fn name(&self) -> &'static str {
        match self {
            Stop::FixedRounds => "fixed_rounds",
            Stop::UntilLegit { .. } => "until_legit",
            Stop::UntilPubsConverged { .. } => "until_pubs_converged",
        }
    }

    /// Parses [`Stop::name`] back (budget from the second field).
    pub fn from_name(name: &str, max_extra: u64) -> Option<Stop> {
        match name {
            "fixed_rounds" => Some(Stop::FixedRounds),
            "until_legit" => Some(Stop::UntilLegit { max_extra }),
            "until_pubs_converged" => Some(Stop::UntilPubsConverged { max_extra }),
            _ => None,
        }
    }

    /// The extra-round budget (0 for fixed rounds).
    pub fn max_extra(&self) -> u64 {
        match self {
            Stop::FixedRounds => 0,
            Stop::UntilLegit { max_extra } | Stop::UntilPubsConverged { max_extra } => *max_extra,
        }
    }
}

/// What a churn burst does to its victims.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BurstKind {
    /// Victims crash without warning (§3.3). If `detect_after` is set,
    /// the failure detector reports every victim to the supervisor(s)
    /// that many rounds later; if `None` the crash goes unreported and
    /// recovery relies on the protocol's own probes.
    Crash {
        /// Detector latency in rounds, `None` = never reported.
        detect_after: Option<u64>,
    },
    /// Victims leave gracefully via `Unsubscribe` (Lemma 6).
    Leave,
}

/// A synchronized churn burst: `count` victims at round `at`.
///
/// Victims are drawn from the *churn-fodder* population (slots that are
/// not publishers), spread evenly over it, so no publication is lost to
/// a crashed author and delivered sets stay backend-comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Burst {
    /// Scheduled round the burst fires in.
    pub at: u64,
    /// Number of victims.
    pub count: usize,
    /// Crash or graceful leave.
    pub kind: BurstKind,
}

/// A declarative scenario: node population and churn processes, topic
/// popularity, publish load, crash storms, adversarial initial
/// publication placement, and a stop condition — compiled into a
/// deterministic seeded schedule and executable on **any** `PubSub`
/// backend.
///
/// ```
/// use skippub_harness::scenario::{self, ScenarioSpec, Stop};
/// use skippub_core::BackendKind;
///
/// let spec = ScenarioSpec::new("doc-steady", 7)
///     .population(5)
///     .publishers(2)
///     .publish_prob(0.4)
///     .rounds(10)
///     .stop(Stop::FixedRounds);
/// let outcome = scenario::run_spec(&spec, BackendKind::Sim).unwrap();
/// assert!(outcome.report.ok(), "{}", outcome.report.to_json());
/// // Every publication the two publishers issued reached every member.
/// assert_eq!(outcome.report.total_pubs, outcome.report.ops.publishes);
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (reports, traces, CLI).
    pub name: String,
    /// Seed for schedule compilation *and* backend construction.
    pub seed: u64,
    /// Number of topics (`TopicId(0..topics)`); single-topic backends
    /// only run specs with `topics == 1`.
    pub topics: u32,
    /// Partitions of the partitioned backend: supervisor shards on the
    /// sharded kind, client partitions behind the one supervisor on the
    /// multi-topic kind (ignored by the single-topic backends).
    pub shards: usize,
    /// Worker-thread cap for the partitioned backend's parallel round
    /// executor (ignored elsewhere). Purely an execution knob — results
    /// are byte-identical for every value.
    pub threads: usize,
    /// Supervisor replicas per group (`1` = the paper's unreplicated
    /// supervisor; `≥ 2` maintains a replica group behind every
    /// supervisor endpoint, enabling [`ScenarioSpec::sup_crash`]).
    pub replicas: usize,
    /// Topic→shard rebalancing cadence for the sharded backend: every
    /// `r` rounds hot topics are moved off overloaded shards based on
    /// the per-partition delivered-work counters (`0` = placement is
    /// fixed by the consistent-hash ring). Deterministic and
    /// thread-count-invariant; ignored by single-supervisor backends.
    pub rebalance_every: u64,
    /// Scheduled supervisor-primary crashes, as `(round, topic)`: at
    /// the start of `round` the primary replica of the supervisor group
    /// responsible for `topic` is killed and a backup takes over. The
    /// compiler appends these **after** every RNG draw, so a spec
    /// stripped of them compiles to the byte-identical remaining
    /// schedule — the failover oracle's never-crashing baseline.
    pub sup_crashes: Vec<(u64, u32)>,
    /// Link-fault schedule armed at the start of the **run** phase
    /// (populate/warm/seed run fault-free, and fault-window rounds are
    /// relative to the run phase's first round). `None` = perfect links.
    /// Ignored by the threaded backend (real channels cannot be
    /// deterministically faulted).
    pub faults: Option<FaultSpec>,
    /// Protocol knobs applied to every subscriber.
    pub protocol: ProtocolConfig,
    /// Initial subscriber population (slots `0..population`).
    pub population: usize,
    /// How subscribers pick their topic.
    pub popularity: Popularity,
    /// The first `publishers` slots form the stable publishing core;
    /// they never churn, so no publication is lost mid-flood and
    /// delivered sets are comparable across backends.
    pub publishers: usize,
    /// Per-publisher, per-scheduled-round publish probability.
    pub publish_prob: f64,
    /// Payloads are padded to at least this many bytes.
    pub payload_bytes: usize,
    /// Adversarial start: this many publications are seeded directly
    /// into arbitrary (deterministically drawn) subscriber stores before
    /// the schedule runs — Theorem 17's arbitrary initial distribution.
    pub scattered_pubs: usize,
    /// Mean arrivals per scheduled round (fractional rates accumulate).
    pub arrivals_per_round: f64,
    /// Mean graceful departures per scheduled round, drawn from the
    /// churn-fodder population. Unlike a [`Burst`] (which asserts when
    /// it outnumbers the pool), a continuous process that outpaces the
    /// fodder simply runs the pool dry: accrued departures with nobody
    /// left to leave are dropped — the compiler never errors a spec
    /// whose churn dynamics self-limit.
    pub departures_per_round: f64,
    /// Synchronized churn bursts (crash storms, leave waves).
    pub bursts: Vec<Burst>,
    /// Scheduled rounds (the driven part of the workload).
    pub rounds: u64,
    /// Bootstrap the initial population to legitimacy before the
    /// schedule runs (a *warm* start; `false` = cold / adversarial
    /// start).
    pub warm: bool,
    /// Round budget for the warm bootstrap.
    pub warm_budget: u64,
    /// Stop condition applied after the scheduled rounds.
    pub stop: Stop,
    /// Post-stop convergence budget: the engine steps until publication
    /// stores agree (or the budget runs out) before draining final
    /// deliveries, so fixed-round schedules still end comparable.
    pub settle: u64,
}

impl ScenarioSpec {
    /// A minimal spec: one topic, default protocol, warm start, no
    /// churn, no publishes, fixed 0 rounds. Build it up with the
    /// chaining setters. The name must be non-empty and single-line (it
    /// is a trace-header line and a report field).
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        let name = name.into();
        assert!(
            !name.trim().is_empty() && !name.contains('\n'),
            "scenario name must be non-empty and single-line, got {name:?}"
        );
        ScenarioSpec {
            name,
            seed,
            topics: 1,
            shards: 1,
            threads: 1,
            replicas: 1,
            rebalance_every: 0,
            sup_crashes: Vec::new(),
            faults: None,
            protocol: ProtocolConfig::default(),
            population: 0,
            popularity: Popularity::Uniform,
            publishers: 0,
            publish_prob: 0.0,
            payload_bytes: 8,
            scattered_pubs: 0,
            arrivals_per_round: 0.0,
            departures_per_round: 0.0,
            bursts: Vec::new(),
            rounds: 0,
            warm: true,
            warm_budget: 4_000,
            stop: Stop::FixedRounds,
            settle: 1_000,
        }
    }

    /// Sets the topic count (`≥ 1`).
    pub fn topics(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one topic");
        self.topics = n;
        self
    }

    /// Sets the shard (= partition) count for the partitioned backend.
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        self.shards = k;
        self
    }

    /// Sets the worker-thread cap for the partitioned backend's
    /// parallel round executor (results are identical for every value).
    pub fn threads(mut self, t: usize) -> Self {
        assert!(t >= 1, "need at least one worker thread");
        self.threads = t;
        self
    }

    /// Sets the supervisor replica count (`≥ 1`; `1` = unreplicated).
    pub fn replicas(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one supervisor replica");
        self.replicas = k;
        self
    }

    /// Sets the topic→shard rebalancing cadence (`0` = off).
    pub fn rebalance_every(mut self, r: u64) -> Self {
        self.rebalance_every = r;
        self
    }

    /// Schedules a supervisor-primary crash at the start of round `at`,
    /// targeting the group responsible for `topic`. Requires
    /// `replicas ≥ 2` to actually fail anything over (the op is a
    /// uniform no-op on an unreplicated supervisor).
    pub fn sup_crash(mut self, at: u64, topic: u32) -> Self {
        self.sup_crashes.push((at, topic));
        self
    }

    /// Arms a link-fault schedule for the run phase (normalized so the
    /// header line and the armed plane are canonical).
    pub fn faults(mut self, mut spec: FaultSpec) -> Self {
        spec.normalize();
        self.faults = Some(spec);
        self
    }

    /// A copy of this spec with the fault schedule stripped — the
    /// fault-storm oracle's perfect-link twin. Fault arming happens
    /// outside the schedule compiler, so the twin compiles to the
    /// byte-identical op schedule.
    pub fn without_faults(&self) -> Self {
        let mut twin = self.clone();
        twin.faults = None;
        twin
    }

    /// Sets the protocol knobs.
    pub fn protocol(mut self, cfg: ProtocolConfig) -> Self {
        self.protocol = cfg;
        self
    }

    /// Sets the initial population.
    pub fn population(mut self, n: usize) -> Self {
        self.population = n;
        self
    }

    /// Sets the topic-popularity model.
    pub fn popularity(mut self, p: Popularity) -> Self {
        self.popularity = p;
        self
    }

    /// Sets the publisher-core size (clamped to the population by the
    /// compiler).
    pub fn publishers(mut self, n: usize) -> Self {
        self.publishers = n;
        self
    }

    /// Sets the per-publisher per-round publish probability.
    pub fn publish_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability in [0, 1]");
        self.publish_prob = p;
        self
    }

    /// Sets the minimum payload size.
    pub fn payload_bytes(mut self, n: usize) -> Self {
        self.payload_bytes = n;
        self
    }

    /// Seeds `n` publications into arbitrary stores before the schedule.
    pub fn scattered_pubs(mut self, n: usize) -> Self {
        self.scattered_pubs = n;
        self
    }

    /// Sets the arrival churn rate.
    pub fn arrivals_per_round(mut self, r: f64) -> Self {
        assert!(r >= 0.0);
        self.arrivals_per_round = r;
        self
    }

    /// Sets the graceful-departure churn rate.
    pub fn departures_per_round(mut self, r: f64) -> Self {
        assert!(r >= 0.0);
        self.departures_per_round = r;
        self
    }

    /// Adds a churn burst.
    pub fn burst(mut self, b: Burst) -> Self {
        self.bursts.push(b);
        self
    }

    /// Sets the scheduled round count.
    pub fn rounds(mut self, n: u64) -> Self {
        self.rounds = n;
        self
    }

    /// Cold start: skip the warm bootstrap (all joins run through the
    /// protocol from an arbitrary/empty initial state).
    pub fn cold(mut self) -> Self {
        self.warm = false;
        self
    }

    /// Sets the warm-bootstrap budget.
    pub fn warm_budget(mut self, n: u64) -> Self {
        self.warm_budget = n;
        self
    }

    /// Sets the stop condition.
    pub fn stop(mut self, s: Stop) -> Self {
        self.stop = s;
        self
    }

    /// Sets the settle budget.
    pub fn settle(mut self, n: u64) -> Self {
        self.settle = n;
        self
    }

    /// Whether `kind` can execute this spec (single-topic backends only
    /// serve `topics == 1`; multi-topic and sharded serve any count).
    pub fn supported(&self, kind: BackendKind) -> bool {
        serves(kind, self.topics)
    }

    /// The in-process backends this spec runs on, in conformance-sweep
    /// order.
    pub fn supported_backends(&self) -> Vec<BackendKind> {
        BackendKind::all()
            .into_iter()
            .filter(|k| self.supported(*k))
            .collect()
    }
}

/// Whether `kind` can serve `topics` topics.
pub(super) fn serves(kind: BackendKind, topics: u32) -> bool {
    match kind {
        BackendKind::Sim | BackendKind::Chaos => topics == 1,
        BackendKind::MultiTopic | BackendKind::Sharded => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_fields() {
        let s = ScenarioSpec::new("t", 3)
            .topics(4)
            .shards(2)
            .threads(4)
            .population(10)
            .publishers(2)
            .publish_prob(0.5)
            .rounds(7)
            .arrivals_per_round(0.5)
            .departures_per_round(0.25)
            .burst(Burst {
                at: 3,
                count: 2,
                kind: BurstKind::Leave,
            })
            .cold()
            .stop(Stop::UntilLegit { max_extra: 99 });
        assert_eq!(s.topics, 4);
        assert_eq!(s.threads, 4);
        assert_eq!(s.population, 10);
        assert!(!s.warm);
        assert_eq!(s.bursts.len(), 1);
        assert_eq!(s.stop.max_extra(), 99);
    }

    #[test]
    fn support_follows_topic_count() {
        let single = ScenarioSpec::new("s", 1);
        assert_eq!(single.supported_backends().len(), 4);
        let multi = ScenarioSpec::new("m", 1).topics(3);
        assert!(!multi.supported(BackendKind::Sim));
        assert!(!multi.supported(BackendKind::Chaos));
        assert!(multi.supported(BackendKind::MultiTopic));
        assert!(multi.supported(BackendKind::Sharded));
    }

    #[test]
    fn replica_knobs_chain_and_default_off() {
        let plain = ScenarioSpec::new("p", 1);
        assert_eq!(plain.replicas, 1);
        assert!(plain.sup_crashes.is_empty());
        let s = ScenarioSpec::new("r", 1)
            .replicas(3)
            .sup_crash(4, 0)
            .sup_crash(9, 0);
        assert_eq!(s.replicas, 3);
        assert_eq!(s.sup_crashes, vec![(4, 0), (9, 0)]);
    }

    #[test]
    fn stop_names_round_trip() {
        for s in [
            Stop::FixedRounds,
            Stop::UntilLegit { max_extra: 5 },
            Stop::UntilPubsConverged { max_extra: 5 },
        ] {
            assert_eq!(Stop::from_name(s.name(), s.max_extra()), Some(s));
        }
        assert_eq!(Stop::from_name("nope", 0), None);
    }
}
