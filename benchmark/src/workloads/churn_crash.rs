//! `churn-crash`: many small worlds under membership churn, then a
//! burst of unannounced crashes.
//!
//! Membership and recovery: supervisor handlers, subscriber
//! stabilisation, and the incremental checker being dirtied and polled
//! every round do the work; tries and the executor are nearly idle,
//! faults are off. Recovery times differ widely from seed to seed, so
//! the workload is many small instances and a median, not one big one.

use super::scheduled::{bystanders, Slots};
use super::{Counts, Meter, Rep, Scale};
use crate::gen::{derive, Rng};
use crate::sys::{Ledger, Sys};
use crate::trace::Tracer;
use skippub_core::{BackendKind, PubSub, SystemBuilder};
use skippub_harness::scenario::{self, ScenarioSpec, Schedule};
use skippub_sim::NodeId;

struct Cfg {
    instances: usize,
    population: usize,
    warm_rounds: usize,
    /// Scheduled rounds of churn; the publisher publishes in each.
    churn_rounds: u64,
    /// Arrivals, and as many graceful departures, per churn round.
    churn_rate: f64,
    /// Observation window after the churn. `settle_rounds_p50` and
    /// `settled_share` are read here.
    window: usize,
    /// Subscribers crashed without warning once that window closes.
    crashes: usize,
    /// Rounds until the failure detector reports them.
    detect_after: usize,
    /// Observation window after the report. Recovery from a crash has a
    /// tail far longer than any window that fits a run, so it is read
    /// as a per-layer number (`core.supervisor.crash_*`), not gated.
    crash_window: usize,
    sampled: usize,
}

impl Cfg {
    fn at(scale: Scale) -> Cfg {
        Cfg {
            instances: 56,
            population: scale.of(100, 30),
            warm_rounds: 40,
            churn_rounds: scale.of(40, 10) as u64,
            churn_rate: 0.5,
            window: scale.of(250, 200),
            crashes: 2,
            detect_after: 3,
            crash_window: scale.of(60, 10),
            sampled: 32,
        }
    }
}

struct Instance {
    world: Box<dyn PubSub>,
    schedule: Schedule,
    slots: Slots,
    ledger: Ledger,
    rng: Rng,
}

pub fn rep(scale: Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let cfg = Cfg::at(scale);
    let mut meter = Meter::start_setup();

    let root = tr.begin("setup");
    let mut instances: Vec<Instance> = (0..cfg.instances)
        .map(|i| {
            tr.instance = i as u32;
            let seed = derive(seed, i as u64);
            // One publisher at probability one: the number of
            // publications is fixed by the spec, not drawn.
            let spec = ScenarioSpec::new("churn-crash", seed)
                .population(cfg.population)
                .publishers(1)
                .publish_prob(1.0)
                .arrivals_per_round(cfg.churn_rate)
                .departures_per_round(cfg.churn_rate)
                .rounds(cfg.churn_rounds);
            let schedule = scenario::compile(&spec);
            let mut world = SystemBuilder::new(seed).build(BackendKind::Sim);
            let mut sys = Sys::new(world.as_mut(), tr);
            let mut slots = Slots::default();
            let mut ledger = Ledger::default();
            for op in &schedule.prelude {
                slots.apply(&mut sys, &mut ledger, op);
            }
            sys.warm_for(cfg.warm_rounds);
            Instance {
                world,
                schedule,
                slots,
                ledger,
                rng: Rng::new(seed),
            }
        })
        .collect();
    tr.end(root);
    let setup_s = meter.start_script();

    let root = tr.begin("script");
    let mut counts = Counts {
        instances: cfg.instances as u64,
        window: cfg.window as u64,
        crash_window: cfg.crash_window as u64,
        ..Counts::default()
    };
    for (i, inst) in instances.iter_mut().enumerate() {
        tr.instance = i as u32;
        let Instance {
            world,
            schedule,
            slots,
            ledger,
            rng,
        } = inst;
        let mut sys = Sys::new(world.as_mut(), tr);
        let before = sys.ps.stats();

        let mut idle = bystanders(schedule);
        rng.shuffle(&mut idle);
        let victims: Vec<usize> = idle.drain(..cfg.crashes).collect();
        let mut sample: Vec<NodeId> = idle
            .iter()
            .take(cfg.sampled)
            .map(|&s| slots.ids[s])
            .collect();
        sample.sort_unstable();

        // Churn: the compiled schedule, one round of ops and one step at a time.
        for ops in &schedule.rounds {
            for op in ops {
                slots.apply(&mut sys, ledger, op);
            }
            slots.step(&mut sys, ledger, &sample);
        }
        let mut settle = None;
        for w in 0..cfg.window {
            if sys.settled() && settle.is_none() {
                settle = Some(w as u64);
            }
            slots.step(&mut sys, ledger, &sample);
        }
        counts.settle.push(settle);

        // Crashes: unannounced, reported `detect_after` rounds later.
        for &v in &victims {
            sys.crash(slots.ids[v]);
            slots.gone(v);
        }
        for _ in 0..cfg.detect_after {
            slots.step(&mut sys, ledger, &sample);
        }
        for &v in &victims {
            sys.report_crash(slots.ids[v]);
        }
        let mut crash_settle = None;
        for w in 0..cfg.crash_window {
            if sys.settled() && crash_settle.is_none() {
                crash_settle = Some(w as u64);
            }
            slots.step(&mut sys, ledger, &sample);
        }
        counts.crash_settle.push(crash_settle);

        let ids: Vec<NodeId> = slots.members().iter().map(|&(id, _)| id).collect();
        sys.drain_into(&ids, ledger, None);
        let after = sys.ps.stats();
        counts.add_stats(&before, &after);
        counts.node_rounds += slots.node_rounds;
        counts.stored_pubs += sys.ps.publications_converged().1 as u64;
    }
    tr.end(root);
    let timed = meter.stop(setup_s);

    let mut last = None;
    for mut inst in instances {
        counts.close_world(inst.world.as_mut(), inst.ledger, &inst.slots.members());
        last = Some(inst.world);
    }
    timed.rep(counts, last.expect("at least one instance"))
}
