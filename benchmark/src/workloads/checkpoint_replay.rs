//! `checkpoint-replay`: small worlds with a deep history, driven by the
//! scenario engine, recorded, replayed, checkpointed and resumed.
//!
//! The same layers used differently: per-round fixed overhead and
//! per-publication store work weigh more than per-message cost, and
//! the scenario engine, trace codec and snapshot codec (write beside
//! read) are on the path. A gain elsewhere that is paid for with
//! per-round or per-store overhead shows here.

use super::scheduled::{bystanders, Slots};
use super::{Counts, Meter, Rep, Scale};
use crate::gen::{derive, Rng};
use crate::sys::{Ledger, Sys};
use crate::trace::Tracer;
use skippub_core::{BackendKind, PubSub, SystemBuilder};
use skippub_harness::scenario::{self, ScenarioSpec, Schedule, Stop, Trace, WarmStart};
use skippub_sim::NodeId;

/// One world's flood depth, and with it its latencies and settle time,
/// depends on where its publishers sit on the ring; several worlds
/// average that out.
const INSTANCES: usize = 4;
/// Round budget of the stop and settle phases, for the engine and for
/// the driver's own loop alike.
const EXTRA_ROUNDS: u64 = 5_000;
const SAMPLED: usize = 48;

/// The scenario of instance `i`. Everything that sizes the work is
/// fixed by the spec, not drawn: all eight publishers publish every
/// round. There is no churn: a world re-legitimises after a departure
/// in anything from tens to hundreds of rounds, so with churn the
/// length of the stop phase would be a lottery (`churn-crash` measures
/// churn, over many more worlds).
pub fn spec(scale: Scale, seed: u64, i: usize) -> ScenarioSpec {
    ScenarioSpec::new("checkpoint-replay", derive(seed, i as u64))
        .population(scale.of(100, 30))
        .publishers(8)
        .publish_prob(1.0)
        .rounds(scale.of(40, 10) as u64)
        .stop(Stop::UntilLegit {
            max_extra: EXTRA_ROUNDS,
        })
        .settle(EXTRA_ROUNDS)
}

struct Instance {
    spec: ScenarioSpec,
    schedule: Schedule,
    world: Box<dyn PubSub>,
    slots: Slots,
    ledger: Ledger,
}

pub fn rep(scale: Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let mut meter = Meter::start_setup();

    // Set-up is the driver's own worlds: compile, build, populate, warm.
    // (The engine passes below build and warm theirs inside the script.)
    let root = tr.begin("setup");
    let mut instances: Vec<Instance> = (0..INSTANCES)
        .map(|i| {
            tr.instance = i as u32;
            let spec = spec(scale, seed, i);
            let o = tr.begin("harness.compile");
            let schedule = scenario::compile(&spec);
            tr.end(o);
            assert!(schedule.seeds.is_empty());
            let mut world = SystemBuilder::new(spec.seed)
                .protocol(spec.protocol)
                .build(BackendKind::Sim);
            let mut sys = Sys::new(world.as_mut(), tr);
            let mut slots = Slots::default();
            let mut ledger = Ledger::default();
            for op in &schedule.prelude {
                slots.apply(&mut sys, &mut ledger, op);
            }
            // As the engine warms: until legitimate, not a round more,
            // so the driver's loop below retraces the engine's run.
            sys.warm(spec.warm_budget);
            Instance {
                spec,
                schedule,
                world,
                slots,
                ledger,
            }
        })
        .collect();
    tr.end(root);
    let setup_s = meter.start_script();

    let root = tr.begin("script");
    let mut counts = Counts {
        instances: INSTANCES as u64,
        window: EXTRA_ROUNDS,
        ..Counts::default()
    };
    for (i, inst) in instances.iter_mut().enumerate() {
        tr.instance = i as u32;
        let Instance {
            spec,
            schedule,
            world,
            slots,
            ledger,
        } = inst;

        // (a) record, (b) replay: the replayed report must be the recorded one.
        let o = tr.begin("harness.run_recorded");
        let (recorded, trace) =
            scenario::run_recorded(spec, BackendKind::Sim).expect("sim runs the spec");
        tr.end(o);
        let o = tr.begin("harness.trace_codec");
        let trace_text = trace.serialize();
        let parsed = Trace::parse(&trace_text).expect("a trace just written parses");
        tr.end(o);
        let o = tr.begin("harness.trace_replay");
        let replayed = parsed.replay().expect("a sim trace replays");
        tr.end(o);
        assert!(
            recorded.report.ok(),
            "recorded run failed: {}",
            recorded.report.to_json()
        );
        assert_eq!(
            replayed.to_json(),
            recorded.report.to_json(),
            "the replayed report differs from the recorded one"
        );

        // (c) checkpoint half-way, (d) resume: same delivered sets as
        // the uninterrupted run.
        let o = tr.begin("harness.run_with_snapshot");
        let (whole, warm) =
            scenario::run_spec_with_snapshot(spec, BackendKind::Sim, spec.rounds / 2)
                .expect("sim snapshots");
        tr.end(o);
        let o = tr.begin("snapshot.warmstart_codec");
        let warm_text = warm.to_text();
        let warm = WarmStart::parse(&warm_text).expect("a warm start just written parses");
        tr.end(o);
        let o = tr.begin("harness.resume");
        let resumed = scenario::resume_spec(spec, &warm).expect("the warm start resumes");
        tr.end(o);
        assert!(
            resumed.report.ok(),
            "resumed run failed: {}",
            resumed.report.to_json()
        );
        assert_eq!(
            whole.report.delivered_fingerprint,
            recorded.report.delivered_fingerprint
        );
        assert_eq!(
            resumed.report.delivered_fingerprint, whole.report.delivered_fingerprint,
            "the resumed run delivered other sets than the uninterrupted one"
        );

        // (e) the driver's own loop over the same compiled schedule,
        // phase by phase as the engine runs it, with sampled drains for
        // latency.
        let mut sys = Sys::new(world.as_mut(), tr);
        let before = sys.ps.stats();
        let mut idle = bystanders(schedule);
        Rng::new(spec.seed).shuffle(&mut idle);
        let mut sample: Vec<NodeId> = idle.iter().take(SAMPLED).map(|&s| slots.ids[s]).collect();
        sample.sort_unstable();
        for ops in &schedule.rounds {
            for op in ops {
                slots.apply(&mut sys, ledger, op);
            }
            slots.step(&mut sys, ledger, &sample);
        }
        let scheduled = slots.round as u64;
        while !sys.legit() {
            assert!(
                (slots.round as u64) < scheduled + EXTRA_ROUNDS,
                "never legitimate again"
            );
            slots.step(&mut sys, ledger, &sample);
        }
        while !sys.converged() {
            assert!(
                (slots.round as u64) < scheduled + 2 * EXTRA_ROUNDS,
                "publications never converge"
            );
            slots.step(&mut sys, ledger, &sample);
        }
        let settle = slots.round as u64 - scheduled;
        let ids: Vec<NodeId> = slots.members().iter().map(|&(id, _)| id).collect();
        sys.drain_into(&ids, ledger, None);
        let after = sys.ps.stats();
        let stored_pubs = sys.ps.publications_converged().1;

        // The driver's loop and the engine ran the same trajectory.
        assert_eq!(
            after, recorded.report.stats,
            "the driver's loop diverged from the engine's run"
        );
        assert_eq!(
            settle,
            recorded.report.stop_rounds + recorded.report.settle_rounds
        );
        assert_eq!(stored_pubs, recorded.report.total_pubs);

        // What this workload reports as settle time is every round the
        // engine waited for convergence: warm-up from a cold start of the
        // whole population, then the stop and settle phases.
        counts
            .settle
            .push(Some(recorded.report.warm_rounds + settle));
        counts.add_stats(&before, &after);
        counts.node_rounds += slots.node_rounds;
        counts.stored_pubs += stored_pubs as u64;
        counts.trace_bytes += trace_text.len() as u64;
        counts.checkpoint_bytes += warm_text.len() as u64;
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
