//! Measuring one workload: repetitions of its script until the measuring
//! time is used up, the checks on what they produced, the end-to-end
//! summaries, and — in a traced run — the per-layer numbers.

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{censored_median, grouped_percentile, median, percentile, quartiles};
use crate::trace::{totals_under, NameTotal, Span, Tracer};
use crate::workloads::{checkpoint_replay, Counts, Rep, Scale, Workload};
use skippub_core::{BackendKind, PubSub};
use skippub_harness::scenario;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Options {
    pub scale: Scale,
    pub seed: u64,
    /// Scripts repeat until their timed windows add up to this.
    pub seconds: f64,
    pub trace: bool,
}

pub struct Summary {
    pub def: &'static Def,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

pub struct Outcome {
    pub workload: Workload,
    pub repetitions: usize,
    pub end_to_end: Vec<Summary>,
    /// Empty unless traced.
    pub per_layer: Vec<(&'static Def, f64)>,
    /// What a check found wrong; empty means the outputs are correct.
    pub problems: Vec<String>,
    pub counts: Counts,
    /// Spans of the first traced repetition, for `trace.json`.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// (publication, live member) pairs that should have been drained.
    pub fn attempted(&self) -> u64 {
        self.counts.delivery.expected_pairs
    }

    /// Those pairs that never were.
    pub fn failed(&self) -> u64 {
        self.counts.delivery.undelivered_pairs
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Executor workers in the timed runs. One: on the 2-vCPU machine this
/// was sized on, two workers waiting for each other at every round
/// barrier made one run in six 10 % slower than the rest (`wall_s`
/// spread over the bound), where one worker repeats within 1 %. What
/// two workers gain is measured in the traced pass
/// (`sim.partitioned.parallel_speedup`), and the counts must be the
/// same at one worker and at two in every run.
pub const WORKERS: usize = 1;

pub fn measure(w: Workload, opt: &Options) -> Outcome {
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut spans: Vec<Vec<Span>> = Vec::new();
    // The last world a script left behind; dropped before the next
    // repetition starts so its heap is not counted twice.
    let mut world: Option<Box<dyn PubSub>> = None;
    let mut one_rep = |tracing: bool| {
        drop(world.take());
        let mut tr = Tracer::new(tracing);
        let mut rep = w.rep(opt.scale, opt.seed, WORKERS, &mut tr);
        world = rep.end_state.take();
        (rep, tr.take_spans())
    };
    let mut timed = 0.0;
    while plain.is_empty() || timed < opt.seconds {
        let (rep, _) = one_rep(false);
        timed += rep.wall_s;
        plain.push(rep);
        if opt.trace {
            let (rep, rep_spans) = one_rep(true);
            timed += rep.wall_s;
            traced.push(rep);
            spans.push(rep_spans);
        }
    }
    let world = world.expect("every repetition leaves its world");

    let counts = plain[0].counts.clone();
    let mut problems = Vec::new();
    if plain.iter().chain(&traced).any(|r| r.counts != counts) {
        problems.push("counts differ between repetitions of one seed".to_string());
    }
    let d = counts.delivery;
    if d.wrong_sets > 0 {
        problems.push(format!(
            "{} members drained a wrong or duplicated set",
            d.wrong_sets
        ));
    }
    if d.expected_pairs == 0 {
        problems.push("nothing was published".to_string());
    }

    // steady-fanout: the same counts at one worker and at two.
    let mut other_step_s = None;
    if w == Workload::SteadyFanout {
        let other = 2;
        let mut tr = Tracer::new(opt.trace);
        let rep = w.rep(opt.scale, opt.seed, other, &mut tr);
        if rep.counts != counts {
            problems.push(format!(
                "counts at {other} workers differ from those at {WORKERS}"
            ));
        }
        if opt.trace {
            let totals = totals_under(&tr.take_spans(), "script");
            other_step_s = totals.get("sim.step").map(|t| t.self_ns as f64 / 1e9);
        }
    }

    let end_to_end = summarize(&plain, &counts);
    let (per_layer, first_spans) = if opt.trace {
        let values = layers(
            w,
            opt,
            &plain,
            &traced,
            &spans,
            world.as_ref(),
            other_step_s,
        );
        let per_layer = PER_LAYER
            .iter()
            .map(|def| (def, values.get(def.name).copied().unwrap_or(0.0)))
            .collect();
        (per_layer, spans.swap_remove(0))
    } else {
        (Vec::new(), Vec::new())
    };

    Outcome {
        workload: w,
        repetitions: plain.len(),
        end_to_end,
        per_layer,
        problems,
        counts,
        spans: first_spans,
    }
}

/// The end-to-end metrics: timings and heap as samples over the
/// untraced repetitions, the rest from the counts (equal in every one).
fn summarize(plain: &[Rep], c: &Counts) -> Vec<Summary> {
    let d = c.delivery;
    END_TO_END
        .iter()
        .map(|def| {
            let samples: Vec<f64> = match def.name {
                "setup_s" => plain.iter().map(|r| r.setup_s).collect(),
                "wall_s" => plain.iter().map(|r| r.wall_s).collect(),
                "peak_heap_mb" => plain
                    .iter()
                    .map(|r| r.peak_heap_bytes as f64 / 1e6)
                    .collect(),
                name => {
                    let value = match name {
                        "settle_rounds_p50" => censored_median(&c.settle, c.window),
                        "deliver_latency_rounds_p50" => grouped_percentile(&c.latency_hist, 0.50),
                        "deliver_latency_rounds_p99" => grouped_percentile(&c.latency_hist, 0.99),
                        "msgs_per_node_round" => c.sent as f64 / c.node_rounds as f64,
                        "delivered_share" => {
                            1.0 - d.undelivered_pairs as f64 / d.expected_pairs.max(1) as f64
                        }
                        other => unreachable!("no rule for end-to-end metric {other}"),
                    };
                    vec![value; plain.len()]
                }
            };
            let [q1, q2, q3] = quartiles(&samples);
            Summary {
                def,
                median: q2,
                q1,
                q3,
                samples,
            }
        })
        .collect()
}

/// Totals of several repetitions' spans, merged by name.
fn pooled(spans: &[Vec<Span>], root: &str) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for rep in spans {
        for (name, t) in totals_under(rep, root) {
            let into = out.entry(name).or_default();
            into.calls += t.calls;
            into.self_ns += t.self_ns;
            into.per_call_us.extend(t.per_call_us);
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn layers(
    w: Workload,
    opt: &Options,
    plain: &[Rep],
    traced: &[Rep],
    spans: &[Vec<Span>],
    world: &dyn PubSub,
    other_step_s: Option<f64>,
) -> BTreeMap<&'static str, f64> {
    let c = &plain[0].counts;
    let reps = traced.len() as f64;
    let script = pooled(spans, "script");
    let setup = pooled(spans, "setup");
    let none = NameTotal::default();
    let of = |name: &str| script.get(name).unwrap_or(&none);
    // Per-repetition seconds of a name's self time, and its share of the script.
    let script_ns: f64 = spans
        .iter()
        .flatten()
        .filter(|s| s.name == "script")
        .map(|s| s.dur_ns() as f64)
        .sum();
    let secs = |t: &NameTotal| t.self_ns as f64 / 1e9 / reps;
    let share = |ns: u64| ns as f64 / script_ns;
    let prefix_ns = |p: &str| -> u64 {
        script
            .iter()
            .filter(|(n, _)| n.starts_with(p))
            .map(|(_, t)| t.self_ns)
            .sum()
    };
    // Per-call latency of a facade operation, over set-up and script.
    let call_us_p50 = |name: &str| -> f64 {
        let all: Vec<f64> = [&script, &setup]
            .iter()
            .filter_map(|m| m.get(name))
            .flat_map(|t| t.per_call_us.iter().copied())
            .collect();
        if all.is_empty() {
            0.0
        } else {
            percentile(&all, 0.5)
        }
    };

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let step = of("sim.step");
    let step_s = secs(step);
    v.insert("sim.step_s", step_s);
    v.insert("sim.step_share", share(step.self_ns));
    if !step.per_call_us.is_empty() {
        v.insert("sim.step_us_p50", percentile(&step.per_call_us, 0.50));
        v.insert("sim.step_us_p99", percentile(&step.per_call_us, 0.99));
        v.insert("sim.node_rounds_per_s", c.node_rounds as f64 / step_s);
    }
    v.insert("sim.msgs_sent", c.sent as f64);
    v.insert("sim.msgs_delivered", c.delivered_msgs as f64);
    v.insert("sim.msgs_dropped", c.dropped as f64);
    v.insert("sim.peak_in_flight", c.peak_in_flight as f64);

    // The bare engine at this workload's size and message volume.
    let per_instance = |x: u64| x / c.instances;
    let nodes = (c.node_rounds / c.rounds.max(1)).max(2);
    let fan = (c.sent as f64 / c.node_rounds as f64).round().max(1.0) as u64;
    let volume = per_instance(c.delivered_msgs).min(2_000_000);
    let (bare, faults_ns) =
        probes::bare_ns_per_msg(nodes, fan, volume, w == Workload::PartitionHeal, opt.seed);
    v.insert("sim.bare_ns_per_msg", bare);
    if step_s > 0.0 {
        v.insert(
            "core.handlers_ns_per_msg",
            step_s * 1e9 / c.delivered_msgs as f64 - bare,
        );
    }

    let poll = of("core.checker.poll");
    v.insert("core.checker.polls", poll.calls as f64 / reps);
    v.insert("core.checker.poll_s", secs(poll));
    v.insert("core.checker.poll_share", share(poll.self_ns));
    if !poll.per_call_us.is_empty() {
        v.insert(
            "core.checker.poll_us_p50",
            percentile(&poll.per_call_us, 0.50),
        );
        v.insert(
            "core.checker.poll_us_p99",
            percentile(&poll.per_call_us, 0.99),
        );
    }

    let ops_ns = prefix_ns("core.pubsub.");
    v.insert("core.pubsub.ops_s", ops_ns as f64 / 1e9 / reps);
    v.insert("core.pubsub.ops_share", share(ops_ns));
    v.insert(
        "core.pubsub.publish_us_p50",
        call_us_p50("core.pubsub.publish"),
    );
    v.insert(
        "core.pubsub.subscribe_us_p50",
        call_us_p50("core.pubsub.subscribe"),
    );
    v.insert(
        "core.pubsub.unsubscribe_us_p50",
        call_us_p50("core.pubsub.unsubscribe"),
    );
    v.insert("core.pubsub.drain_us_p50", call_us_p50("core.pubsub.drain"));

    let store = (c.delivery.expected_pairs / c.delivery.members.max(1)).max(1) as usize;
    let trie = probes::trie_costs(store, (store / 2).clamp(1, 64), opt.seed);
    v.insert("trie.insert_ns", trie.insert_ns);
    v.insert("trie.batch_apply_ns_per_pub", trie.batch_apply_ns_per_pub);
    v.insert("trie.sync_us", trie.sync_us);
    v.insert(
        "trie.sync_msgs_per_missing_pub",
        trie.sync_msgs_per_missing_pub,
    );
    v.insert("trie.commit_open_us", trie.commit_open_us);
    v.insert("trie.stored_pubs", c.stored_pubs as f64);

    let snap = probes::snapshot_costs(world);
    v.insert("snapshot.bytes", snap.bytes);
    v.insert(
        "snapshot.bytes_per_node",
        snap.bytes / world.subscriber_ids().len().max(1) as f64,
    );
    v.insert("snapshot.save_mb_s", snap.save_mb_s);
    v.insert("snapshot.restore_mb_s", snap.restore_mb_s);
    v.insert("snapshot.codec_share", share(prefix_ns("snapshot.")));
    v.insert("harness.share", share(prefix_ns("harness.")));

    let (hash_ns, label_ns) = probes::hash_and_label_ns();
    v.insert("bits.hash_ns", hash_ns);
    v.insert("ringmath.label_ns", label_ns);
    v.insert(
        "bits.bitstr_heap_allocations",
        median(
            &plain
                .iter()
                .map(|r| r.bitstr_allocs as f64)
                .collect::<Vec<_>>(),
        ),
    );
    v.insert(
        "proc.allocs_per_node_round",
        median(&plain.iter().map(|r| r.allocs as f64).collect::<Vec<_>>()) / c.node_rounds as f64,
    );

    let driver_share = share(of("script").self_ns);
    v.insert("proc.driver_share", driver_share);
    v.insert("trace.accounted_share", 1.0 - driver_share);
    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    v.insert(
        "trace.overhead_share",
        (wall(traced) - wall(plain)) / wall(plain),
    );
    v.insert("trace.spans", spans[0].len() as f64);
    let unsettled = c.settle.iter().filter(|s| s.is_none()).count();
    v.insert(
        "settle.unsettled_share",
        unsettled as f64 / c.settle.len() as f64,
    );
    v.insert("run.repetitions", plain.len() as f64);
    v.insert("run.traced_repetitions", reps);
    v.insert(
        "run.latency_samples",
        c.latency_hist.iter().sum::<u64>() as f64,
    );
    v.insert("run.publications", c.delivery.publications as f64);
    v.insert("run.threads", WORKERS as f64);

    match w {
        Workload::SteadyFanout => {
            // Step time at one worker over step time at two; no claim on one core.
            if let (Some(two_workers_s), true) = (other_step_s, nproc() >= 2) {
                v.insert("sim.partitioned.parallel_speedup", step_s / two_workers_s);
            }
            v.insert(
                "sim.partitioned.lock_acquisitions_per_round",
                c.lock_acquisitions as f64 / c.rounds as f64,
            );
            v.insert(
                "sim.partitioned.cross_envelopes_per_round",
                c.cross_envelopes as f64 / c.rounds as f64,
            );
            v.insert("sim.partitioned.delivered_imbalance", c.delivered_imbalance);
            v.insert("sim.partitioned.stepped_imbalance", c.stepped_imbalance);
        }
        Workload::ChurnCrash => {
            let (sub, unsub) = probes::supervisor_msgs_per_op(nodes as usize, opt.seed);
            v.insert("core.supervisor.msgs_per_subscribe", sub);
            v.insert("core.supervisor.msgs_per_unsubscribe", unsub);
            v.insert(
                "core.supervisor.crash_settle_rounds_p50",
                censored_median(&c.crash_settle, c.crash_window),
            );
            let unsettled = c.crash_settle.iter().filter(|s| s.is_none()).count();
            v.insert(
                "core.supervisor.crash_unsettled_share",
                unsettled as f64 / c.instances as f64,
            );
            let (ratio, failovers) =
                probes::replica_overhead(nodes as usize, opt.scale.of(500, 50), opt.seed);
            v.insert("core.replica.overhead_ratio", ratio);
            v.insert("core.replica.failovers", failovers);
        }
        Workload::PartitionHeal => {
            v.insert("sim.faults.dropped_by_fault", c.dropped_by_fault as f64);
            v.insert("sim.faults.duplicated", c.duplicated as f64);
            v.insert("sim.faults.reordered", c.reordered as f64);
            v.insert("sim.faults.delayed", c.delayed as f64);
            v.insert("sim.faults.ns_per_msg", faults_ns);
        }
        Workload::CheckpointReplay => {
            // `run_spec` (no recording) over every instance's spec.
            let t = Instant::now();
            for i in 0..c.instances as usize {
                let spec = checkpoint_replay::spec(opt.scale, opt.seed, i);
                let plain_run =
                    scenario::run_spec(&spec, BackendKind::Sim).expect("sim runs the spec");
                assert!(plain_run.report.ok());
            }
            let run_spec_s = t.elapsed().as_secs_f64();
            // The driver's own loop: its set-up plus whatever of the
            // script is not inside an engine or codec call.
            let engine_ns = prefix_ns("harness.") + prefix_ns("snapshot.");
            let own_s = (script_ns - engine_ns as f64) / 1e9 / reps
                + median(&traced.iter().map(|r| r.setup_s).collect::<Vec<_>>());
            v.insert(
                "harness.engine_overhead_share",
                (run_spec_s - own_s) / run_spec_s,
            );
            v.insert(
                "harness.record_overhead_share",
                (secs(of("harness.run_recorded")) - run_spec_s) / run_spec_s,
            );
            v.insert(
                "harness.compile_ms",
                setup
                    .get("harness.compile")
                    .map_or(0.0, |t| t.self_ns as f64 / 1e6 / reps),
            );
            v.insert("harness.trace_bytes", c.trace_bytes as f64);
            v.insert("harness.checkpoint_bytes", c.checkpoint_bytes as f64);
            v.insert("harness.trace_replay_s", secs(of("harness.trace_replay")));
            v.insert("harness.resume_s", secs(of("harness.resume")));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::driver_line;

    fn quick(trace: bool) -> Options {
        Options {
            scale: Scale::Quick,
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    /// Every workload, at the smoke size: outputs correct, nothing
    /// undelivered, and the driver's line carries exactly the metrics of
    /// the pass that ran.
    #[test]
    fn every_workload_runs_and_reports_to_the_contract() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = measure(w, &quick(trace));
                assert!(o.correct(), "{}: {:?}", w.name(), o.problems);
                assert!(o.attempted() > 0 && o.failed() == 0, "{}", w.name());
                let line = driver_line(&o, trace);
                assert!(!line.contains('\n'));
                let j = Json::parse(&line).expect("the driver's line is JSON");
                let Json::Obj(top) = &j else {
                    panic!("not an object")
                };
                let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let Some(Json::Obj(metrics)) = j.get("metrics") else {
                    panic!("no metrics")
                };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|d| d.name).collect()
                } else {
                    END_TO_END.iter().map(|d| d.name).collect()
                };
                assert_eq!(names, want, "{}", w.name());
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{}: {name} = {value:?}",
                        w.name()
                    );
                    if !trace {
                        assert!(value != Some(0.0), "{}: end-to-end {name} is 0", w.name());
                    }
                }
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_counts_and_another_seed_other_inputs() {
        let a = measure(Workload::PartitionHeal, &quick(false));
        let b = measure(Workload::PartitionHeal, &quick(false));
        assert_eq!(a.counts, b.counts);
        let c = measure(
            Workload::PartitionHeal,
            &Options {
                seed: 8,
                ..quick(false)
            },
        );
        assert_ne!(a.counts.delivery.fingerprint, c.counts.delivery.fingerprint);
    }
}
