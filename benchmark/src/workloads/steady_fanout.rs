//! `steady-fanout`: one big sharded world under publish load.
//!
//! The delivery-heavy case: the engine round loop, the partitioned
//! executor, handler dispatch, flooding and trie inserts do nearly all
//! the work; the fault plane, supervisor and harness do almost none,
//! and the checker is polled only in the short quiet windows between
//! bursts. The only workload that uses both cores.

use super::{Counts, Meter, Rep, Scale};
use crate::gen::{shuffled_ranks, zipf_quotas, Rng};
use crate::sys::{Ledger, Sys};
use crate::trace::Tracer;
use skippub_core::{BackendKind, SystemBuilder};
use skippub_sim::NodeId;

struct Cfg {
    subscribers: usize,
    topics: usize,
    shards: usize,
    /// Rounds of warm-up after the last subscribe; fixed, so set-up is
    /// the same work for every seed.
    warm_rounds: usize,
    /// Publish load comes in bursts; after each, an observation window.
    /// One world settles in a whole number of rounds that differs by one
    /// from seed to seed; several windows make the median steady.
    bursts: usize,
    burst_rounds: usize,
    pubs_per_round: usize,
    /// Observation window after each burst: no publishes, a poll a round.
    window: usize,
    /// Subscribers drained every round for latency.
    sampled: usize,
}

impl Cfg {
    fn at(scale: Scale) -> Cfg {
        Cfg {
            subscribers: scale.of(4_000, 64),
            topics: 64,
            shards: 8,
            warm_rounds: 40,
            bursts: 8,
            burst_rounds: scale.of(10, 3),
            pubs_per_round: 4,
            window: 8,
            sampled: 1_024,
        }
    }
}

pub fn rep(scale: Scale, seed: u64, threads: usize, tr: &mut Tracer) -> Rep {
    let cfg = Cfg::at(scale);
    let mut rng = Rng::new(seed);
    let mut meter = Meter::start_setup();

    // Set-up: subscribe through the facade, warm to legitimacy.
    let root = tr.begin("setup");
    let mut world = SystemBuilder::new(seed)
        .topics(cfg.topics as u32)
        .shards(cfg.shards)
        .threads(threads)
        .build(BackendKind::Sharded);
    let mut sys = Sys::new(world.as_mut(), tr);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.topics];
    let mut everyone: Vec<(NodeId, u32)> = Vec::with_capacity(cfg.subscribers);
    for topic in shuffled_ranks(&zipf_quotas(cfg.subscribers, 0..cfg.topics), &mut rng) {
        let id = sys.subscribe(topic);
        members[topic as usize].push(id);
        everyone.push((id, topic));
    }
    sys.warm_for(cfg.warm_rounds);
    sys.tr.end(root);
    let setup_s = meter.start_script();

    // The script. One publish of every round is on the hottest topic,
    // so every observation window starts from the same kind of load (a
    // flood through the biggest ring still under way); the topics of the
    // others are the Zipf quotas of the remaining topics. Authors rotate
    // through each topic's members from a seeded start. The sample has
    // each topic's Zipf share of subscribers.
    let root = sys.tr.begin("script");
    let before = sys.ps.stats();
    let rounds = cfg.bursts * cfg.burst_rounds;
    let other_topics = members.iter().skip(1).filter(|m| !m.is_empty()).count();
    let others = cfg.pubs_per_round - 1;
    let mut rest = shuffled_ranks(&zipf_quotas(rounds * others, 1..1 + other_topics), &mut rng);
    rest.iter_mut().for_each(|t| *t += 1);
    let pub_topics: Vec<u32> = rest
        .chunks(others)
        .flat_map(|others| std::iter::once(0).chain(others.iter().copied()))
        .collect();
    let mut next_author: Vec<usize> = members.iter().map(|m| rng.below(m.len().max(1))).collect();
    let all: Vec<NodeId> = everyone.iter().map(|&(id, _)| id).collect();
    let mut sample: Vec<NodeId> = zipf_quotas(cfg.sampled.min(cfg.subscribers), 0..cfg.topics)
        .iter()
        .zip(&members)
        .flat_map(|(&share, of_topic)| of_topic.iter().copied().take(share))
        .collect();
    sample.sort_unstable();

    let mut ledger = Ledger::default();
    let mut settle = Vec::new();
    let mut round = 0u32;
    let mut due = pub_topics.chunks(cfg.pubs_per_round);
    for _ in 0..cfg.bursts {
        for topics in due.by_ref().take(cfg.burst_rounds) {
            for &topic in topics {
                let of_topic = &members[topic as usize];
                let author = of_topic[next_author[topic as usize] % of_topic.len()];
                next_author[topic as usize] += 1;
                let mut payload = format!("{seed:x}/{}", ledger.publications()).into_bytes();
                payload.resize(payload.len().max(16), b'.');
                let key = sys.publish(author, topic, payload.clone());
                ledger.published(topic, &payload, &key, round);
            }
            sys.step();
            round += 1;
            sys.drain_into(&sample, &mut ledger, Some(round));
        }
        let mut settled_at = None;
        for w in 0..cfg.window {
            if sys.settled() && settled_at.is_none() {
                settled_at = Some(w as u64);
            }
            sys.step();
            round += 1;
            sys.drain_into(&sample, &mut ledger, Some(round));
        }
        settle.push(settled_at);
    }
    sys.drain_into(&all, &mut ledger, None);
    let after = sys.ps.stats();
    let stored_pubs = sys.ps.publications_converged().1 as u64;
    sys.tr.end(root);
    let timed = meter.stop(setup_s);

    let mut counts = Counts {
        instances: 1,
        window: cfg.window as u64,
        settle,
        node_rounds: cfg.subscribers as u64 * round as u64,
        lock_acquisitions: after.lock_acquisitions() - before.lock_acquisitions(),
        cross_envelopes: cross(&after) - cross(&before),
        delivered_imbalance: after.delivered_imbalance(),
        stepped_imbalance: after.stepped_imbalance(),
        stored_pubs,
        ..Counts::default()
    };
    counts.add_stats(&before, &after);
    counts.close_world(world.as_mut(), ledger, &everyone);
    timed.rep(counts, world)
}

fn cross(s: &skippub_core::Stats) -> u64 {
    s.per_partition.iter().map(|p| p.cross_envelopes).sum()
}
