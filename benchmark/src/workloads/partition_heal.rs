//! `partition-heal`: a tenth of the members is cut off while both sides
//! publish; then the cut heals.
//!
//! The fault plane and trie anti-entropy decide the outcome, and the
//! publications channel of the checker is polled while dirty; the
//! supervisor is idle.

use super::{Counts, Meter, Rep, Scale};
use crate::gen::{derive, Rng};
use crate::sys::{Ledger, Sys};
use crate::trace::Tracer;
use skippub_core::{BackendKind, PubSub, SystemBuilder};
use skippub_sim::{FaultSpec, NodeId, Sever};

struct Cfg {
    instances: usize,
    members: usize,
    warm_rounds: usize,
    /// Rounds the cut lasts.
    cut_rounds: usize,
    /// Rounds with a publish due, from the first round of the cut on.
    /// They outlast the cut, so most publications travel healthy links
    /// and the median latency is that of flooding; the ones caught by
    /// the cut are the tail.
    publish_rounds: usize,
    /// Observation window after the heal.
    window: usize,
    sampled: usize,
}

impl Cfg {
    fn at(scale: Scale) -> Cfg {
        Cfg {
            instances: 6,
            members: scale.of(250, 30),
            warm_rounds: 40,
            cut_rounds: 12,
            publish_rounds: 24,
            window: scale.of(1_000, 200),
            sampled: 128,
        }
    }
}

struct Instance {
    world: Box<dyn PubSub>,
    ids: Vec<NodeId>,
    ledger: Ledger,
}

pub fn rep(scale: Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let cfg = Cfg::at(scale);
    let mut meter = Meter::start_setup();

    let root = tr.begin("setup");
    let mut instances: Vec<Instance> = (0..cfg.instances)
        .map(|i| {
            tr.instance = i as u32;
            let mut world = SystemBuilder::new(derive(seed, i as u64)).build(BackendKind::Sim);
            let mut sys = Sys::new(world.as_mut(), tr);
            let ids: Vec<NodeId> = (0..cfg.members).map(|_| sys.subscribe(0)).collect();
            sys.warm_for(cfg.warm_rounds);
            Instance {
                world,
                ids,
                ledger: Ledger::default(),
            }
        })
        .collect();
    tr.end(root);
    let setup_s = meter.start_script();

    let root = tr.begin("script");
    let mut counts = Counts {
        instances: cfg.instances as u64,
        window: cfg.window as u64,
        ..Counts::default()
    };
    for (i, Instance { world, ids, ledger }) in instances.iter_mut().enumerate() {
        tr.instance = i as u32;
        let seed = derive(seed, i as u64);
        let mut rng = Rng::new(seed);
        let mut sys = Sys::new(world.as_mut(), tr);
        let before = sys.ps.stats();

        // Which tenth is cut off, and who is sampled, come from the seed.
        let mut shuffled = ids.clone();
        rng.shuffle(&mut shuffled);
        let (minority, majority) = shuffled.split_at((cfg.members / 10).max(2));
        let mut sample: Vec<NodeId> = ids.clone();
        rng.shuffle(&mut sample);
        sample.truncate(cfg.sampled);
        sample.sort_unstable();

        let faults = FaultSpec {
            seed,
            rules: Vec::new(),
            severs: vec![Sever {
                from_round: 0,
                to_round: cfg.cut_rounds as u64,
                group: minority.iter().map(|id| id.0).collect(),
            }],
        };
        let heals_at = faults.max_window_end();
        sys.ps.set_faults(Some(faults));

        // One round of the script: a publish if one is due (authors
        // rotate, alternating between the two sides of the cut), a step,
        // the sampled drains.
        let mut round = 0u32;
        let mut one_round = |sys: &mut Sys<'_>, ledger: &mut Ledger| {
            let r = round as usize;
            if r < cfg.publish_rounds {
                let side = if r.is_multiple_of(2) {
                    minority
                } else {
                    majority
                };
                let author = side[(r / 2) % side.len()];
                let mut payload = format!("{seed:x}/{r}").into_bytes();
                payload.resize(payload.len().max(16), b'.');
                let key = sys.publish(author, 0, payload.clone());
                ledger.published(0, &payload, &key, round);
            }
            sys.step();
            round += 1;
            sys.drain_into(&sample, ledger, Some(round));
        };
        for _ in 0..cfg.cut_rounds {
            one_round(&mut sys, ledger);
        }
        assert!(
            cfg.cut_rounds as u64 >= heals_at,
            "every fault window is closed when the observation starts"
        );
        let mut settle = None;
        for w in 0..cfg.window {
            if sys.settled() && settle.is_none() && w >= cfg.publish_rounds - cfg.cut_rounds {
                settle = Some(w as u64);
            }
            one_round(&mut sys, ledger);
        }
        counts.settle.push(settle);
        sys.drain_into(ids, ledger, None);

        let after = sys.ps.stats();
        counts.add_stats(&before, &after);
        counts.node_rounds += cfg.members as u64 * round as u64;
        counts.stored_pubs += sys.ps.publications_converged().1 as u64;
    }
    tr.end(root);
    let timed = meter.stop(setup_s);

    let mut last = None;
    for Instance {
        mut world,
        ids,
        ledger,
    } in instances
    {
        let members: Vec<(NodeId, u32)> = ids.iter().map(|&id| (id, 0)).collect();
        counts.close_world(world.as_mut(), ledger, &members);
        last = Some(world);
    }
    timed.rep(counts, last.expect("at least one instance"))
}
