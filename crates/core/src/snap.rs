//! [`Snap`] implementations for the protocol layer: messages, actor
//! state, and configuration. Together with the foundation impls in
//! `skippub-snapshot` and the engine's own in `skippub-sim`, these make
//! `World<Actor>` serializable — the backbone of the backend
//! checkpoints in [`crate::pubsub`].
//!
//! Every impl here is exact: restored state continues byte-identically
//! (same RNG draws, same delivered sets) to the uninterrupted run,
//! which the facade conformance suite asserts end to end.

use crate::actor::Actor;
use crate::config::{ProbeMode, ProtocolConfig};
use crate::msg::{Msg, NodeRef};
use crate::subscriber::{Counters, Subscriber};
use crate::supervisor::{Supervisor, SupervisorCounters};
use crate::topics::TopicId;
use skippub_snapshot::{snap_struct, Snap, SnapError, SnapReader, SnapVec, SnapWriter};
use skippub_trie::MAX_KEY_BITS;

impl Snap for ProbeMode {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(match self {
            ProbeMode::Randomized => 0,
            ProbeMode::Token => 1,
            ProbeMode::TokenHybrid => 2,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u64()? {
            0 => Ok(ProbeMode::Randomized),
            1 => Ok(ProbeMode::Token),
            2 => Ok(ProbeMode::TokenHybrid),
            n => Err(SnapError::Malformed(format!("unknown probe mode {n}"))),
        }
    }
}

/// A key length outside `1..=`[`MAX_KEY_BITS`] is malformed: the first
/// publish of a world restored with one would panic deriving its key.
impl Snap for ProtocolConfig {
    fn save(&self, w: &mut SnapWriter) {
        self.key_bits.save(w);
        self.anti_entropy.save(w);
        self.flooding.save(w);
        self.probes.save(w);
        self.probe_mode.save(w);
        self.shortcuts.save(w);
        self.verify_shortcuts.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let key_bits = usize::load(r)?;
        if !(1..=MAX_KEY_BITS).contains(&key_bits) {
            return Err(SnapError::Malformed(format!(
                "key_bits {key_bits} outside 1..={MAX_KEY_BITS}"
            )));
        }
        Ok(ProtocolConfig {
            key_bits,
            anti_entropy: Snap::load(r)?,
            flooding: Snap::load(r)?,
            probes: Snap::load(r)?,
            probe_mode: Snap::load(r)?,
            shortcuts: Snap::load(r)?,
            verify_shortcuts: Snap::load(r)?,
        })
    }
}

snap_struct!(NodeRef { label, id });

impl Snap for Msg {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Msg::Check {
                sender,
                assumed,
                cyc,
            } => {
                w.put_u64(0);
                sender.save(w);
                assumed.save(w);
                cyc.save(w);
            }
            Msg::Intro { node, cyc } => {
                w.put_u64(1);
                node.save(w);
                cyc.save(w);
            }
            Msg::RemoveConnections { node } => {
                w.put_u64(2);
                node.save(w);
            }
            Msg::Subscribe { node } => {
                w.put_u64(3);
                node.save(w);
            }
            Msg::Unsubscribe { node } => {
                w.put_u64(4);
                node.save(w);
            }
            Msg::GetConfiguration { node, requester } => {
                w.put_u64(5);
                node.save(w);
                requester.save(w);
            }
            Msg::SetData { pred, label, succ } => {
                w.put_u64(6);
                pred.save(w);
                label.save(w);
                succ.save(w);
            }
            Msg::IntroduceShortcut { node } => {
                w.put_u64(7);
                node.save(w);
            }
            Msg::CheckShortcut { sender, assumed } => {
                w.put_u64(8);
                sender.save(w);
                assumed.save(w);
            }
            Msg::Token { seq, ttl } => {
                w.put_u64(9);
                seq.save(w);
                ttl.save(w);
            }
            Msg::TokenReturn { seq } => {
                w.put_u64(10);
                seq.save(w);
            }
            Msg::CheckTrie { sender, tuples } => {
                w.put_u64(11);
                sender.save(w);
                w.put_seq(tuples.iter());
            }
            Msg::CheckAndPublish {
                sender,
                tuples,
                prefixes,
            } => {
                w.put_u64(12);
                sender.save(w);
                w.put_seq(tuples.iter());
                w.put_seq(prefixes.iter());
            }
            Msg::Publish { pubs } => {
                w.put_u64(13);
                w.put_seq(pubs.iter());
            }
            Msg::PublishNew { pubs } => {
                w.put_u64(14);
                w.put_seq(pubs.iter());
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u64()? {
            0 => Msg::Check {
                sender: Snap::load(r)?,
                assumed: Snap::load(r)?,
                cyc: Snap::load(r)?,
            },
            1 => Msg::Intro {
                node: Snap::load(r)?,
                cyc: Snap::load(r)?,
            },
            2 => Msg::RemoveConnections {
                node: Snap::load(r)?,
            },
            3 => Msg::Subscribe {
                node: Snap::load(r)?,
            },
            4 => Msg::Unsubscribe {
                node: Snap::load(r)?,
            },
            5 => Msg::GetConfiguration {
                node: Snap::load(r)?,
                requester: Snap::load(r)?,
            },
            6 => Msg::SetData {
                pred: Snap::load(r)?,
                label: Snap::load(r)?,
                succ: Snap::load(r)?,
            },
            7 => Msg::IntroduceShortcut {
                node: Snap::load(r)?,
            },
            8 => Msg::CheckShortcut {
                sender: Snap::load(r)?,
                assumed: Snap::load(r)?,
            },
            9 => Msg::Token {
                seq: Snap::load(r)?,
                ttl: Snap::load(r)?,
            },
            10 => Msg::TokenReturn {
                seq: Snap::load(r)?,
            },
            11 => Msg::CheckTrie {
                sender: Snap::load(r)?,
                tuples: SnapVec::load(r)?.0,
            },
            12 => Msg::CheckAndPublish {
                sender: Snap::load(r)?,
                tuples: SnapVec::load(r)?.0,
                prefixes: SnapVec::load(r)?.0,
            },
            13 => Msg::Publish {
                pubs: SnapVec::load(r)?.0,
            },
            14 => Msg::PublishNew {
                pubs: SnapVec::load(r)?.0.into(),
            },
            n => return Err(SnapError::Malformed(format!("unknown message tag {n}"))),
        })
    }
}

impl Snap for Counters {
    fn save(&self, w: &mut SnapWriter) {
        self.config_probes.save(w);
        self.neighbor_probes.save(w);
        self.pubs_via_flood.save(w);
        self.pubs_via_sync.save(w);
        self.leaf_conflicts.save(w);
        self.tokens_seen.save(w);
        self.configs_received.save(w);
        self.ignored_msgs.save(w);
        self.max_flood_hops.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Counters {
            config_probes: Snap::load(r)?,
            neighbor_probes: Snap::load(r)?,
            pubs_via_flood: Snap::load(r)?,
            pubs_via_sync: Snap::load(r)?,
            leaf_conflicts: Snap::load(r)?,
            tokens_seen: Snap::load(r)?,
            configs_received: Snap::load(r)?,
            ignored_msgs: Snap::load(r)?,
            max_flood_hops: Snap::load(r)?,
        })
    }
}

snap_struct!(Subscriber {
    id,
    supervisor,
    label,
    left,
    right,
    ring,
    shortcuts,
    shortcut_epoch,
    trie,
    relay_pending,
    wants_membership,
    cfg,
    counters,
});

snap_struct!(SupervisorCounters {
    roundrobin_configs,
    staged_configs,
    repairs,
    evictions,
    tokens_issued,
    tokens_returned,
});

// Manual impl: `outbox`, the inverse index and the visit gauge are
// intentionally not serialized. Backends drain `outbox` after every
// step and facade call, so it is always empty at snapshot boundaries;
// the index is derived from `database` by the next full `CheckLabels`
// pass. Restore starts from `Supervisor::new`, so all three start empty.
impl Snap for Supervisor {
    fn save(&self, w: &mut SnapWriter) {
        self.id.save(w);
        self.database().save(w);
        self.next.save(w);
        self.db_epoch.save(w);
        self.suspected.save(w);
        self.staged.save(w);
        self.relabelled.save(w);
        self.token_enabled.save(w);
        self.token_seq.save(w);
        self.token_outstanding.save(w);
        self.token_age.save(w);
        self.counters.save(w);
        self.replicated.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut s = Supervisor::new(Snap::load(r)?);
        *s.database_mut() = Snap::load(r)?;
        s.next = Snap::load(r)?;
        s.db_epoch = Snap::load(r)?;
        s.suspected = Snap::load(r)?;
        s.staged = Snap::load(r)?;
        s.relabelled = Snap::load(r)?;
        s.token_enabled = Snap::load(r)?;
        s.token_seq = Snap::load(r)?;
        s.token_outstanding = Snap::load(r)?;
        s.token_age = Snap::load(r)?;
        s.counters = Snap::load(r)?;
        s.replicated = Snap::load(r)?;
        Ok(s)
    }
}

impl Snap for Actor {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Actor::Supervisor(s) => {
                w.put_u64(0);
                s.save(w);
            }
            Actor::Subscriber(s) => {
                w.put_u64(1);
                s.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u64()? {
            0 => Ok(Actor::Supervisor(Box::new(Snap::load(r)?))),
            1 => Ok(Actor::Subscriber(Box::new(Snap::load(r)?))),
            n => Err(SnapError::Malformed(format!("unknown actor tag {n}"))),
        }
    }
}

impl Snap for TopicId {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TopicId(Snap::load(r)?))
    }
}
