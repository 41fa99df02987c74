//! [`Snap`] implementations for the protocol layer: messages, actor
//! state, and configuration. Together with the foundation impls in
//! `skippub-snapshot` and the engine's own in `skippub-sim`, these make
//! `World<Actor>` serializable — the backbone of the backend
//! checkpoints in [`crate::pubsub`].
//!
//! Each format is declared once, with `snap_struct!` or `snap_enum!`;
//! the two impls written by hand validate ([`ProtocolConfig`]'s key
//! length) or skip derived fields ([`Supervisor`]'s outbox and index).
//! `crates/core/tests/snap_format.rs` pins the tokens of every variant.
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
use skippub_snapshot::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use skippub_trie::MAX_KEY_BITS;

snap_enum!(ProbeMode {
    0 => Randomized,
    1 => Token,
    2 => TokenHybrid,
});

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

snap_enum!(Msg {
    0 => Check { sender, assumed, cyc },
    1 => Intro { node, cyc },
    2 => RemoveConnections { node },
    3 => Subscribe { node },
    4 => Unsubscribe { node },
    5 => GetConfiguration { node, requester },
    6 => SetData { pred, label, succ },
    7 => IntroduceShortcut { node },
    8 => CheckShortcut { sender, assumed },
    9 => Token { seq, ttl },
    10 => TokenReturn { seq },
    11 => CheckTrie { sender, tuples },
    12 => CheckAndPublish { sender, tuples, prefixes },
    13 => Publish { pubs },
    14 => PublishNew { pubs },
});

snap_struct!(Counters {
    config_probes,
    neighbor_probes,
    pubs_via_flood,
    pubs_via_sync,
    leaf_conflicts,
    tokens_seen,
    configs_received,
    ignored_msgs,
    max_flood_hops,
});

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

snap_enum!(Actor {
    0 => Supervisor(s),
    1 => Subscriber(s),
});

snap_struct!(TopicId { 0 });
