//! Change detection feeding the simulator's dirty-channel table —
//! the invalidation half of the incremental checker (DESIGN.md
//! § Incremental checking).
//!
//! Each topic owns two dirty channels: a **topology** channel covering
//! everything [`crate::checker::check_topology_parts`] reads (the
//! supervisor's database; each member's label, list/ring edges, shortcut
//! slots and membership intent; the member set itself) and a
//! **publications** channel covering what Theorem 17's convergence
//! predicate reads (each membership-wanting member's trie key set).
//! A cached verdict for a topic stays valid exactly while its channel's
//! version holds still, so every state transition that can move a
//! verdict must bump the channel:
//!
//! * **Handler-driven transitions** (message deliveries, timeouts) are
//!   caught by *state-change detection*, not by message kind: the
//!   actor wrappers compare the legitimacy-relevant state around each
//!   dispatch in **O(1)** ([`subscriber_delta`]: `Copy` fields exactly,
//!   the shortcut map via its monotone
//!   [`shortcut_epoch`](crate::Subscriber::shortcut_epoch), the trie
//!   via its `len`; supervisors compare their
//!   [`db_epoch`](crate::Supervisor::db_epoch)) and mark only on an
//!   actual change. Kind-based gating would be both too coarse —
//!   `SetData` refreshes and `Check`/`CheckShortcut` probes flow every
//!   round in legitimate states without changing anything — and too
//!   narrow: `IntroduceShortcut` and `CheckShortcut` mutate shortcut
//!   slots yet are none of the topology-mutating kinds (`Intro`,
//!   `SetData`, `Subscribe`, `Unsubscribe`, `RemoveConnections`).
//! * **External operations** (subscribe/join/leave/crash/publish/seed
//!   calls through a backend) bump the affected channels directly via
//!   `World::bump_dirty` — the facade intercepts every one of them.

use crate::subscriber::Subscriber;

/// Dirty-channel key of topic `t`'s topology state.
#[inline]
pub(crate) fn topo_key(topic: u32) -> u32 {
    2 * topic
}

/// Dirty-channel key of topic `t`'s publication stores.
#[inline]
pub(crate) fn pubs_key(topic: u32) -> u32 {
    2 * topic + 1
}

/// Runs `f` on the subscriber and reports
/// `(topology_changed, publications_changed)` in **O(1)**: label,
/// list/ring edges and membership intent compare exactly (`Copy`
/// fields); the shortcut map compares via its monotone
/// [`shortcut_epoch`](Subscriber::shortcut_epoch) (bumped by every
/// protocol-path mutation — see the field docs); the trie compares via
/// its `len`. A store only grows — the trie has no removal, and no
/// handler replaces it — so on every protocol path an unchanged `len`
/// means an unchanged key set, which is all the convergence predicate
/// sees.
pub(crate) fn subscriber_delta(
    s: &mut Subscriber,
    f: impl FnOnce(&mut Subscriber),
) -> (bool, bool) {
    let topo_before = (
        s.label,
        s.left,
        s.right,
        s.ring,
        s.wants_membership,
        s.shortcut_epoch,
    );
    let pubs_before = s.trie.len();
    f(s);
    let topo = topo_before
        != (
            s.label,
            s.left,
            s.right,
            s.ring,
            s.wants_membership,
            s.shortcut_epoch,
        );
    let pubs = pubs_before != s.trie.len();
    (topo, pubs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NodeRef;
    use crate::ProtocolConfig;
    use skippub_sim::{testing, NodeId};
    use skippub_trie::Publication;

    #[test]
    fn delta_detects_each_field_class() {
        let mut s = Subscriber::new(NodeId(1), NodeId(0), ProtocolConfig::default());
        assert_eq!(subscriber_delta(&mut s, |_| {}), (false, false));
        assert_eq!(
            subscriber_delta(&mut s, |s| s.label = Some("01".parse().unwrap())),
            (true, false)
        );
        assert_eq!(
            subscriber_delta(&mut s, |s| {
                s.trie.insert(Publication::new(1, b"x".to_vec()));
            }),
            (false, true)
        );
        // Shortcut mutations are tracked through the epoch, which every
        // protocol-path write bumps: filling a slot changes it, refiling
        // the identical value does not.
        s.shortcuts.insert("1".parse().unwrap(), None);
        let intro = NodeRef::new("1".parse().unwrap(), NodeId(9));
        assert_eq!(
            subscriber_delta(&mut s, |s| {
                testing::run_handler(NodeId(1), 3, |ctx| s.on_introduce_shortcut(ctx, intro));
            }),
            (true, false)
        );
        assert_eq!(
            subscriber_delta(&mut s, |s| {
                testing::run_handler(NodeId(1), 3, |ctx| s.on_introduce_shortcut(ctx, intro));
            }),
            (false, false)
        );
        assert_eq!(
            subscriber_delta(&mut s, |s| s.wants_membership = false),
            (true, false)
        );
    }
}
