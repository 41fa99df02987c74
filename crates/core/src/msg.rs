//! Wire messages of the `BuildSR` + publication protocols.
//!
//! Every message is an action call `⟨label⟩(⟨parameters⟩)` in the paper's
//! model. Node references travel as [`NodeRef`] tuples `(label, id)`
//! exactly as in the pseudo-code — the label half may be **stale** (the
//! paper's "corrupted labels"), which the extended `BuildRing` protocol
//! detects and repairs via [`Msg::Check`].

use skippub_ringmath::Label;
use skippub_sim::NodeId;
use skippub_trie::{NodeSummary, Publication};

/// A remote reference: the paper's tuple `t = (label_t, v_t)`.
///
/// The `id` is authoritative (IDs are never corrupted, §1.1); the `label`
/// is what the *holder believes* the node's label to be and may be wrong
/// in non-legitimate states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeRef {
    /// The believed label of the node.
    pub label: Label,
    /// The node's unique, incorruptible ID.
    pub id: NodeId,
}

impl NodeRef {
    /// Convenience constructor.
    pub fn new(label: Label, id: NodeId) -> Self {
        NodeRef { label, id }
    }
}

/// All protocol messages (one skip ring / one topic).
#[derive(Clone, Debug)]
pub enum Msg {
    // ------------------------- ring / list -------------------------
    /// Periodic neighbourhood check (extended `BuildRing`, §2.2): the
    /// sender introduces itself and states the label it believes the
    /// receiver has; the receiver corrects it if stale.
    Check {
        /// The sender's self-reference (their current label).
        sender: NodeRef,
        /// What the sender believes the *receiver's* label is.
        assumed: Label,
        /// Whether this concerns the cyclic closure edge (`CYC`) or a
        /// list edge (`LIN`).
        cyc: bool,
    },
    /// Introduce / delegate a node reference (`Introduce` / `Linearize`
    /// in Algorithms 1–2). `cyc` marks ring-closure candidates.
    Intro {
        /// The reference being introduced.
        node: NodeRef,
        /// `CYC` vs `LIN` flag.
        cyc: bool,
    },
    /// "Delete all your references to `node`" — sent by unsubscribed or
    /// unlabeled nodes in response to introductions (Lemma 6).
    RemoveConnections {
        /// The node to forget.
        node: NodeId,
    },

    // ------------------------- supervisor --------------------------
    /// `Subscribe(v)` — integrate `v` into the topic (Algorithm 3).
    Subscribe {
        /// The joining subscriber.
        node: NodeId,
    },
    /// `Unsubscribe(v)` — remove `v` from the topic (Algorithm 3).
    Unsubscribe {
        /// The leaving subscriber.
        node: NodeId,
    },
    /// `GetConfiguration(u)` — ask the supervisor to send `u` its correct
    /// configuration. Carries the *target* node, so a subscriber can
    /// request a configuration for a neighbour (§3.2.1 action (iii)).
    ///
    /// `requester` (a §3.3 extension, DESIGN.md §5): when the target is
    /// unknown to the supervisor — e.g. a crashed node evicted by the
    /// failure detector — the supervisor answers the requester with
    /// `RemoveConnections(target)`. This is how knowledge from the *single*
    /// supervisor-side failure detector reaches subscribers still holding
    /// references to dead nodes, at constant per-request cost.
    GetConfiguration {
        /// The node whose configuration should be (re-)sent.
        node: NodeId,
        /// Who asked (None for self-probes).
        requester: Option<NodeId>,
    },
    /// `SetData(pred, label, succ)` — the supervisor hands a subscriber
    /// its configuration. All fields `None` means "you are not part of
    /// this topic": the unsubscribe permission of §4.1 step 4.
    SetData {
        /// Ring predecessor (wrapping), if any.
        pred: Option<NodeRef>,
        /// The subscriber's label, or `None` to reset.
        label: Option<Label>,
        /// Ring successor (wrapping), if any.
        succ: Option<NodeRef>,
    },

    // ------------------------- shortcuts ---------------------------
    /// `IntroduceShortcut(l, v)` — establish/refresh a shortcut slot
    /// (Algorithm 4, §3.2.2).
    IntroduceShortcut {
        /// The shortcut partner being introduced.
        node: NodeRef,
    },
    /// Shortcut-slot label verification: "I believe your label is
    /// `assumed` (you are one of my shortcuts)". Matching labels need no
    /// reply; a mismatch is answered with an `Intro` carrying the correct
    /// label, which purges the stale slot at the sender. One random slot
    /// is probed per timeout, keeping per-process maintenance constant
    /// (the paper's §2.2 label-check extension applied to `E_S`).
    CheckShortcut {
        /// The prober.
        sender: NodeRef,
        /// The label the prober has the receiver filed under.
        assumed: Label,
    },

    // --------------------- §6 token variant -------------------------
    /// The deterministic verification token ([`ProbeMode::Token`],
    /// paper §6 future work): issued by the supervisor to the subscriber
    /// holding label `l(0)`, forwarded rightward along the ring; each
    /// holder requests its configuration. `ttl` bounds the walk so
    /// corrupted right-pointers cannot cycle a token forever.
    ///
    /// [`ProbeMode::Token`]: crate::ProbeMode::Token
    Token {
        /// Issue number; the supervisor ignores stale returns.
        seq: u64,
        /// Remaining hops before the token self-destructs.
        ttl: u32,
    },
    /// The ring maximum (no right neighbour) hands the token back to the
    /// supervisor, which resets its regeneration timer.
    TokenReturn {
        /// Issue number being returned.
        seq: u64,
    },

    // ------------------------ publications -------------------------
    /// `CheckTrie(sender, tuples)` — Patricia-trie anti-entropy probe
    /// (Algorithm 5).
    CheckTrie {
        /// Who to answer to.
        sender: NodeId,
        /// Node summaries to compare.
        tuples: Vec<NodeSummary>,
    },
    /// `CheckAndPublish(sender, tuples, prefixes)` — continue checking
    /// and ship everything under any of `prefixes` back to `sender`
    /// (Algorithm 5). One message answers a whole `CheckTrie`, so it
    /// carries every prefix that request found missing (DESIGN.md §7.6).
    CheckAndPublish {
        /// Who to answer to.
        sender: NodeId,
        /// Child and cover summaries to keep checking.
        tuples: Vec<NodeSummary>,
        /// Prefixes of publications the sender is missing (never empty).
        prefixes: Vec<skippub_bits::BitStr>,
    },
    /// `Publish(P)` — deliver publications (Algorithm 5).
    Publish {
        /// The publications.
        pubs: Vec<Publication>,
    },
    /// `PublishNew(P)` — flood fresh publications along all edges
    /// (§4.3): everything the sender first learned in one activation, as
    /// one batch per edge (DESIGN.md §7.6). Each publication travels
    /// with its own hop counter — measurement metadata for experiment E9
    /// (delivery distance); protocol logic never branches on it.
    PublishNew {
        /// The new publications, each with the hops it has travelled so
        /// far (1 = direct from the author or from a repaired store).
        pubs: Vec<(Publication, u32)>,
    },
}

impl Msg {
    /// Metrics classification (see [`skippub_sim::Protocol::msg_kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Check { .. } => "Check",
            Msg::Intro { .. } => "Intro",
            Msg::RemoveConnections { .. } => "RemoveConnections",
            Msg::Subscribe { .. } => "Subscribe",
            Msg::Unsubscribe { .. } => "Unsubscribe",
            Msg::GetConfiguration { .. } => "GetConfiguration",
            Msg::SetData { .. } => "SetData",
            Msg::IntroduceShortcut { .. } => "IntroduceShortcut",
            Msg::CheckShortcut { .. } => "CheckShortcut",
            Msg::Token { .. } => "Token",
            Msg::TokenReturn { .. } => "TokenReturn",
            Msg::CheckTrie { .. } => "CheckTrie",
            Msg::CheckAndPublish { .. } => "CheckAndPublish",
            Msg::Publish { .. } => "Publish",
            Msg::PublishNew { .. } => "PublishNew",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let l: Label = "0".parse().unwrap();
        let r = NodeRef::new(l, NodeId(1));
        let msgs = [
            Msg::Check {
                sender: r,
                assumed: l,
                cyc: false,
            },
            Msg::Intro { node: r, cyc: true },
            Msg::RemoveConnections { node: NodeId(1) },
            Msg::Subscribe { node: NodeId(1) },
            Msg::Unsubscribe { node: NodeId(1) },
            Msg::GetConfiguration {
                node: NodeId(1),
                requester: None,
            },
            Msg::SetData {
                pred: None,
                label: None,
                succ: None,
            },
            Msg::IntroduceShortcut { node: r },
            Msg::CheckShortcut {
                sender: r,
                assumed: l,
            },
            Msg::Token { seq: 0, ttl: 1 },
            Msg::TokenReturn { seq: 0 },
            Msg::CheckTrie {
                sender: NodeId(1),
                tuples: vec![],
            },
            Msg::CheckAndPublish {
                sender: NodeId(1),
                tuples: vec![],
                prefixes: vec![skippub_bits::BitStr::new()],
            },
            Msg::Publish { pubs: vec![] },
            Msg::PublishNew {
                pubs: vec![(Publication::new(1, b"x".to_vec()), 1)],
            },
        ];
        let mut kinds: Vec<&str> = msgs.iter().map(|m| m.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len());
    }
}
