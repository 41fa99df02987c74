//! The [`Actor`] enum: one `BuildSR` instance — either a topic's
//! supervisor or one of its subscribers — implementing the simulator's
//! [`Protocol`] trait.
//!
//! Stray messages (a subscriber receiving `Subscribe`, the supervisor
//! receiving `Check`, …) are possible in corrupted initial states; they
//! are consumed without effect, matching the paper's requirement that a
//! corrupted message "cannot trigger an infinite chain of corrupted
//! messages" (Theorem 8 proof).

use crate::msg::Msg;
use crate::subscriber::Subscriber;
use crate::supervisor::Supervisor;
use crate::topics::TopicId;
use skippub_sim::{Ctx, Protocol};

/// One `BuildSR` instance of a process: a topic's supervisor or one of
/// its subscribers. A multi-topic process runs one per topic, each its
/// own engine node (`crate::topics`).
#[derive(Clone, Debug)]
pub enum Actor {
    /// The topic's supervisor (boxed: a slab slot should not be sized
    /// for it).
    Supervisor(Box<Supervisor>),
    /// A subscriber (boxed: subscribers carry a Patricia trie).
    Subscriber(Box<Subscriber>),
}

impl Actor {
    /// View as supervisor, if it is one.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        match self {
            Actor::Supervisor(s) => Some(s),
            Actor::Subscriber(_) => None,
        }
    }

    /// Mutable view as supervisor.
    pub fn supervisor_mut(&mut self) -> Option<&mut Supervisor> {
        match self {
            Actor::Supervisor(s) => Some(s),
            Actor::Subscriber(_) => None,
        }
    }

    /// View as subscriber, if it is one.
    pub fn subscriber(&self) -> Option<&Subscriber> {
        match self {
            Actor::Supervisor(_) => None,
            Actor::Subscriber(s) => Some(s),
        }
    }

    /// Mutable view as subscriber.
    pub fn subscriber_mut(&mut self) -> Option<&mut Subscriber> {
        match self {
            Actor::Supervisor(_) => None,
            Actor::Subscriber(s) => Some(s),
        }
    }
}

/// Routes a message to the right supervisor handler. Messages that make
/// no sense at a supervisor are corrupted channel content: consumed,
/// never propagated.
fn dispatch_supervisor(sup: &mut Supervisor, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
    match msg {
        Msg::Subscribe { node } => sup.on_subscribe(node),
        Msg::Unsubscribe { node } => sup.on_unsubscribe(node),
        Msg::GetConfiguration { node, requester } => sup.on_get_configuration(ctx, node, requester),
        Msg::TokenReturn { seq } => sup.on_token_return(seq),
        _ => {}
    }
}

/// Routes a message to the right subscriber handler.
fn dispatch_subscriber(sub: &mut Subscriber, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
    match msg {
        Msg::Check {
            sender,
            assumed,
            cyc,
        } => sub.on_check(ctx, sender, assumed, cyc),
        Msg::Intro { node, cyc } => sub.incorporate(ctx, node, cyc),
        Msg::RemoveConnections { node } => sub.on_remove_connections(node),
        Msg::SetData { pred, label, succ } => sub.on_set_data(ctx, pred, label, succ),
        Msg::IntroduceShortcut { node } => sub.on_introduce_shortcut(ctx, node),
        Msg::CheckShortcut { sender, assumed } => sub.on_check_shortcut(ctx, sender, assumed),
        Msg::Token { seq, ttl } => sub.on_token(ctx, seq, ttl),
        Msg::TokenReturn { .. } => sub.counters.ignored_msgs += 1,
        Msg::CheckTrie { sender, tuples } => sub.on_check_trie(ctx, sender, tuples),
        Msg::CheckAndPublish {
            sender,
            tuples,
            prefixes,
        } => sub.on_check_and_publish(ctx, sender, tuples, prefixes),
        Msg::Publish { pubs } => sub.on_publish(pubs),
        Msg::PublishNew { pubs } => sub.on_publish_new(&pubs),
        Msg::Subscribe { .. } | Msg::Unsubscribe { .. } | Msg::GetConfiguration { .. } => {
            sub.counters.ignored_msgs += 1;
        }
    }
}

impl Protocol for Actor {
    type Msg = Msg;

    // Every dispatch is wrapped in state-change detection feeding the
    // dirty channels of the instance's topic, read off its address
    // (`crate::topics`; 0 on a single-topic world) — so the incremental
    // checker re-judges only after an actual change; see `crate::dirty`
    // for why detection is state-driven, not message-kind-driven.

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        let topic = TopicId::of(ctx.me()).0;
        match self {
            Actor::Supervisor(sup) => {
                let epoch = sup.db_epoch;
                dispatch_supervisor(sup, ctx, msg);
                if sup.db_epoch != epoch {
                    ctx.mark_dirty(crate::dirty::topo_key(topic));
                }
            }
            Actor::Subscriber(sub) => {
                let (topo, pubs) =
                    crate::dirty::subscriber_delta(sub, |sub| dispatch_subscriber(sub, ctx, msg));
                if topo {
                    ctx.mark_dirty(crate::dirty::topo_key(topic));
                }
                if pubs {
                    ctx.mark_dirty(crate::dirty::pubs_key(topic));
                }
            }
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let topic = TopicId::of(ctx.me()).0;
        match self {
            Actor::Supervisor(sup) => {
                let epoch = sup.db_epoch;
                sup.timeout(ctx);
                if sup.db_epoch != epoch {
                    ctx.mark_dirty(crate::dirty::topo_key(topic));
                }
            }
            Actor::Subscriber(sub) => {
                let (topo, pubs) = crate::dirty::subscriber_delta(sub, |sub| sub.timeout(ctx));
                if topo {
                    ctx.mark_dirty(crate::dirty::topo_key(topic));
                }
                if pubs {
                    ctx.mark_dirty(crate::dirty::pubs_key(topic));
                }
            }
        }
    }

    fn msg_kind(msg: &Msg) -> &'static str {
        msg.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use skippub_sim::NodeId;

    #[test]
    fn accessors() {
        let mut sup = Actor::Supervisor(Box::new(Supervisor::new(NodeId(0))));
        let mut sub = Actor::Subscriber(Box::new(Subscriber::new(
            NodeId(1),
            NodeId(0),
            ProtocolConfig::default(),
        )));
        assert!(sup.supervisor().is_some());
        assert!(sup.subscriber().is_none());
        assert!(sub.subscriber().is_some());
        assert!(sub.supervisor_mut().is_none());
        assert!(sub.subscriber_mut().is_some());
        assert!(sup.supervisor_mut().is_some());
    }

    #[test]
    fn stray_messages_are_consumed() {
        let mut sup = Actor::Supervisor(Box::new(Supervisor::new(NodeId(0))));
        let sent = skippub_sim::testing::run_handler(NodeId(0), 1, |ctx| {
            sup.on_message(ctx, Msg::Publish { pubs: vec![] });
        });
        assert!(sent.is_empty());
        let mut sub = Actor::Subscriber(Box::new(Subscriber::new(
            NodeId(1),
            NodeId(0),
            ProtocolConfig::default(),
        )));
        let sent = skippub_sim::testing::run_handler(NodeId(1), 1, |ctx| {
            sub.on_message(ctx, Msg::Subscribe { node: NodeId(5) });
        });
        assert!(sent.is_empty());
        assert_eq!(sub.subscriber().unwrap().counters.ignored_msgs, 1);
    }
}
