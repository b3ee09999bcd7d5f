//! Protocol implementations.

pub(crate) mod common;

mod asynchronous;
mod combined;
pub(crate) mod exchange;
pub(crate) mod gossip;

pub use asynchronous::{AsyncGossip, AsyncPush, AsyncPushPull};
pub use combined::PushPullVisitExchange;
pub use exchange::{
    Exchange, ExchangeRule, InvalidChurnError, MeetExchange, MeetRule, VisitExchange, VisitRule,
};
pub use gossip::{Gossip, GossipRule, Pull, PullRule, Push, PushPull, PushPullRule, PushRule};
