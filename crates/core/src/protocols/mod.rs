//! Protocol implementations.

pub(crate) mod common;

mod asynchronous;
mod combined;
mod dynamic_agents;
pub(crate) mod gossip;
mod meet_exchange;
mod visit_exchange;

pub use asynchronous::{AsyncGossip, AsyncPush, AsyncPushPull};
pub use combined::PushPullVisitExchange;
pub use dynamic_agents::{ChurnVisitExchange, InvalidChurnError};
pub use gossip::{Gossip, GossipRule, Pull, PullRule, Push, PushPull, PushPullRule, PushRule};
pub use meet_exchange::MeetExchange;
pub use visit_exchange::VisitExchange;
