//! The [`Protocol`] trait implemented by all six dissemination processes, and
//! the [`ProtocolKind`] selector used by the engine and the experiment
//! harness.

use std::fmt;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use rumor_graphs::{Topology, VertexId};

use crate::metrics::{EdgeTraffic, EdgeTrafficStats};
use crate::options::{AgentConfig, ProtocolOptions};

/// A synchronous information-dissemination protocol in the paper's model:
/// round 0 initializes the rumor at a source, and each subsequent round is one
/// synchronous step of the process.
///
/// Implementations in this crate: [`Push`](crate::Push), [`Pull`](crate::Pull),
/// [`PushPull`](crate::PushPull), [`VisitExchange`](crate::VisitExchange),
/// [`MeetExchange`](crate::MeetExchange), and
/// [`PushPullVisitExchange`](crate::PushPullVisitExchange).
pub trait Protocol {
    /// A short, stable protocol name (e.g. `"push"`, `"visit-exchange"`).
    fn name(&self) -> &'static str;

    /// The source vertex of the rumor.
    fn source(&self) -> VertexId;

    /// Number of rounds executed so far (round 0 is initialization and is not
    /// counted).
    fn round(&self) -> u64;

    /// Executes one synchronous round.
    fn step(&mut self, rng: &mut dyn RngCore);

    /// `true` once the protocol's completion condition holds (all vertices
    /// informed; for `meet-exchange`, all agents informed).
    fn is_complete(&self) -> bool;

    /// Whether vertex `v` currently stores the rumor. For `meet-exchange`
    /// this is `true` only for the source while it is still active.
    fn is_vertex_informed(&self, v: VertexId) -> bool;

    /// Number of informed vertices.
    fn informed_vertex_count(&self) -> usize;

    /// Number of informed agents (0 for protocols without agents).
    fn informed_agent_count(&self) -> usize {
        0
    }

    /// Number of agents (0 for protocols without agents).
    fn num_agents(&self) -> usize {
        0
    }

    /// Total messages sent so far (calls for rumor-spreading protocols, agent
    /// moves for agent-based protocols).
    fn messages_sent(&self) -> u64;

    /// Messages sent during the most recent round.
    fn messages_last_round(&self) -> u64;

    /// Per-edge traffic, if the protocol was constructed with
    /// [`ProtocolOptions::record_edge_traffic`](crate::ProtocolOptions).
    fn edge_traffic(&self) -> Option<&EdgeTraffic> {
        None
    }

    /// Aggregate per-edge traffic statistics over `rounds` rounds, if edge
    /// traffic was recorded. The protocol summarizes against its own graph
    /// (this replaced a `graph()` accessor so the trait stays object-safe
    /// across both [`Topology`] backends, which have no common concrete
    /// graph type to return).
    fn edge_traffic_stats(&self, rounds: u64) -> Option<EdgeTrafficStats> {
        let _ = rounds;
        None
    }
}

/// The monomorphization hook of the hot path (crate-internal).
///
/// [`Protocol::step`] must stay object-safe (the harness stores
/// `Box<dyn Protocol>`), which forces its RNG argument to be `&mut dyn
/// RngCore` — and a virtual call per random number is the single largest
/// constant-factor cost in a simulation round. `FastStep` carries the same
/// round logic as a generic method, so [`crate::simulate_on`] — which knows
/// the concrete protocol type from [`ProtocolKind`] — can drive whole runs
/// with the engine's concrete fast RNG, letting every `gen_range` inline.
///
/// Implementations must guarantee `FastStep::fast_step` and
/// [`Protocol::step`] perform the identical state transition and draw the
/// identical random variates in the identical order (each protocol's
/// `Protocol::step` simply forwards to its public `step_with`, which is also
/// what `fast_step` calls).
pub(crate) trait FastStep: Protocol {
    /// One synchronous round, generic over the RNG.
    fn fast_step<R: rand::Rng + ?Sized>(&mut self, rng: &mut R);

    /// `true` when the protocol is provably frozen: it is not complete, yet
    /// no sequence of future draws can change its state. The monotone vertex
    /// protocols detect this as an empty active frontier (every informed
    /// vertex saturated, every uninformed vertex unreachable) — the
    /// disconnected-graph case — and the engine terminates the run with
    /// `completed == false` instead of spinning to the round cap. Agent
    /// protocols keep the default (`false`): a walk confined to the source's
    /// component is equally stuck, but detecting that requires reachability
    /// analysis the hot loop cannot afford, so they rely on the round cap.
    fn is_stalled(&self) -> bool {
        false
    }
}

/// Selector for the protocol implementations, used by
/// [`build_protocol`] and the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ProtocolKind {
    /// Randomized rumor spreading, push variant (Demers et al.).
    Push,
    /// Pull-only rumor spreading (every vertex polls a random neighbor).
    Pull,
    /// Push-pull rumor spreading (Karp et al.).
    PushPull,
    /// Agent-based dissemination where both vertices and agents store the
    /// rumor (the paper's `visit-exchange`).
    VisitExchange,
    /// Agent-based dissemination where only agents store the rumor (the
    /// paper's `meet-exchange`).
    MeetExchange,
    /// The combination suggested in the paper's introduction: `push-pull`
    /// running alongside `visit-exchange`, sharing one informed-vertex set.
    PushPullVisitExchange,
}

impl ProtocolKind {
    /// All protocol kinds, in presentation order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Push,
        ProtocolKind::Pull,
        ProtocolKind::PushPull,
        ProtocolKind::VisitExchange,
        ProtocolKind::MeetExchange,
        ProtocolKind::PushPullVisitExchange,
    ];

    /// The four protocols the paper compares (excluding pull-only and the
    /// combined protocol).
    pub const PAPER: [ProtocolKind; 4] = [
        ProtocolKind::Push,
        ProtocolKind::PushPull,
        ProtocolKind::VisitExchange,
        ProtocolKind::MeetExchange,
    ];

    /// Stable lowercase name matching [`Protocol::name`].
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Push => "push",
            ProtocolKind::Pull => "pull",
            ProtocolKind::PushPull => "push-pull",
            ProtocolKind::VisitExchange => "visit-exchange",
            ProtocolKind::MeetExchange => "meet-exchange",
            ProtocolKind::PushPullVisitExchange => "push-pull+visit-exchange",
        }
    }

    /// Parses a protocol name as produced by [`ProtocolKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// `true` for the protocols that use random-walk agents.
    pub fn uses_agents(&self) -> bool {
        matches!(
            self,
            ProtocolKind::VisitExchange
                | ProtocolKind::MeetExchange
                | ProtocolKind::PushPullVisitExchange
        )
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Constructs a boxed protocol of the given kind, on either topology
/// backend.
///
/// `agents` is used only by the agent-based kinds; `rng` is used to place the
/// agents (and is not retained).
///
/// # Panics
///
/// Panics if `source` is out of range for `graph`, or if an agent-based kind
/// is requested on a graph with no edges (stationary placement is undefined).
pub fn build_protocol<'g, G: Topology, R: rand::Rng + ?Sized>(
    kind: ProtocolKind,
    graph: &'g G,
    source: VertexId,
    agents: &AgentConfig,
    options: ProtocolOptions,
    rng: &mut R,
) -> Box<dyn Protocol + 'g> {
    match kind {
        ProtocolKind::Push => Box::new(crate::Push::new(graph, source, options)),
        ProtocolKind::Pull => Box::new(crate::Pull::new(graph, source, options)),
        ProtocolKind::PushPull => Box::new(crate::PushPull::new(graph, source, options)),
        ProtocolKind::VisitExchange => Box::new(crate::VisitExchange::new(
            graph, source, agents, options, rng,
        )),
        ProtocolKind::MeetExchange => Box::new(crate::MeetExchange::new(
            graph, source, agents, options, rng,
        )),
        ProtocolKind::PushPullVisitExchange => Box::new(crate::PushPullVisitExchange::new(
            graph, source, agents, options, rng,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rumor_graphs::generators::complete;

    #[test]
    fn names_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(ProtocolKind::from_name("gossip"), None);
    }

    #[test]
    fn agent_usage_flags() {
        assert!(!ProtocolKind::Push.uses_agents());
        assert!(!ProtocolKind::PushPull.uses_agents());
        assert!(ProtocolKind::VisitExchange.uses_agents());
        assert!(ProtocolKind::MeetExchange.uses_agents());
        assert!(ProtocolKind::PushPullVisitExchange.uses_agents());
    }

    #[test]
    fn paper_subset_is_contained_in_all() {
        for kind in ProtocolKind::PAPER {
            assert!(ProtocolKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn build_protocol_constructs_every_kind() {
        let g = complete(16).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for kind in ProtocolKind::ALL {
            let p = build_protocol(
                kind,
                &g,
                0,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut rng,
            );
            assert_eq!(p.name(), kind.name());
            assert_eq!(p.source(), 0);
            assert_eq!(p.round(), 0);
            assert!(p.informed_vertex_count() <= 1 || kind.uses_agents());
            if kind.uses_agents() {
                assert_eq!(p.num_agents(), 16);
            } else {
                assert_eq!(p.num_agents(), 0);
            }
        }
    }
}
