//! The combination of `push-pull` and `visit-exchange` suggested in the
//! paper's introduction ("agent-based information dissemination, separately or
//! in combination with push-pull, can significantly improve the broadcast
//! time").

use rand::{Rng, RngCore};

use rumor_graphs::{Graph, Topology, VertexId};
use rumor_walks::{AgentId, MultiWalk, UninformedFrontier};

use crate::metrics::{EdgeTraffic, EdgeTrafficStats, RoundRecord};
use crate::options::{AgentConfig, ProtocolOptions};
use crate::protocol::{FastStep, Protocol};
use crate::protocols::exchange::visit_exchange;
use crate::protocols::gossip::PushPull;
use crate::snapshot::{Checkpointable, SimSnapshot};

/// `push-pull` and `visit-exchange` running simultaneously over one shared
/// set of informed vertices.
///
/// Each round consists of a push-pull exchange phase (every vertex calls a
/// random neighbor) followed by a visit-exchange phase (agents walk one step,
/// previously informed agents inform the vertices they visit, and agents on
/// informed vertices become informed). The two phases share the informed
/// vertex set, so the combined protocol is at least as fast as either
/// component on every graph — it inherits push-pull's speed on the heavy
/// binary tree and visit-exchange's speed on the double star.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::{AgentConfig, Protocol, ProtocolOptions, PushPullVisitExchange};
/// use rumor_graphs::generators::double_star;
///
/// let g = double_star(300)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut combo = PushPullVisitExchange::new(
///     &g, 2, &AgentConfig::default(), ProtocolOptions::none(), &mut rng);
/// while !combo.is_complete() && combo.round() < 10_000 {
///     combo.step(&mut rng);
/// }
/// // Push-pull alone needs Ω(n) rounds here; the combination stays logarithmic.
/// assert!(combo.is_complete());
/// assert!(combo.round() < 200);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PushPullVisitExchange<'g, G: Topology = Graph> {
    /// The push-pull phase. It owns the shared informed vertex set (agents
    /// inform vertices through `PushPull::inform`, which moves its
    /// boundary too), the round counter, and the message and edge-traffic
    /// accounts.
    vertices: PushPull<'g, G>,
    walks: MultiWalk,
    /// Uninformed-agent frontier for the visit-exchange phase.
    agents: UninformedFrontier,
    /// Reusable per-round buffer (vertices, then agents, of phase B).
    newly_informed: Vec<u32>,
}

impl<'g, G: Topology> PushPullVisitExchange<'g, G> {
    /// Creates the combined protocol on either topology backend.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range, or if stationary placement is
    /// requested on a graph with no edges.
    pub fn new<R: Rng + ?Sized>(
        graph: &'g G,
        source: VertexId,
        agents: &AgentConfig,
        options: ProtocolOptions,
        rng: &mut R,
    ) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        let count = agents.count.resolve(graph.num_vertices());
        let walks = MultiWalk::new(graph, count, &agents.placement, agents.walk, rng);
        let mut agent_frontier = UninformedFrontier::new(walks.num_agents());
        for &agent in walks.agents_at(source) {
            agent_frontier.mark_informed(agent as AgentId);
        }
        PushPullVisitExchange {
            vertices: PushPull::new(graph, source, options),
            walks,
            agents: agent_frontier,
            newly_informed: Vec::new(),
        }
    }

    /// Read-only access to the agent walks.
    pub fn walks(&self) -> &MultiWalk {
        &self.walks
    }

    /// Whether agent `g` is informed.
    pub fn is_agent_informed(&self, g: AgentId) -> bool {
        self.agents.is_informed(g)
    }

    /// Re-initializes the protocol in place for a fresh trial — identical
    /// state (and identical construction draws) to
    /// [`PushPullVisitExchange::new`] with the same arguments and no edge
    /// traffic, reusing every buffer (see
    /// [`SimWorkspace`](crate::SimWorkspace)).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PushPullVisitExchange::new`].
    pub(crate) fn reset<R: Rng + ?Sized>(
        &mut self,
        source: VertexId,
        agents: &AgentConfig,
        rng: &mut R,
    ) {
        let graph = self.vertices.graph();
        assert!(source < graph.num_vertices(), "source out of range");
        let count = agents.count.resolve(graph.num_vertices());
        self.walks.reset(graph, count, &agents.placement, rng);
        self.vertices.reset(source);
        self.agents.reset(self.walks.num_agents());
        for &agent in self.walks.agents_at(source) {
            self.agents.mark_informed(agent as AgentId);
        }
        self.newly_informed.clear();
    }

    /// Executes one synchronous round, monomorphized over the RNG (the hot
    /// path used by the engine; [`Protocol::step`] forwards here).
    pub fn step_with<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let graph = self.vertices.graph();
        // Phase A: one push-pull round among vertices, evaluated against the
        // informed set at the start of the round.
        self.vertices.step_with(rng);

        // Phase B: visit-exchange. Agents walk one step (movement, message
        // accounting and the informed-here marks fused), then the
        // visit-exchange scans inform vertices through `PushPull::inform`.
        let track = self.vertices.edge_traffic().is_some();
        let moves = self.walks.step_exchange(graph, rng, &self.agents, track);
        self.vertices.charge(moves);
        if let Some(traffic) = self.vertices.edge_traffic_mut() {
            super::common::record_agent_traffic(&self.walks, traffic);
        }
        visit_exchange(
            &mut self.newly_informed,
            &self.walks,
            &mut self.agents,
            &mut self.vertices,
        );
    }
}

impl<G: Topology> FastStep for PushPullVisitExchange<'_, G> {
    #[inline]
    fn fast_step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.step_with(rng)
    }
}

impl<G: Topology> Checkpointable for PushPullVisitExchange<'_, G> {
    fn capture(
        &self,
        spec_digest: u64,
        rng: Option<[u64; 4]>,
        history: &[RoundRecord],
    ) -> SimSnapshot {
        let mut snapshot = self.vertices.capture(spec_digest, rng, history);
        self.agents
            .for_each_informed(|agent| snapshot.informed_agents.push(agent as u32));
        snapshot.positions = Some(self.walks.positions().to_vec());
        snapshot.walk_round = self.walks.round();
        snapshot
    }

    fn restore(&mut self, snapshot: &SimSnapshot) {
        let positions = snapshot
            .positions
            .clone()
            .expect("agent-protocol snapshot carries walk positions");
        self.walks = MultiWalk::restore(
            self.vertices.graph(),
            positions,
            snapshot.walk_round,
            self.walks.config(),
        );
        self.vertices.restore(snapshot);
        self.agents.reset(self.walks.num_agents());
        for &agent in &snapshot.informed_agents {
            self.agents.mark_informed(agent as usize);
        }
        self.newly_informed.clear();
    }
}

impl<G: Topology> Protocol for PushPullVisitExchange<'_, G> {
    fn name(&self) -> &'static str {
        "push-pull+visit-exchange"
    }

    fn source(&self) -> VertexId {
        self.vertices.source()
    }

    fn round(&self) -> u64 {
        self.vertices.round()
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        self.step_with(rng)
    }

    fn is_complete(&self) -> bool {
        self.vertices.is_complete()
    }

    fn is_vertex_informed(&self, v: VertexId) -> bool {
        self.vertices.is_vertex_informed(v)
    }

    fn informed_vertex_count(&self) -> usize {
        self.vertices.informed_vertex_count()
    }

    fn informed_agent_count(&self) -> usize {
        self.agents.informed_count()
    }

    fn num_agents(&self) -> usize {
        self.walks.num_agents()
    }

    fn messages_sent(&self) -> u64 {
        self.vertices.messages_sent()
    }

    fn messages_last_round(&self) -> u64 {
        self.vertices.messages_last_round()
    }

    fn edge_traffic(&self) -> Option<&EdgeTraffic> {
        self.vertices.edge_traffic()
    }

    fn edge_traffic_stats(&self, rounds: u64) -> Option<EdgeTrafficStats> {
        self.vertices.edge_traffic_stats(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rumor_graphs::generators::{complete, double_star, HeavyBinaryTree};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn run_combined(p: &mut PushPullVisitExchange<'_>, cap: u64, rng: &mut StdRng) -> u64 {
        while !p.is_complete() && p.round() < cap {
            p.step(rng);
        }
        p.round()
    }

    #[test]
    fn initial_state() {
        let g = complete(16).unwrap();
        let mut r = rng(0);
        let p = PushPullVisitExchange::new(
            &g,
            3,
            &AgentConfig::default(),
            ProtocolOptions::none(),
            &mut r,
        );
        assert_eq!(p.name(), "push-pull+visit-exchange");
        assert_eq!(p.informed_vertex_count(), 1);
        assert_eq!(p.num_agents(), 16);
    }

    #[test]
    fn fast_on_double_star_like_visit_exchange() {
        let g = double_star(250).unwrap();
        let mut r = rng(1);
        let mut combo = PushPullVisitExchange::new(
            &g,
            2,
            &AgentConfig::default(),
            ProtocolOptions::none(),
            &mut r,
        );
        let t = run_combined(&mut combo, 100_000, &mut r);
        assert!(combo.is_complete());
        assert!(
            t < 200,
            "combined protocol took {t} rounds on the double star"
        );
    }

    #[test]
    fn fast_on_heavy_binary_tree_like_push_pull() {
        // visit-exchange alone is Ω(n) here; the combination inherits
        // push-pull's logarithmic time.
        let tree = HeavyBinaryTree::new(7).unwrap();
        let g = tree.graph();
        let mut r = rng(2);
        let mut combo = PushPullVisitExchange::new(
            g,
            tree.a_leaf(),
            &AgentConfig::default(),
            ProtocolOptions::none(),
            &mut r,
        );
        let t = run_combined(&mut combo, 1_000_000, &mut r);
        assert!(combo.is_complete());
        assert!(
            t < 100,
            "combined protocol took {t} rounds on the heavy tree"
        );
    }

    #[test]
    fn messages_include_both_components() {
        let g = complete(10).unwrap();
        let mut r = rng(3);
        let mut combo = PushPullVisitExchange::new(
            &g,
            0,
            &AgentConfig::default(),
            ProtocolOptions::none(),
            &mut r,
        );
        combo.step(&mut r);
        // 10 push-pull calls plus up to 10 agent moves.
        assert!(combo.messages_last_round() >= 10);
        assert!(combo.messages_last_round() <= 20);
    }

    #[test]
    fn monotone_informed_sets() {
        let g = complete(32).unwrap();
        let mut r = rng(4);
        let mut combo = PushPullVisitExchange::new(
            &g,
            0,
            &AgentConfig::default(),
            ProtocolOptions::none(),
            &mut r,
        );
        let mut prev = combo.informed_vertex_count();
        while !combo.is_complete() {
            combo.step(&mut r);
            assert!(combo.informed_vertex_count() >= prev);
            prev = combo.informed_vertex_count();
        }
        assert_eq!(combo.informed_agent_count(), combo.num_agents());
    }
}
