//! The agent protocols: `visit-exchange` and `meet-exchange` as one protocol
//! over a compile-time exchange rule, with agent churn as a per-round hook.
//!
//! Section 3 of the paper defines both as one process: independent
//! stationary random walks carry the rumor, and a holder informed in a
//! previous round passes it on at a meeting. They differ only in who holds
//! it. Under [`VisitRule`] vertices and agents both do; under [`MeetRule`]
//! only agents do, and the source informs its first visitors once.
//! [`Exchange`] is that process. Rules are zero-sized types with associated
//! consts, so every branch on them folds away at compile time. The same
//! exchange scans serve the sequential protocols, the sharded agent engine
//! and the combined protocol's agent phase; an engine only decides how the
//! agents move and how a scan is partitioned (see [`Scan`]).

use std::fmt;
use std::marker::PhantomData;

use rand::{Rng, RngCore};

use rumor_graphs::{Graph, Topology, VertexId};
use rumor_walks::{AgentId, MultiWalk, UninformedFrontier};

use crate::metrics::{EdgeTraffic, EdgeTrafficStats, RoundRecord};
use crate::options::{AgentConfig, ProtocolOptions};
use crate::protocol::{FastStep, Protocol};
use crate::protocols::common::{record_agent_traffic, InformedSet};
use crate::protocols::gossip::PushPull;
use crate::snapshot::{Checkpointable, SimSnapshot};

mod sealed {
    pub trait Sealed {}
}

/// Who holds the rumor: the exchange rule of one agent protocol.
/// Implemented by [`VisitRule`] and [`MeetRule`] only.
pub trait ExchangeRule: sealed::Sealed + Copy + Eq + fmt::Debug + 'static {
    /// The protocol name ([`Protocol::name`]).
    const NAME: &'static str;
    /// Whether vertices hold the rumor. If so, an informed agent informs the
    /// vertices it visits and an agent learns from an informed vertex, and
    /// the run completes when every vertex is informed. If not, agents learn
    /// only from agents they meet, the source informs only its first
    /// visitors, and the run completes when every agent is informed.
    const VERTICES_HOLD: bool;
}

/// The `visit-exchange` rule: vertices and agents hold the rumor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitRule;

/// The `meet-exchange` rule: only agents hold the rumor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeetRule;

impl sealed::Sealed for VisitRule {}
impl sealed::Sealed for MeetRule {}

impl ExchangeRule for VisitRule {
    const NAME: &'static str = "visit-exchange";
    const VERTICES_HOLD: bool = true;
}

impl ExchangeRule for MeetRule {
    const NAME: &'static str = "meet-exchange";
    const VERTICES_HOLD: bool = false;
}

/// How an engine runs the exchange scans of a round. A scan collects its
/// hits, and [`Scan::hits`] hands them back in the order they are applied.
/// The sequential engine scans inline (`Vec<u32>`); the sharded engine
/// splits each scan into ranges across workers.
pub(crate) trait Scan {
    /// Collects the uninformed vertices of `vertices` that an agent informed
    /// in a previous round visited this round (the `informed_here` marks of
    /// the last exchange step).
    fn vertices(&mut self, walks: &MultiWalk, agents: &UninformedFrontier, vertices: &InformedSet);

    /// Collects the uninformed agents for which `learns` holds.
    fn agents(&mut self, agents: &UninformedFrontier, learns: impl Fn(AgentId) -> bool + Sync);

    /// The hits of the last scan, in order.
    fn hits(&self) -> impl Iterator<Item = usize> + '_;
}

impl Scan for Vec<u32> {
    /// Two equivalent scans, chosen by density: while informed agents are
    /// sparse relative to the graph, walk them and collect their positions
    /// (O(|A|/64 + informed), duplicates and informed vertices included,
    /// which the insert skips); once they are plentiful, scan the uninformed
    /// vertices against the informed-here bitset (O(n/64 + uninformed)).
    /// Both yield the same newly informed set.
    fn vertices(&mut self, walks: &MultiWalk, agents: &UninformedFrontier, vertices: &InformedSet) {
        self.clear();
        if agents.informed_count() < vertices.universe() / 8 {
            agents.for_each_informed(|agent| self.push(walks.position(agent) as u32));
        } else {
            let hits = vertices.zeros().filter(|&v| walks.informed_here(v));
            self.extend(hits.map(|v| v as u32));
        }
    }

    /// Branchless compaction: mid-broadcast `learns` is true for an
    /// unpredictable share of the uninformed agents, so an `if { push }`
    /// would mispredict constantly. Every agent id is written to the next
    /// slot and the cursor advances by the test result instead; one slot per
    /// uninformed agent keeps the pass O(|uninformed|).
    fn agents(&mut self, agents: &UninformedFrontier, learns: impl Fn(AgentId) -> bool + Sync) {
        self.resize(agents.uninformed().len(), 0);
        let mut hits = 0usize;
        agents.for_each_uninformed(|agent| {
            self[hits] = agent as u32;
            hits += usize::from(learns(agent));
        });
        self.truncate(hits);
    }

    fn hits(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter().map(|&i| i as usize)
    }
}

/// A vertex set the agents of a visit-exchange round inform: the protocol's
/// own [`InformedSet`], or the combined protocol's [`PushPull`] state, which
/// moves its boundary as vertices learn.
pub(crate) trait VertexHolder {
    /// The informed vertices.
    fn informed(&self) -> &InformedSet;
    /// Marks `v` informed.
    fn inform(&mut self, v: VertexId);
}

impl VertexHolder for InformedSet {
    fn informed(&self) -> &InformedSet {
        self
    }

    fn inform(&mut self, v: VertexId) {
        self.insert(v);
    }
}

impl<G: Topology> VertexHolder for PushPull<'_, G> {
    fn informed(&self) -> &InformedSet {
        PushPull::informed(self)
    }

    fn inform(&mut self, v: VertexId) {
        PushPull::inform(self, v);
    }
}

/// The exchange half of a visit-exchange round, after the agents moved:
/// uninformed vertices visited by an agent informed in a previous round
/// learn, then uninformed agents standing on an informed vertex (informed
/// before or just now) learn.
pub(crate) fn visit_exchange<S: Scan>(
    scan: &mut S,
    walks: &MultiWalk,
    agents: &mut UninformedFrontier,
    vertices: &mut impl VertexHolder,
) {
    scan.vertices(walks, agents, vertices.informed());
    for v in scan.hits() {
        vertices.inform(v);
    }
    let (informed, positions) = (vertices.informed(), walks.positions());
    scan.agents(agents, |agent| informed.contains(positions[agent] as usize));
    for agent in scan.hits() {
        agents.mark_informed(agent);
    }
}

/// Agent churn, the fault-tolerance variant of Section 9: each round, before
/// the agents move, every agent independently dies with probability
/// `probability` and is reborn uninformed at an independently drawn
/// stationary vertex, so the population size stays constant.
#[derive(Debug, Clone)]
struct Churn {
    probability: f64,
    deaths: u64,
    /// Reusable per-round buffer of rebirth teleports.
    rebirths: Vec<(AgentId, VertexId)>,
}

impl Churn {
    /// Runs the deaths and rebirths of one round. Draw order: one churn draw
    /// per agent in ascending order, each death followed by its stationary
    /// draw; nothing at all when `probability` is zero. The teleports are
    /// applied as one batch, since no draw depends on a position.
    fn respawn<G: Topology, R: Rng + ?Sized>(
        &mut self,
        graph: &G,
        walks: &mut MultiWalk,
        agents: &mut UninformedFrontier,
        rng: &mut R,
    ) {
        if self.probability == 0.0 {
            return;
        }
        self.rebirths.clear();
        for agent in 0..walks.num_agents() {
            if rng.gen_bool(self.probability) {
                self.deaths += 1;
                agents.mark_uninformed(agent);
                self.rebirths.push((agent, graph.sample_stationary(rng)));
            }
        }
        walks.teleport_many(&self.rebirths);
    }
}

/// Error returned when the churn probability is outside `[0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidChurnError;

impl fmt::Display for InvalidChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("churn probability must be a finite value in [0, 1)")
    }
}

impl std::error::Error for InvalidChurnError {}

/// The agent protocols under the exchange rule `X`: `|A|` agents walk from
/// the stationary distribution (or the configured placement), and in each
/// round `t ≥ 1` all agents take one step, then every holder informed before
/// round `t` informs whom it meets. Use it through its aliases
/// [`VisitExchange`] and [`MeetExchange`].
///
/// The movement pass fuses the step, the message count (one per traversed
/// edge) and the informed-here vertex bitset, read from the agent bitset as
/// it stood at the start of the round — exactly the "informed in a previous
/// round" set. The exchange scans then touch only the uninformed side, so a
/// round's exchange costs O(|uninformed|), not O(|A|).
#[derive(Debug, Clone)]
pub struct Exchange<'g, G: Topology, X: ExchangeRule> {
    graph: &'g G,
    source: VertexId,
    walks: MultiWalk,
    /// Informed vertices, in insertion order (empty under a rule whose
    /// vertices do not hold the rumor).
    vertices: InformedSet,
    /// Uninformed-agent frontier: bitset + dense list of the agents still to
    /// inform; also the informed snapshot [`MultiWalk::step_exchange`] reads.
    agents: UninformedFrontier,
    /// `true` while the source still holds the rumor for its first visitors
    /// (meet-exchange before any agent picked it up).
    source_active: bool,
    /// The respawn hook, when the run has churn.
    churn: Option<Churn>,
    /// Reusable per-round scan buffer (vertices, then agents).
    newly_informed: Vec<u32>,
    round: u64,
    messages_total: u64,
    messages_last: u64,
    edge_traffic: Option<EdgeTraffic>,
    rule: PhantomData<X>,
}

/// The `visit-exchange` protocol of Section 3 of the paper:
///
/// > Every agent performs an independent simple random walk, starting from the
/// > stationary distribution. In round zero, vertex `s` becomes informed, and
/// > every agent that is on vertex `s` becomes informed as well. In each
/// > subsequent round, all agents do a single step of their random walk in
/// > parallel. If an agent that was informed in a previous round visits a
/// > vertex `v` that is not yet informed, then `v` becomes informed in this
/// > round. Also, if an agent that is not yet informed visits a vertex which
/// > got informed either in a previous round or in the current round, then the
/// > agent becomes informed as well.
///
/// Completion is "all vertices informed" (which, per the paper, implies all
/// agents are informed in the same round). [`VisitExchange::with_churn`]
/// adds agent churn.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::{AgentConfig, Protocol, ProtocolOptions, VisitExchange};
/// use rumor_graphs::generators::double_star;
///
/// // Lemma 3(b): on the double star visit-exchange finishes in O(log n) rounds.
/// let g = double_star(200)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut vx = VisitExchange::new(&g, 2, &AgentConfig::default(), ProtocolOptions::none(), &mut rng);
/// while !vx.is_complete() && vx.round() < 10_000 {
///     vx.step(&mut rng);
/// }
/// assert!(vx.is_complete());
/// assert!(vx.round() < 200);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub type VisitExchange<'g, G = Graph> = Exchange<'g, G, VisitRule>;

/// The `meet-exchange` protocol of Section 3 of the paper:
///
/// > A set of agents perform independent random walks starting from the
/// > stationary distribution. In round zero, all agents that are on vertex `s`
/// > become informed. If there is no agent on `s` in round zero, then the
/// > first agent to visit `s` after round zero becomes informed (if more than
/// > one agent visits `s` simultaneously, they all get informed). After that
/// > point, vertex `s` does not inform any other agent. In each subsequent
/// > round, whenever two agents meet and exactly one of them was informed in a
/// > previous round, the other agent becomes informed as well.
///
/// Completion is "all agents informed". On bipartite graphs with non-lazy
/// walks the broadcast time may be infinite (agents on different sides of the
/// bipartition never meet); the paper's remedy — lazy walks — is available via
/// [`AgentConfig::lazy`].
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::{AgentConfig, MeetExchange, Protocol, ProtocolOptions};
/// use rumor_graphs::generators::star;
///
/// // Lemma 2(d): with lazy walks, meet-exchange on the star is O(log n).
/// let g = star(200)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut mx = MeetExchange::new(&g, 3, &AgentConfig::default().lazy(), ProtocolOptions::none(), &mut rng);
/// while !mx.is_complete() && mx.round() < 10_000 {
///     mx.step(&mut rng);
/// }
/// assert!(mx.is_complete());
/// assert!(mx.round() < 300);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub type MeetExchange<'g, G = Graph> = Exchange<'g, G, MeetRule>;

impl<'g, G: Topology, X: ExchangeRule> Exchange<'g, G, X> {
    /// Creates the protocol on any topology backend: places the agents and
    /// informs those on `source`, and under [`VisitRule`] the source itself.
    /// Under [`MeetRule`] the source stays active only if no agent starts
    /// there.
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
        let mut exchange = Exchange {
            graph,
            source,
            walks: MultiWalk::new(graph, count, &agents.placement, agents.walk, rng),
            vertices: InformedSet::new(0),
            agents: UninformedFrontier::new(0),
            source_active: false,
            churn: None,
            newly_informed: Vec::new(),
            round: 0,
            messages_total: 0,
            messages_last: 0,
            edge_traffic: options.record_edge_traffic.then(EdgeTraffic::new),
            rule: PhantomData,
        };
        exchange.start_at(source);
        exchange
    }

    /// Re-initializes the protocol in place for a fresh trial — identical
    /// state (and identical construction draws) to [`Exchange::new`] with
    /// the same arguments and no edge traffic, reusing every buffer (see
    /// [`SimWorkspace`](crate::SimWorkspace)).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Exchange::new`].
    pub(crate) fn reset<R: Rng + ?Sized>(
        &mut self,
        source: VertexId,
        agents: &AgentConfig,
        rng: &mut R,
    ) {
        assert!(source < self.graph.num_vertices(), "source out of range");
        let count = agents.count.resolve(self.graph.num_vertices());
        self.walks.reset(self.graph, count, &agents.placement, rng);
        self.start_at(source);
        self.churn = None;
        self.edge_traffic = None;
    }

    /// Round 0 on the placed walks: the rumor at `source`.
    fn start_at(&mut self, source: VertexId) {
        self.source = source;
        self.clear_informed();
        if X::VERTICES_HOLD {
            self.vertices.insert(source);
        }
        for &agent in self.walks.agents_at(source) {
            self.agents.mark_informed(agent as AgentId);
        }
        self.source_active = !X::VERTICES_HOLD && self.agents.informed_count() == 0;
        self.round = 0;
        self.messages_total = 0;
        self.messages_last = 0;
    }

    /// Empties the informed sets, sized for the graph and the walks.
    fn clear_informed(&mut self) {
        let holders = if X::VERTICES_HOLD {
            self.graph.num_vertices()
        } else {
            0
        };
        self.vertices.reset(holders);
        self.agents.reset(self.walks.num_agents());
        self.newly_informed.clear();
    }

    /// Read-only access to the agent walks (positions, occupancy).
    pub fn walks(&self) -> &MultiWalk {
        &self.walks
    }

    /// Whether agent `g` is informed.
    pub fn is_agent_informed(&self, g: AgentId) -> bool {
        self.agents.is_informed(g)
    }

    /// Executes one synchronous round, monomorphized over the RNG (the hot
    /// path used by the engine; [`Protocol::step`] forwards here): the churn
    /// hook if any, the fused movement pass
    /// ([`MultiWalk::step_exchange`]), then the exchange scans.
    pub fn step_with<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if let Some(churn) = self.churn.as_mut() {
            churn.respawn(self.graph, &mut self.walks, &mut self.agents, rng);
        }
        let track = self.edge_traffic.is_some();
        let mut newly = std::mem::take(&mut self.newly_informed);
        self.advance(&mut newly, |graph, walks, agents| {
            walks.step_exchange(graph, rng, agents, track)
        });
        self.newly_informed = newly;
        if let Some(traffic) = self.edge_traffic.as_mut() {
            record_agent_traffic(&self.walks, traffic);
        }
    }

    /// One round whose movement is `move_agents` (which returns the number
    /// of traversed edges and must leave the informed-here marks of the
    /// agent set it is given), followed by the exchange scans run by `scan`.
    pub(crate) fn advance<S: Scan>(
        &mut self,
        scan: &mut S,
        move_agents: impl FnOnce(&'g G, &mut MultiWalk, &UninformedFrontier) -> u64,
    ) {
        self.round += 1;
        self.messages_last = move_agents(self.graph, &mut self.walks, &self.agents);
        self.messages_total += self.messages_last;
        if X::VERTICES_HOLD {
            return visit_exchange(scan, &self.walks, &mut self.agents, &mut self.vertices);
        }
        // Meet-exchange: while the source is active no agent is informed,
        // so the meeting test is vacuous and the scan is the visitor search
        // instead: every agent standing on the source picks the rumor up.
        // After pickup, an uninformed agent learns iff an agent informed in
        // a previous round landed on its vertex.
        let (walks, positions) = (&self.walks, self.walks.positions());
        if self.source_active {
            let source = self.source as u32;
            scan.agents(&self.agents, |agent| positions[agent] == source);
        } else {
            scan.agents(&self.agents, |agent| {
                walks.informed_here(positions[agent] as usize)
            });
        }
        let mut picked_up = false;
        for agent in scan.hits() {
            picked_up |= self.agents.mark_informed(agent);
        }
        self.source_active &= !picked_up;
    }
}

impl<G: Topology> Exchange<'_, G, MeetRule> {
    /// `true` while no agent has picked the rumor up from the source yet.
    pub fn is_source_active(&self) -> bool {
        self.source_active
    }
}

impl<'g, G: Topology> Exchange<'g, G, VisitRule> {
    /// Creates `visit-exchange` with agent churn, the fault-tolerance variant
    /// sketched in the paper's open-problems section: each round, before the
    /// agents move, every agent independently dies with probability `churn`
    /// and is reborn uninformed at an independently drawn stationary vertex.
    /// Informed vertices keep the rumor, so fresh agents are re-informed.
    /// With `churn = 0` the run is plain `visit-exchange`, draw for draw.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidChurnError`] if `churn` is not a finite value in
    /// `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Exchange::new`], and if
    /// `churn > 0` on a graph with no edges.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use rumor_core::{AgentConfig, Protocol, ProtocolOptions, VisitExchange};
    /// use rumor_graphs::generators::complete;
    ///
    /// let g = complete(64)?;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let mut p = VisitExchange::with_churn(
    ///     &g, 0, &AgentConfig::default(), 0.05, ProtocolOptions::none(), &mut rng)?;
    /// while !p.is_complete() && p.round() < 10_000 {
    ///     p.step(&mut rng);
    /// }
    /// // Even with 5% of the agents replaced per round, the broadcast completes,
    /// // because informed *vertices* keep re-informing fresh agents.
    /// assert!(p.is_complete());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn with_churn<R: Rng + ?Sized>(
        graph: &'g G,
        source: VertexId,
        agents: &AgentConfig,
        churn: f64,
        options: ProtocolOptions,
        rng: &mut R,
    ) -> Result<Self, InvalidChurnError> {
        if !churn.is_finite() || !(0.0..1.0).contains(&churn) {
            return Err(InvalidChurnError);
        }
        let mut exchange = Self::new(graph, source, agents, options, rng);
        exchange.churn = Some(Churn {
            probability: churn,
            deaths: 0,
            rebirths: Vec::new(),
        });
        Ok(exchange)
    }

    /// The per-round churn probability (0 without churn).
    pub fn churn(&self) -> f64 {
        self.churn.as_ref().map_or(0.0, |c| c.probability)
    }

    /// Total number of agent replacements so far.
    pub fn total_deaths(&self) -> u64 {
        self.churn.as_ref().map_or(0, |c| c.deaths)
    }
}

impl<G: Topology, X: ExchangeRule> FastStep for Exchange<'_, G, X> {
    #[inline]
    fn fast_step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.step_with(rng)
    }
}

impl<G: Topology, X: ExchangeRule> Checkpointable for Exchange<'_, G, X> {
    fn capture(
        &self,
        spec_digest: u64,
        rng: Option<[u64; 4]>,
        history: &[RoundRecord],
    ) -> SimSnapshot {
        let mut informed_agents = Vec::with_capacity(self.agents.informed_count());
        self.agents
            .for_each_informed(|agent| informed_agents.push(agent as u32));
        SimSnapshot {
            spec_digest,
            round: self.round,
            messages_total: self.messages_total,
            messages_last: self.messages_last,
            rng,
            informed_vertices: self.vertices.informed().to_vec(),
            informed_agents,
            positions: Some(self.walks.positions().to_vec()),
            walk_round: self.walks.round(),
            source_active: self.source_active,
            history: history.to_vec(),
        }
    }

    /// Rebuilds the mid-run state: the walks from their stored positions and
    /// round, the informed vertices by replaying their insertion order, and
    /// the agent frontier by re-marking the informed agents.
    fn restore(&mut self, snapshot: &SimSnapshot) {
        let positions = snapshot
            .positions
            .clone()
            .expect("agent-protocol snapshot carries walk positions");
        self.walks = MultiWalk::restore(
            self.graph,
            positions,
            snapshot.walk_round,
            self.walks.config(),
        );
        self.clear_informed();
        if X::VERTICES_HOLD {
            for &v in &snapshot.informed_vertices {
                self.vertices.insert(v as usize);
            }
        }
        for &agent in &snapshot.informed_agents {
            self.agents.mark_informed(agent as usize);
        }
        self.source_active = !X::VERTICES_HOLD && snapshot.source_active;
        self.round = snapshot.round;
        self.messages_total = snapshot.messages_total;
        self.messages_last = snapshot.messages_last;
        self.edge_traffic = None;
    }
}

impl<G: Topology, X: ExchangeRule> Protocol for Exchange<'_, G, X> {
    fn name(&self) -> &'static str {
        if self.churn.is_some() {
            "churn-visit-exchange"
        } else {
            X::NAME
        }
    }

    fn source(&self) -> VertexId {
        self.source
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        self.step_with(rng)
    }

    fn is_complete(&self) -> bool {
        if X::VERTICES_HOLD {
            self.vertices.is_full()
        } else {
            self.agents.is_complete()
        }
    }

    fn is_vertex_informed(&self, v: VertexId) -> bool {
        if X::VERTICES_HOLD {
            self.vertices.contains(v)
        } else {
            self.source_active && v == self.source
        }
    }

    fn informed_vertex_count(&self) -> usize {
        if X::VERTICES_HOLD {
            self.vertices.count()
        } else {
            usize::from(self.source_active)
        }
    }

    fn informed_agent_count(&self) -> usize {
        self.agents.informed_count()
    }

    fn num_agents(&self) -> usize {
        self.walks.num_agents()
    }

    fn messages_sent(&self) -> u64 {
        self.messages_total
    }

    fn messages_last_round(&self) -> u64 {
        self.messages_last
    }

    fn edge_traffic(&self) -> Option<&EdgeTraffic> {
        self.edge_traffic.as_ref()
    }

    fn edge_traffic_stats(&self, rounds: u64) -> Option<EdgeTrafficStats> {
        self.edge_traffic
            .as_ref()
            .map(|t| t.stats(self.graph, rounds))
    }
}

#[cfg(test)]
mod tests {
    mod visit {
        use super::super::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rumor_graphs::generators::{complete, double_star, star, HeavyBinaryTree};
        use rumor_walks::Placement;

        fn rng(seed: u64) -> StdRng {
            StdRng::seed_from_u64(seed)
        }

        fn run(p: &mut VisitExchange<'_>, cap: u64, rng: &mut StdRng) -> u64 {
            while !p.is_complete() && p.round() < cap {
                p.step(rng);
            }
            p.round()
        }

        #[test]
        fn initial_state_informs_source_and_its_agents() {
            let g = complete(10).unwrap();
            let mut r = rng(1);
            let cfg = AgentConfig::default().with_placement(Placement::AllAt(4));
            let vx = VisitExchange::new(&g, 4, &cfg, ProtocolOptions::none(), &mut r);
            assert_eq!(vx.informed_vertex_count(), 1);
            assert!(vx.is_vertex_informed(4));
            assert_eq!(
                vx.informed_agent_count(),
                10,
                "all agents start on the source"
            );
            assert_eq!(vx.num_agents(), 10);
        }

        #[test]
        fn agents_elsewhere_start_uninformed() {
            let g = complete(10).unwrap();
            let mut r = rng(2);
            let cfg = AgentConfig::default().with_placement(Placement::AllAt(7));
            let vx = VisitExchange::new(&g, 4, &cfg, ProtocolOptions::none(), &mut r);
            assert_eq!(vx.informed_agent_count(), 0);
        }

        #[test]
        fn completes_on_complete_graph_quickly() {
            let g = complete(64).unwrap();
            let mut r = rng(3);
            let mut vx = VisitExchange::new(
                &g,
                0,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            let rounds = run(&mut vx, 10_000, &mut r);
            assert!(vx.is_complete());
            assert!(rounds < 200, "rounds = {rounds}");
            // Once all vertices are informed, all agents are too (paper's remark).
            assert_eq!(vx.informed_agent_count(), vx.num_agents());
        }

        #[test]
        fn fast_on_star_lemma2() {
            // Lemma 2(c): O(log n) w.h.p.
            let g = star(300).unwrap();
            let mut r = rng(4);
            let mut vx = VisitExchange::new(
                &g,
                5,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            let rounds = run(&mut vx, 100_000, &mut r);
            assert!(vx.is_complete());
            assert!(rounds < 100, "star visit-exchange took {rounds} rounds");
        }

        #[test]
        fn fast_on_double_star_lemma3() {
            let g = double_star(300).unwrap();
            let mut r = rng(5);
            let mut vx = VisitExchange::new(
                &g,
                2,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            let rounds = run(&mut vx, 100_000, &mut r);
            assert!(vx.is_complete());
            assert!(
                rounds < 150,
                "double-star visit-exchange took {rounds} rounds"
            );
        }

        #[test]
        fn slow_on_heavy_binary_tree_lemma4() {
            // Lemma 4(b): Ω(n) in expectation — the root is rarely visited. With
            // depth 7 (255 vertices) push takes ~O(log n) ≈ tens of rounds whereas
            // visit-exchange should need hundreds.
            let tree = HeavyBinaryTree::new(7).unwrap();
            let g = tree.graph();
            let mut r = rng(6);
            let mut vx = VisitExchange::new(
                g,
                tree.a_leaf(),
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            let rounds = run(&mut vx, 1_000_000, &mut r);
            assert!(vx.is_complete());
            let mut push = crate::Push::new(g, tree.a_leaf(), ProtocolOptions::none());
            while !push.is_complete() {
                push.step(&mut r);
            }
            assert!(
                rounds > 2 * push.round(),
                "visit-exchange ({rounds}) should be much slower than push ({}) on the heavy tree",
                push.round()
            );
        }

        #[test]
        fn informed_sets_are_monotone() {
            let g = complete(32).unwrap();
            let mut r = rng(7);
            let mut vx = VisitExchange::new(
                &g,
                0,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            let mut prev_v = vx.informed_vertex_count();
            let mut prev_a = vx.informed_agent_count();
            while !vx.is_complete() {
                vx.step(&mut r);
                assert!(vx.informed_vertex_count() >= prev_v);
                assert!(vx.informed_agent_count() >= prev_a);
                prev_v = vx.informed_vertex_count();
                prev_a = vx.informed_agent_count();
            }
        }

        #[test]
        fn one_agent_per_vertex_variant_works() {
            let g = complete(32).unwrap();
            let mut r = rng(8);
            let mut vx = VisitExchange::new(
                &g,
                0,
                &AgentConfig::one_per_vertex(),
                ProtocolOptions::none(),
                &mut r,
            );
            assert_eq!(vx.num_agents(), 32);
            let rounds = run(&mut vx, 10_000, &mut r);
            assert!(vx.is_complete());
            assert!(rounds < 200);
        }

        #[test]
        fn zero_agents_never_completes_beyond_source() {
            let g = complete(8).unwrap();
            let mut r = rng(9);
            let cfg = AgentConfig {
                count: rumor_walks::AgentCount::Exact(0),
                ..AgentConfig::default()
            };
            let mut vx = VisitExchange::new(&g, 0, &cfg, ProtocolOptions::none(), &mut r);
            for _ in 0..50 {
                vx.step(&mut r);
            }
            assert_eq!(vx.informed_vertex_count(), 1);
            assert!(!vx.is_complete());
        }

        #[test]
        fn edge_traffic_is_roughly_fair_on_regular_graph() {
            // The fairness property from Section 1: on a regular graph, stationary
            // walks use all edges at (nearly) the same rate.
            let g = complete(16).unwrap();
            let mut r = rng(10);
            let mut vx = VisitExchange::new(
                &g,
                0,
                &AgentConfig::with_alpha(4.0),
                ProtocolOptions::with_edge_traffic(),
                &mut r,
            );
            for _ in 0..400 {
                vx.step(&mut r);
            }
            let stats = vx.edge_traffic().unwrap().stats(&g, vx.round());
            assert!(stats.unused_edges == 0);
            assert!(
                stats.max_to_mean_ratio < 1.6,
                "visit-exchange traffic should be near-uniform, max/mean = {}",
                stats.max_to_mean_ratio
            );
        }

        #[test]
        fn agent_informed_accessor_consistent_with_count() {
            let g = complete(12).unwrap();
            let mut r = rng(11);
            let mut vx = VisitExchange::new(
                &g,
                0,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            run(&mut vx, 1_000, &mut r);
            let count = (0..vx.num_agents())
                .filter(|&a| vx.is_agent_informed(a))
                .count();
            assert_eq!(count, vx.informed_agent_count());
        }
    }

    mod meet {
        use super::super::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rumor_graphs::generators::{complete, double_star, star, SiameseHeavyBinaryTree};
        use rumor_walks::Placement;

        fn rng(seed: u64) -> StdRng {
            StdRng::seed_from_u64(seed)
        }

        fn run(p: &mut MeetExchange<'_>, cap: u64, rng: &mut StdRng) -> u64 {
            while !p.is_complete() && p.round() < cap {
                p.step(rng);
            }
            p.round()
        }

        #[test]
        fn agents_on_source_start_informed_and_deactivate_source() {
            let g = complete(8).unwrap();
            let mut r = rng(1);
            let cfg = AgentConfig::default().with_placement(Placement::AllAt(2));
            let mx = MeetExchange::new(&g, 2, &cfg, ProtocolOptions::none(), &mut r);
            assert_eq!(mx.informed_agent_count(), 8);
            assert!(!mx.is_source_active());
            assert!(mx.is_complete(), "all agents informed at round 0");
            assert_eq!(mx.informed_vertex_count(), 0);
        }

        #[test]
        fn source_stays_active_until_first_visit() {
            let g = complete(8).unwrap();
            let mut r = rng(2);
            let cfg = AgentConfig::default().with_placement(Placement::AllAt(5));
            let mut mx = MeetExchange::new(&g, 2, &cfg, ProtocolOptions::none(), &mut r);
            assert!(mx.is_source_active());
            assert!(mx.is_vertex_informed(2));
            assert_eq!(mx.informed_agent_count(), 0);
            // Run until the first pickup happens.
            while mx.is_source_active() && mx.round() < 1_000 {
                mx.step(&mut r);
            }
            assert!(!mx.is_source_active());
            assert!(mx.informed_agent_count() >= 1);
            assert!(
                !mx.is_vertex_informed(2),
                "source stops holding the rumor after pickup"
            );
        }

        #[test]
        fn completes_on_complete_graph() {
            let g = complete(64).unwrap();
            let mut r = rng(3);
            let mut mx = MeetExchange::new(
                &g,
                0,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            let rounds = run(&mut mx, 100_000, &mut r);
            assert!(mx.is_complete(), "did not finish in {rounds} rounds");
            assert_eq!(mx.informed_agent_count(), mx.num_agents());
        }

        #[test]
        fn lazy_walks_terminate_on_bipartite_star_lemma2() {
            let g = star(200).unwrap();
            let mut r = rng(4);
            let mut mx = MeetExchange::new(
                &g,
                0,
                &AgentConfig::default().lazy(),
                ProtocolOptions::none(),
                &mut r,
            );
            let rounds = run(&mut mx, 100_000, &mut r);
            assert!(mx.is_complete());
            assert!(
                rounds < 500,
                "lazy meet-exchange on star took {rounds} rounds"
            );
        }

        #[test]
        fn fast_on_double_star_lemma3() {
            let g = double_star(200).unwrap();
            let mut r = rng(5);
            let mut mx = MeetExchange::new(
                &g,
                2,
                &AgentConfig::default().lazy(),
                ProtocolOptions::none(),
                &mut r,
            );
            let rounds = run(&mut mx, 1_000_000, &mut r);
            assert!(mx.is_complete());
            assert!(
                rounds < 1000,
                "double-star meet-exchange took {rounds} rounds"
            );
        }

        #[test]
        fn slow_on_siamese_heavy_tree_lemma8() {
            // Lemma 8(c): Ω(n) *in expectation*, with a heavy upper tail — so use
            // a deep enough tree for the asymptotic gap to show and compare
            // trial averages against push rather than a single (noisy) run.
            let tree = SiameseHeavyBinaryTree::new(7).unwrap();
            let g = tree.graph();
            let mut r = rng(6);
            let trials = 30;
            let mut meetx_total = 0u64;
            let mut push_total = 0u64;
            for _ in 0..trials {
                let mut mx = MeetExchange::new(
                    g,
                    tree.a_leaf(),
                    &AgentConfig::default(),
                    ProtocolOptions::none(),
                    &mut r,
                );
                meetx_total += run(&mut mx, 1_000_000, &mut r);
                assert!(mx.is_complete());
                let mut push = crate::Push::new(g, tree.a_leaf(), ProtocolOptions::none());
                while !push.is_complete() {
                    push.step(&mut r);
                }
                push_total += push.round();
            }
            assert!(
                meetx_total > 2 * push_total,
                "meet-exchange (mean {}) should be much slower than push (mean {})",
                meetx_total as f64 / trials as f64,
                push_total as f64 / trials as f64
            );
        }

        #[test]
        fn informed_agents_monotone_and_conserved() {
            let g = complete(32).unwrap();
            let mut r = rng(7);
            let mut mx = MeetExchange::new(
                &g,
                0,
                &AgentConfig::default(),
                ProtocolOptions::none(),
                &mut r,
            );
            let mut prev = mx.informed_agent_count();
            while !mx.is_complete() && mx.round() < 10_000 {
                mx.step(&mut r);
                assert!(mx.informed_agent_count() >= prev);
                assert_eq!(mx.num_agents(), 32);
                prev = mx.informed_agent_count();
            }
        }

        #[test]
        fn source_informs_only_its_first_visitors_on_k2() {
            // K2 with simple walks: every agent switches sides every round.
            // Agents at [1, 1] both reach the source in round 1 and pick the
            // rumor up together, so the run completes then. Agents at [0, 1]
            // swap sides forever: the first is informed at round 0 (which
            // deactivates the source), the second reaches the source only after
            // that and never shares a vertex with the first, so it stays
            // uninformed.
            use crate::{simulate_on, ProtocolKind, SimulationSpec};
            let g = rumor_graphs::generators::path(2).unwrap();
            let cases = [(vec![1, 1], 1, true, 2), (vec![0, 1], 100, false, 1)];
            for (starts, rounds, completed, informed) in cases {
                let cfg = AgentConfig {
                    count: rumor_walks::AgentCount::Exact(2),
                    placement: Placement::Explicit(starts.clone()),
                    walk: rumor_walks::WalkConfig::simple(),
                };
                let mut mx = MeetExchange::new(&g, 0, &cfg, ProtocolOptions::none(), &mut rng(8));
                run(&mut mx, 100, &mut rng(8));
                assert_eq!(mx.round(), rounds, "sequential, agents at {starts:?}");
                assert_eq!(
                    mx.is_complete(),
                    completed,
                    "sequential, agents at {starts:?}"
                );
                assert_eq!(
                    mx.informed_agent_count(),
                    informed,
                    "sequential, agents at {starts:?}"
                );
                assert!(!mx.is_source_active());
                let spec = SimulationSpec::new(ProtocolKind::MeetExchange)
                    .with_agents(cfg)
                    .with_max_rounds(100);
                for spec in [
                    spec.clone(),
                    spec.clone().with_sharded(1),
                    spec.with_sharded(3),
                ] {
                    let outcome = simulate_on(&g, 0, &spec);
                    let context = format!("{:?}, agents at {starts:?}", spec.engine);
                    assert_eq!(outcome.rounds, rounds, "{context}");
                    assert_eq!(outcome.completed, completed, "{context}");
                    assert_eq!(outcome.informed_agents, informed, "{context}");
                    assert_eq!(outcome.informed_vertices, 0, "{context}");
                }
            }
        }

        #[test]
        fn zero_agents_is_vacuously_complete() {
            let g = complete(8).unwrap();
            let mut r = rng(9);
            let cfg = AgentConfig {
                count: rumor_walks::AgentCount::Exact(0),
                ..AgentConfig::default()
            };
            let mx = MeetExchange::new(&g, 0, &cfg, ProtocolOptions::none(), &mut r);
            assert!(mx.is_complete());
        }

        #[test]
        fn edge_traffic_recorded_when_requested() {
            let g = complete(12).unwrap();
            let mut r = rng(10);
            let mut mx = MeetExchange::new(
                &g,
                0,
                &AgentConfig::default(),
                ProtocolOptions::with_edge_traffic(),
                &mut r,
            );
            run(&mut mx, 2_000, &mut r);
            let traffic = mx.edge_traffic().unwrap();
            assert_eq!(traffic.total(), mx.messages_sent());
        }
    }

    mod churn {
        use super::super::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rumor_graphs::generators::{
            complete, cycle, double_star, random_regular, star, HeavyBinaryTree,
        };

        fn rng(seed: u64) -> StdRng {
            StdRng::seed_from_u64(seed)
        }

        fn run(p: &mut VisitExchange<'_>, cap: u64, rng: &mut StdRng) -> u64 {
            while !p.is_complete() && p.round() < cap {
                p.step(rng);
            }
            p.round()
        }

        #[test]
        fn rejects_invalid_churn() {
            let g = complete(8).unwrap();
            let mut r = rng(0);
            for bad in [-0.1, 1.0, 1.5, f64::NAN] {
                assert!(VisitExchange::with_churn(
                    &g,
                    0,
                    &AgentConfig::default(),
                    bad,
                    ProtocolOptions::none(),
                    &mut r
                )
                .is_err());
            }
            assert_eq!(
                InvalidChurnError.to_string(),
                "churn probability must be a finite value in [0, 1)"
            );
        }

        #[test]
        fn zero_churn_behaves_like_visit_exchange() {
            // Without churn the hook draws nothing, so from the same seed the run
            // is visit-exchange's, round for round and bit for bit.
            let families = [
                ("complete", complete(48).unwrap(), 0),
                ("star", star(40).unwrap(), 3),
                ("double-star", double_star(20).unwrap(), 2),
                ("cycle", cycle(30).unwrap(), 5),
                (
                    "heavy-tree",
                    HeavyBinaryTree::new(4).unwrap().into_graph(),
                    0,
                ),
            ];
            let configs = [
                AgentConfig::default(),
                AgentConfig::with_alpha(2.0).lazy(),
                AgentConfig::one_per_vertex(),
            ];
            for (name, g, source) in &families {
                for cfg in &configs {
                    for seed in [0u64, 1, 7, 42] {
                        let (mut r, mut r_plain) = (rng(seed), rng(seed));
                        let mut p = VisitExchange::with_churn(
                            g,
                            *source,
                            cfg,
                            0.0,
                            ProtocolOptions::none(),
                            &mut r,
                        )
                        .unwrap();
                        let mut plain = crate::VisitExchange::new(
                            g,
                            *source,
                            cfg,
                            ProtocolOptions::none(),
                            &mut r_plain,
                        );
                        let context =
                            |round| format!("{name}, {cfg:?}, seed {seed}, round {round}");
                        loop {
                            let round = p.round();
                            assert_eq!(round, plain.round(), "{}", context(round));
                            assert_eq!(p.is_complete(), plain.is_complete(), "{}", context(round));
                            assert_eq!(
                                p.informed_vertex_count(),
                                plain.informed_vertex_count(),
                                "{}",
                                context(round)
                            );
                            assert_eq!(
                                p.informed_agent_count(),
                                plain.informed_agent_count(),
                                "{}",
                                context(round)
                            );
                            assert_eq!(p.messages_last_round(), plain.messages_last_round());
                            assert_eq!(
                                p.messages_sent(),
                                plain.messages_sent(),
                                "{}",
                                context(round)
                            );
                            for v in g.vertices() {
                                assert_eq!(p.is_vertex_informed(v), plain.is_vertex_informed(v));
                            }
                            for a in 0..p.num_agents() {
                                assert_eq!(p.is_agent_informed(a), plain.is_agent_informed(a));
                            }
                            if p.is_complete() || round >= 200_000 {
                                break;
                            }
                            p.step(&mut r);
                            plain.step(&mut r_plain);
                        }
                        assert!(p.is_complete(), "{}", context(p.round()));
                        assert_eq!(p.total_deaths(), 0);
                        assert_eq!(p.informed_agent_count(), p.num_agents());
                        if *name == "complete" {
                            assert!(p.round() < 200, "{}", context(p.round()));
                        }
                    }
                }
            }
        }

        #[test]
        fn completes_under_moderate_churn() {
            let g = double_star(100).unwrap();
            let mut r = rng(2);
            let mut p = VisitExchange::with_churn(
                &g,
                2,
                &AgentConfig::default().lazy(),
                0.05,
                ProtocolOptions::none(),
                &mut r,
            )
            .unwrap();
            let t = run(&mut p, 1_000_000, &mut r);
            assert!(p.is_complete(), "did not complete under 5% churn");
            assert!(p.total_deaths() > 0);
            assert!(t < 5_000);
        }

        #[test]
        fn churn_slows_but_does_not_break_broadcast() {
            let mut r = rng(3);
            let g = random_regular(128, 10, &mut r).unwrap();
            let time_at = |churn: f64, r: &mut StdRng| {
                let trials = 5;
                let mut total = 0u64;
                for _ in 0..trials {
                    let mut p = VisitExchange::with_churn(
                        &g,
                        0,
                        &AgentConfig::default(),
                        churn,
                        ProtocolOptions::none(),
                        r,
                    )
                    .unwrap();
                    total += run(&mut p, 1_000_000, r);
                }
                total as f64 / trials as f64
            };
            let calm = time_at(0.0, &mut r);
            let stormy = time_at(0.3, &mut r);
            assert!(
                stormy >= calm * 0.5,
                "churn unexpectedly accelerated the broadcast"
            );
            // Even 30% churn keeps the broadcast within a small factor: the
            // vertices hold the rumor, so fresh agents are re-informed quickly.
            assert!(
                stormy < calm * 20.0,
                "churn blew the broadcast time up: {calm} -> {stormy}"
            );
        }

        #[test]
        fn informed_agent_count_can_decrease_under_churn_but_vertices_never_do() {
            let g = complete(32).unwrap();
            let mut r = rng(4);
            let mut p = VisitExchange::with_churn(
                &g,
                0,
                &AgentConfig::default(),
                0.4,
                ProtocolOptions::none(),
                &mut r,
            )
            .unwrap();
            let mut prev_vertices = p.informed_vertex_count();
            let mut saw_agent_decrease = false;
            let mut prev_agents = p.informed_agent_count();
            for _ in 0..200 {
                p.step(&mut r);
                assert!(
                    p.informed_vertex_count() >= prev_vertices,
                    "vertex knowledge is permanent"
                );
                prev_vertices = p.informed_vertex_count();
                if p.informed_agent_count() < prev_agents {
                    saw_agent_decrease = true;
                }
                prev_agents = p.informed_agent_count();
                if p.is_complete() {
                    break;
                }
            }
            // With 40% churn, informed agents are lost in some round before
            // the last vertex hears the rumor (seeded, so deterministic).
            assert!(p.is_complete(), "the run completes within 200 rounds");
            assert!(
                saw_agent_decrease,
                "no informed agent was lost before completion"
            );
        }

        #[test]
        fn agent_population_is_conserved() {
            let g = complete(16).unwrap();
            let mut r = rng(5);
            let mut p = VisitExchange::with_churn(
                &g,
                0,
                &AgentConfig::default(),
                0.2,
                ProtocolOptions::none(),
                &mut r,
            )
            .unwrap();
            for _ in 0..50 {
                p.step(&mut r);
                assert_eq!(p.num_agents(), 16);
                let flagged = (0..p.num_agents())
                    .filter(|&a| p.is_agent_informed(a))
                    .count();
                assert_eq!(flagged, p.informed_agent_count());
            }
            assert!((p.churn() - 0.2).abs() < 1e-12);
        }
    }
}
