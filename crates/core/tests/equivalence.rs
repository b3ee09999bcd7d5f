//! Equivalence of the frontier-based protocol steps with naive references.
//!
//! The engine's sampling contract has two modes, and both are pinned here
//! against deliberately naive reference implementations (`Vec<bool>`
//! membership, full `0..n` scans, per-round predicate recomputation by
//! scanning neighbor lists, fresh buffer allocation every round):
//!
//! * **Observability mode** (`record_edge_traffic` on): every acting vertex
//!   realizes its draw. This is draw-for-draw identical to the plain
//!   transcription of the paper's protocol definitions, so the trajectories
//!   must match a plain always-draw reference *exactly* for any fixed seed.
//! * **Fast mode** (default): a vertex whose draw provably cannot change the
//!   state — an informed pusher with no uninformed neighbor, an uninformed
//!   puller with no informed neighbor, a push-pull vertex not on the informed
//!   edge boundary — skips the sample (its message is still counted).
//!   Skipping a draw whose every outcome leaves the state unchanged does not
//!   alter the *law* of the informed-set trajectory; it only shifts the RNG
//!   stream. The reference for this mode applies the same skip predicate,
//!   but computes it naively by scanning each vertex's neighbor list every
//!   round, whereas the engine maintains boundary counters incrementally —
//!   identical trajectories for identical seeds pin the incremental
//!   bookkeeping against the obviously-correct recomputation.
//!
//! Both implementations visit vertices in ascending order, which is what
//! makes the RNG streams comparable at all.
//!
//! The agent-based protocols are pinned the same way (see the
//! `agent_substrate` module): the flat counting-sort walk engine, the
//! per-vertex neighbor-sampler words, and the uninformed-frontier exchange
//! phases are all compared bit-for-bit against a deliberately naive
//! per-agent substrate — `Vec<usize>` positions, `Vec<Vec<usize>>` occupancy
//! rebuilt from scratch every round, linear-scan stationary placement,
//! `gen_range(0..deg)` neighbor draws, full `0..|A|` exchange scans. Agents
//! draw in ascending agent order on both sides, which keeps the RNG streams
//! aligned; occupancy and frontier bookkeeping draw nothing.
//!
//! The combined protocol is pinned against the composition of the two:
//! the push-pull reference for its vertex phase, then the naive agent
//! substrate over the same informed set. The asynchronous protocols are
//! pinned against a plain activation loop.

use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};

use rumor_core::{Protocol, ProtocolOptions, Pull, Push, PushPull};
use rumor_graphs::generators::{
    complete, connected_erdos_renyi, cycle, double_star, path, random_regular, star,
    HeavyBinaryTree,
};
use rumor_graphs::{Graph, Topology};

#[derive(Clone, Copy, PartialEq)]
enum Rule {
    Push,
    Pull,
    PushPull,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Every acting vertex draws (matches the engine's edge-traffic mode).
    AlwaysDraw,
    /// Draws that provably cannot change the state are skipped (matches the
    /// engine's fast mode); the predicate is recomputed naively per round.
    SkipDeadDraws,
}

/// Deliberately naive reference implementation.
struct NaiveRumor {
    informed: Vec<bool>,
    count: usize,
    rule: Rule,
    mode: Mode,
}

impl NaiveRumor {
    fn new(n: usize, source: usize, rule: Rule, mode: Mode) -> Self {
        let mut informed = vec![false; n];
        informed[source] = true;
        NaiveRumor {
            informed,
            count: 1,
            rule,
            mode,
        }
    }

    fn insert(&mut self, v: usize) {
        if !self.informed[v] {
            self.informed[v] = true;
            self.count += 1;
        }
    }

    /// Naive per-round skip predicate: scan u's neighbors.
    fn acts(&self, graph: &Graph, u: usize) -> bool {
        if self.mode == Mode::AlwaysDraw {
            return true;
        }
        let neighbors = graph.neighbors(u);
        match self.rule {
            Rule::Push => neighbors.iter().any(|&v| !self.informed[v as usize]),
            Rule::Pull => neighbors.iter().any(|&v| self.informed[v as usize]),
            Rule::PushPull => {
                if self.informed[u] {
                    neighbors.iter().any(|&v| !self.informed[v as usize])
                } else {
                    neighbors.iter().any(|&v| self.informed[v as usize])
                }
            }
        }
    }

    fn step<R: Rng>(&mut self, graph: &Graph, rng: &mut R) {
        let mut newly: Vec<usize> = Vec::new();
        for u in graph.vertices() {
            let eligible = match self.rule {
                Rule::Push => self.informed[u],
                Rule::Pull => !self.informed[u],
                Rule::PushPull => true,
            };
            if !eligible || !self.acts(graph, u) {
                continue;
            }
            if let Some(v) = graph.random_neighbor(u, rng) {
                match self.rule {
                    Rule::Push => {
                        if !self.informed[v] {
                            newly.push(v);
                        }
                    }
                    Rule::Pull => {
                        if self.informed[v] {
                            newly.push(u);
                        }
                    }
                    Rule::PushPull => {
                        if self.informed[u] != self.informed[v] {
                            newly.push(if self.informed[u] { v } else { u });
                        }
                    }
                }
            }
        }
        for v in newly {
            self.insert(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.count == self.informed.len()
    }
}

/// Steps the frontier protocol and the naive reference in lockstep from two
/// identically seeded RNGs and asserts the informed sets match after every
/// round.
fn assert_trajectories_match<P, S>(
    graph: &Graph,
    source: usize,
    rule: Rule,
    mode: Mode,
    seed: u64,
    mut make: S,
) where
    P: Protocol,
    S: FnMut() -> P,
{
    let mut frontier = make();
    let mut naive = NaiveRumor::new(graph.num_vertices(), source, rule, mode);
    let mut rng_frontier = SmallRng::seed_from_u64(seed);
    let mut rng_naive = SmallRng::seed_from_u64(seed);

    let cap = 200_000;
    let mut rounds = 0;
    while !frontier.is_complete() && rounds < cap {
        frontier.step(&mut rng_frontier);
        naive.step(graph, &mut rng_naive);
        rounds += 1;
        assert_eq!(
            frontier.informed_vertex_count(),
            naive.count,
            "count diverged at round {rounds} (seed {seed})"
        );
        for v in graph.vertices() {
            assert_eq!(
                frontier.is_vertex_informed(v),
                naive.informed[v],
                "membership of {v} diverged at round {rounds} (seed {seed})"
            );
        }
    }
    assert!(
        frontier.is_complete(),
        "frontier run hit the {cap}-round cap"
    );
    assert!(
        naive.is_complete(),
        "naive run incomplete when frontier completed"
    );
}

/// The vertex-protocol families. The random 16-regular graph on 2^14
/// vertices is large enough that the CSR backend defers reads, so the
/// engine's vertex pass runs there in its block shape (gathered callers
/// resolved a batch at a time); every other family takes the immediate
/// shape.
fn families() -> Vec<(&'static str, Graph, usize)> {
    let regular = random_regular(1 << 14, 16, &mut StdRng::seed_from_u64(28)).unwrap();
    assert!(
        regular.defers_reads(),
        "the regular family must defer reads"
    );
    let mut rng = StdRng::seed_from_u64(999);
    vec![
        ("random-regular", regular, 0),
        ("complete", complete(40).unwrap(), 0),
        ("star-from-center", star(60).unwrap(), 0),
        ("star-from-leaf", star(60).unwrap(), 7),
        ("double-star", double_star(30).unwrap(), 2),
        ("path", path(50).unwrap(), 10),
        ("cycle", cycle(48).unwrap(), 0),
        (
            "heavy-tree",
            HeavyBinaryTree::new(5).unwrap().into_graph(),
            0,
        ),
        (
            "erdos-renyi",
            connected_erdos_renyi(45, 0.2, &mut rng).unwrap(),
            3,
        ),
    ]
}

/// Options that put the engine in observability (always-draw) mode.
fn traffic() -> ProtocolOptions {
    ProtocolOptions::with_edge_traffic()
}

#[test]
fn push_fast_mode_matches_skip_reference() {
    for (name, graph, source) in families() {
        for seed in [0u64, 1, 7, 42] {
            assert_trajectories_match(
                &graph,
                source,
                Rule::Push,
                Mode::SkipDeadDraws,
                seed,
                || Push::new(&graph, source, ProtocolOptions::none()),
            );
        }
        println!("push (fast) equivalent on {name}");
    }
}

#[test]
fn push_traffic_mode_matches_plain_reference() {
    for (name, graph, source) in families() {
        for seed in [0u64, 1, 7, 42] {
            assert_trajectories_match(&graph, source, Rule::Push, Mode::AlwaysDraw, seed, || {
                Push::new(&graph, source, traffic())
            });
        }
        println!("push (traffic) equivalent on {name}");
    }
}

#[test]
fn pull_fast_mode_matches_skip_reference() {
    for (name, graph, source) in families() {
        for seed in [0u64, 1, 7, 42] {
            assert_trajectories_match(
                &graph,
                source,
                Rule::Pull,
                Mode::SkipDeadDraws,
                seed,
                || Pull::new(&graph, source, ProtocolOptions::none()),
            );
        }
        println!("pull (fast) equivalent on {name}");
    }
}

#[test]
fn pull_traffic_mode_matches_plain_reference() {
    for (name, graph, source) in families() {
        for seed in [0u64, 1, 7, 42] {
            assert_trajectories_match(&graph, source, Rule::Pull, Mode::AlwaysDraw, seed, || {
                Pull::new(&graph, source, traffic())
            });
        }
        println!("pull (traffic) equivalent on {name}");
    }
}

#[test]
fn push_pull_fast_mode_matches_skip_reference() {
    for (name, graph, source) in families() {
        for seed in [0u64, 1, 7, 42] {
            assert_trajectories_match(
                &graph,
                source,
                Rule::PushPull,
                Mode::SkipDeadDraws,
                seed,
                || PushPull::new(&graph, source, ProtocolOptions::none()),
            );
        }
        println!("push-pull (fast) equivalent on {name}");
    }
}

#[test]
fn push_pull_traffic_mode_matches_plain_reference() {
    for (name, graph, source) in families() {
        for seed in [0u64, 1, 7, 42] {
            assert_trajectories_match(
                &graph,
                source,
                Rule::PushPull,
                Mode::AlwaysDraw,
                seed,
                || PushPull::new(&graph, source, traffic()),
            );
        }
        println!("push-pull (traffic) equivalent on {name}");
    }
}

#[test]
fn message_counts_are_mode_independent() {
    // The fast mode skips draws, never messages: per-round and total message
    // counts must equal the always-draw mode's counts on runs of the same
    // length. Compare against analytic counts on the complete graph, where
    // every vertex always has both informed and uninformed neighbors until
    // the very last rounds.
    let g = complete(24).unwrap();
    let mut rng = SmallRng::seed_from_u64(5);
    let mut p = Push::new(&g, 0, ProtocolOptions::none());
    let mut expected_total = 0u64;
    while !p.is_complete() {
        let informed_before = p.informed_vertex_count() as u64;
        p.step(&mut rng);
        assert_eq!(p.messages_last_round(), informed_before);
        expected_total += informed_before;
    }
    assert_eq!(p.messages_sent(), expected_total);

    let mut q = Pull::new(&g, 0, ProtocolOptions::none());
    let uninformed_before = (24 - q.informed_vertex_count()) as u64;
    q.step(&mut rng);
    assert_eq!(q.messages_last_round(), uninformed_before);

    let mut r = PushPull::new(&g, 0, ProtocolOptions::none());
    r.step(&mut rng);
    assert_eq!(r.messages_last_round(), 24);
}

/// The asynchronous protocols against a plain loop over the Poisson-clock
/// model's discrete equivalent: per time unit, `n` uniformly random
/// activations, and a neighbor draw only for callers the rule lets act
/// (informed ones for push, every vertex for push-pull). Activations apply
/// immediately, so information chains within a unit.
#[test]
fn async_protocols_match_a_plain_activation_loop() {
    use rumor_core::{AsyncPush, AsyncPushPull};

    fn naive_unit<R: Rng>(
        graph: &Graph,
        informed: &mut [bool],
        push_pull: bool,
        rng: &mut R,
    ) -> u64 {
        let n = graph.num_vertices();
        let mut messages = 0;
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            if !push_pull && !informed[u] {
                continue;
            }
            if let Some(v) = graph.random_neighbor(u, rng) {
                messages += 1;
                if informed[u] {
                    informed[v] = true;
                } else if informed[v] {
                    informed[u] = true;
                }
            }
        }
        messages
    }

    fn check<P: Protocol>(graph: &Graph, source: usize, push_pull: bool, seed: u64, mut p: P) {
        let mut rng_fast = SmallRng::seed_from_u64(seed);
        let mut rng_naive = SmallRng::seed_from_u64(seed);
        let mut informed = vec![false; graph.num_vertices()];
        informed[source] = true;
        while !p.is_complete() && p.round() < 200_000 {
            p.step(&mut rng_fast);
            let messages = naive_unit(graph, &mut informed, push_pull, &mut rng_naive);
            let unit = p.round();
            assert_eq!(
                p.messages_last_round(),
                messages,
                "messages diverged in unit {unit}"
            );
            for v in graph.vertices() {
                assert_eq!(
                    p.is_vertex_informed(v),
                    informed[v],
                    "vertex {v} diverged in unit {unit}"
                );
            }
        }
        assert!(p.is_complete(), "{} hit the unit cap", p.name());
    }

    for (name, graph, source) in families() {
        for seed in [0u64, 1, 7, 42] {
            check(
                &graph,
                source,
                false,
                seed,
                AsyncPush::new(&graph, source, ProtocolOptions::none()),
            );
            check(
                &graph,
                source,
                true,
                seed,
                AsyncPushPull::new(&graph, source, traffic()),
            );
        }
        println!("async push and push-pull equivalent on {name}");
    }
}

mod agent_substrate {
    //! Bit-identity of the flat agent-walk engine with the naive substrate.

    use super::*;
    use rumor_core::{AgentConfig, MeetExchange, VisitExchange};
    use rumor_graphs::generators::CycleOfStarsOfCliques;
    use rumor_walks::Placement;

    /// The retained naive agent substrate: per-agent vectors, `Vec<Vec>`
    /// occupancy rebuilt from scratch every round, draws through the generic
    /// `gen_range` path. This is a faithful transcription of the pre-rewrite
    /// `MultiWalk` cost model and, crucially, of its *draw order*: one
    /// optional laziness draw then one neighbor draw per agent, agents in
    /// ascending order.
    struct NaiveAgents {
        positions: Vec<usize>,
        laziness: f64,
    }

    /// Maps a uniform position in the concatenated adjacency array to its
    /// owning vertex by linear scan (independent of the engine's
    /// `partition_point` / regular-division fast paths).
    fn naive_stationary_vertex(graph: &Graph, pos: usize) -> usize {
        let mut acc = 0;
        for u in graph.vertices() {
            acc += graph.degree(u);
            if pos < acc {
                return u;
            }
        }
        unreachable!("position {pos} beyond total degree");
    }

    impl NaiveAgents {
        /// Replicates `Placement::sample`'s draw sequence naively.
        fn place<R: Rng>(graph: &Graph, cfg: &AgentConfig, rng: &mut R) -> Self {
            let count = cfg.count.resolve(graph.num_vertices());
            let positions = match &cfg.placement {
                Placement::Stationary => (0..count)
                    .map(|_| {
                        let pos = rng.gen_range(0..graph.total_degree());
                        naive_stationary_vertex(graph, pos)
                    })
                    .collect(),
                Placement::OneUniquePerVertex => (0..graph.num_vertices()).collect(),
                Placement::AllAt(v) => vec![*v; count],
                other => unimplemented!("naive placement for {other:?}"),
            };
            NaiveAgents {
                positions,
                laziness: cfg.walk.laziness(),
            }
        }

        /// One synchronous step; returns the number of edge traversals.
        fn step<R: Rng>(&mut self, graph: &Graph, rng: &mut R) -> u64 {
            let mut moves = 0u64;
            for agent in 0..self.positions.len() {
                let at = self.positions[agent];
                let stay = self.laziness > 0.0 && rng.gen_bool(self.laziness);
                let next = if stay {
                    at
                } else {
                    let d = graph.degree(at);
                    if d == 0 {
                        at
                    } else {
                        // The generic bounded-sample path the engine's
                        // per-vertex sampler words must reproduce exactly.
                        let i = rng.gen_range(0..d);
                        graph.neighbor(at, i)
                    }
                };
                moves += u64::from(next != at);
                self.positions[agent] = next;
            }
            moves
        }

        /// Occupancy rebuilt from scratch (the naive `Vec<Vec>` layout).
        fn occupants(&self, n: usize) -> Vec<Vec<usize>> {
            let mut occ = vec![Vec::new(); n];
            for (agent, &p) in self.positions.iter().enumerate() {
                occ[p].push(agent);
            }
            occ
        }
    }

    /// Naive `visit-exchange`: full scans, fresh buffers, `Vec<bool>` sets.
    struct NaiveVisitExchange {
        agents: NaiveAgents,
        informed_vertices: Vec<bool>,
        informed_agents: Vec<bool>,
        messages_last: u64,
    }

    impl NaiveVisitExchange {
        fn new<R: Rng>(graph: &Graph, source: usize, cfg: &AgentConfig, rng: &mut R) -> Self {
            let agents = NaiveAgents::place(graph, cfg, rng);
            let mut informed_vertices = vec![false; graph.num_vertices()];
            informed_vertices[source] = true;
            let informed_agents = agents.positions.iter().map(|&p| p == source).collect();
            NaiveVisitExchange {
                agents,
                informed_vertices,
                informed_agents,
                messages_last: 0,
            }
        }

        fn step<R: Rng>(&mut self, graph: &Graph, rng: &mut R) {
            self.messages_last = self.agents.step(graph, rng);
            // Agents informed in a previous round inform the vertices they
            // visit.
            let snapshot = self.informed_agents.clone();
            for (agent, &informed) in snapshot.iter().enumerate() {
                if informed {
                    self.informed_vertices[self.agents.positions[agent]] = true;
                }
            }
            // Agents on informed vertices (old or new) become informed.
            for agent in 0..self.agents.positions.len() {
                if self.informed_vertices[self.agents.positions[agent]] {
                    self.informed_agents[agent] = true;
                }
            }
        }
    }

    /// Naive `meet-exchange`: full occupancy scan per round.
    struct NaiveMeetExchange {
        agents: NaiveAgents,
        informed_agents: Vec<bool>,
        source: usize,
        source_active: bool,
        messages_last: u64,
    }

    impl NaiveMeetExchange {
        fn new<R: Rng>(graph: &Graph, source: usize, cfg: &AgentConfig, rng: &mut R) -> Self {
            let agents = NaiveAgents::place(graph, cfg, rng);
            let informed_agents: Vec<bool> =
                agents.positions.iter().map(|&p| p == source).collect();
            let source_active = !informed_agents.iter().any(|&i| i);
            NaiveMeetExchange {
                agents,
                informed_agents,
                source,
                source_active,
                messages_last: 0,
            }
        }

        fn step<R: Rng>(&mut self, graph: &Graph, rng: &mut R) {
            self.messages_last = self.agents.step(graph, rng);
            let snapshot = self.informed_agents.clone();
            let mut newly: Vec<usize> = Vec::new();
            if self.source_active {
                let visitors: Vec<usize> = self
                    .agents
                    .positions
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p == self.source)
                    .map(|(g, _)| g)
                    .collect();
                if !visitors.is_empty() {
                    newly.extend(visitors);
                    self.source_active = false;
                }
            }
            for occupants in self.agents.occupants(graph.num_vertices()) {
                if occupants.len() < 2 {
                    continue;
                }
                if occupants.iter().any(|&g| snapshot[g]) {
                    newly.extend(occupants.iter().filter(|&&g| !snapshot[g]));
                }
            }
            for g in newly {
                self.informed_agents[g] = true;
            }
        }

        fn is_complete(&self) -> bool {
            self.informed_agents.iter().all(|&i| i)
        }
    }

    /// Naive churn variant: per-agent immediate teleports (the pre-batching
    /// formulation), full exchange scans.
    struct NaiveChurn {
        agents: NaiveAgents,
        informed_vertices: Vec<bool>,
        informed_agents: Vec<bool>,
        churn: f64,
    }

    impl NaiveChurn {
        fn new<R: Rng>(
            graph: &Graph,
            source: usize,
            cfg: &AgentConfig,
            churn: f64,
            rng: &mut R,
        ) -> Self {
            let agents = NaiveAgents::place(graph, cfg, rng);
            let mut informed_vertices = vec![false; graph.num_vertices()];
            informed_vertices[source] = true;
            let informed_agents = agents.positions.iter().map(|&p| p == source).collect();
            NaiveChurn {
                agents,
                informed_vertices,
                informed_agents,
                churn,
            }
        }

        fn step<R: Rng>(&mut self, graph: &Graph, rng: &mut R) {
            if self.churn > 0.0 {
                for agent in 0..self.agents.positions.len() {
                    if rng.gen_bool(self.churn) {
                        self.informed_agents[agent] = false;
                        let pos = rng.gen_range(0..graph.total_degree());
                        self.agents.positions[agent] = naive_stationary_vertex(graph, pos);
                    }
                }
            }
            self.agents.step(graph, rng);
            let snapshot = self.informed_agents.clone();
            for (agent, &informed) in snapshot.iter().enumerate() {
                if informed {
                    self.informed_vertices[self.agents.positions[agent]] = true;
                }
            }
            for agent in 0..self.agents.positions.len() {
                if self.informed_vertices[self.agents.positions[agent]] {
                    self.informed_agents[agent] = true;
                }
            }
        }
    }

    /// Graph families for the agent equivalence matrix (≥ 6, mixing regular /
    /// non-regular, bipartite / non-bipartite, and the Fig. 1 families).
    fn agent_families() -> Vec<(&'static str, Graph, usize)> {
        let mut rng = StdRng::seed_from_u64(4242);
        vec![
            ("complete", complete(24).unwrap(), 0),
            ("star", star(40).unwrap(), 3),
            ("double-star", double_star(20).unwrap(), 2),
            ("cycle", cycle(30).unwrap(), 5),
            ("path", path(25).unwrap(), 0),
            (
                "heavy-tree",
                HeavyBinaryTree::new(4).unwrap().into_graph(),
                0,
            ),
            (
                "erdos-renyi",
                connected_erdos_renyi(30, 0.2, &mut rng).unwrap(),
                3,
            ),
            (
                "cycle-of-stars-of-cliques",
                CycleOfStarsOfCliques::with_at_least(60)
                    .unwrap()
                    .into_graph(),
                0,
            ),
        ]
    }

    const SEEDS: [u64; 4] = [0, 1, 7, 42];

    /// Agent configurations exercised per family: the paper default, a lazy
    /// double-density population, and one agent per vertex. Lazy walks also
    /// guarantee `meet-exchange` terminates on the bipartite families.
    fn agent_configs() -> Vec<AgentConfig> {
        vec![
            AgentConfig::default(),
            AgentConfig::with_alpha(2.0).lazy(),
            AgentConfig::one_per_vertex(),
        ]
    }

    #[test]
    fn visit_exchange_matches_naive_substrate() {
        for (name, graph, source) in agent_families() {
            for cfg in agent_configs() {
                for seed in SEEDS {
                    let mut rng_fast = SmallRng::seed_from_u64(seed);
                    let mut rng_naive = SmallRng::seed_from_u64(seed);
                    let mut fast = VisitExchange::new(
                        &graph,
                        source,
                        &cfg,
                        ProtocolOptions::none(),
                        &mut rng_fast,
                    );
                    let mut naive = NaiveVisitExchange::new(&graph, source, &cfg, &mut rng_naive);
                    assert_eq!(
                        fast.informed_agent_count(),
                        naive.informed_agents.iter().filter(|&&i| i).count(),
                        "initial agents diverged on {name} (seed {seed})"
                    );
                    let mut rounds = 0u64;
                    while !fast.is_complete() && rounds < 200_000 {
                        fast.step(&mut rng_fast);
                        naive.step(&graph, &mut rng_naive);
                        rounds += 1;
                        assert_eq!(
                            fast.messages_last_round(),
                            naive.messages_last,
                            "messages diverged on {name} round {rounds} (seed {seed})"
                        );
                        for v in graph.vertices() {
                            assert_eq!(
                                fast.is_vertex_informed(v),
                                naive.informed_vertices[v],
                                "vertex {v} diverged on {name} round {rounds} (seed {seed})"
                            );
                        }
                        for g in 0..fast.num_agents() {
                            assert_eq!(
                                fast.is_agent_informed(g),
                                naive.informed_agents[g],
                                "agent {g} diverged on {name} round {rounds} (seed {seed})"
                            );
                        }
                    }
                    assert!(fast.is_complete(), "{name} hit the round cap (seed {seed})");
                    assert!(
                        naive.informed_vertices.iter().all(|&i| i),
                        "naive incomplete when engine completed on {name} (seed {seed})"
                    );
                }
            }
            println!("visit-exchange equivalent on {name}");
        }
    }

    #[test]
    fn meet_exchange_matches_naive_substrate() {
        for (name, graph, source) in agent_families() {
            // Lazy walks everywhere: several families are bipartite, where
            // simple-walk meet-exchange has infinite expected broadcast time.
            for cfg in [
                AgentConfig::default().lazy(),
                AgentConfig::with_alpha(2.0).lazy(),
                AgentConfig::one_per_vertex().lazy(),
            ] {
                for seed in SEEDS {
                    let mut rng_fast = SmallRng::seed_from_u64(seed);
                    let mut rng_naive = SmallRng::seed_from_u64(seed);
                    let mut fast = MeetExchange::new(
                        &graph,
                        source,
                        &cfg,
                        ProtocolOptions::none(),
                        &mut rng_fast,
                    );
                    let mut naive = NaiveMeetExchange::new(&graph, source, &cfg, &mut rng_naive);
                    assert_eq!(fast.is_source_active(), naive.source_active);
                    let mut rounds = 0u64;
                    while !fast.is_complete() && rounds < 200_000 {
                        fast.step(&mut rng_fast);
                        naive.step(&graph, &mut rng_naive);
                        rounds += 1;
                        assert_eq!(
                            fast.messages_last_round(),
                            naive.messages_last,
                            "messages diverged on {name} round {rounds} (seed {seed})"
                        );
                        assert_eq!(
                            fast.is_source_active(),
                            naive.source_active,
                            "source state diverged on {name} round {rounds} (seed {seed})"
                        );
                        for g in 0..fast.num_agents() {
                            assert_eq!(
                                fast.is_agent_informed(g),
                                naive.informed_agents[g],
                                "agent {g} diverged on {name} round {rounds} (seed {seed})"
                            );
                        }
                    }
                    assert!(fast.is_complete(), "{name} hit the round cap (seed {seed})");
                    assert!(
                        naive.is_complete(),
                        "naive incomplete when engine completed on {name} (seed {seed})"
                    );
                }
            }
            println!("meet-exchange equivalent on {name}");
        }
    }

    /// Naive `push-pull` + `visit-exchange`: one round of the push-pull
    /// reference (`NaiveRumor`), then one round of the naive agent
    /// substrate over the same informed vertex set.
    struct NaiveCombined {
        rumor: NaiveRumor,
        agents: NaiveAgents,
        informed_agents: Vec<bool>,
        messages_last: u64,
    }

    impl NaiveCombined {
        fn new<R: Rng>(
            graph: &Graph,
            source: usize,
            cfg: &AgentConfig,
            mode: Mode,
            rng: &mut R,
        ) -> Self {
            let agents = NaiveAgents::place(graph, cfg, rng);
            let informed_agents = agents.positions.iter().map(|&p| p == source).collect();
            NaiveCombined {
                rumor: NaiveRumor::new(graph.num_vertices(), source, Rule::PushPull, mode),
                agents,
                informed_agents,
                messages_last: 0,
            }
        }

        fn step<R: Rng>(&mut self, graph: &Graph, rng: &mut R) {
            // Every vertex with a neighbor calls once per round.
            let callers = graph.vertices().filter(|&u| graph.degree(u) > 0).count() as u64;
            self.rumor.step(graph, rng);
            self.messages_last = callers + self.agents.step(graph, rng);
            let snapshot = self.informed_agents.clone();
            for (agent, &informed) in snapshot.iter().enumerate() {
                if informed {
                    self.rumor.insert(self.agents.positions[agent]);
                }
            }
            for agent in 0..self.agents.positions.len() {
                if self.rumor.informed[self.agents.positions[agent]] {
                    self.informed_agents[agent] = true;
                }
            }
        }
    }

    #[test]
    fn push_pull_visit_exchange_matches_the_composed_references() {
        use rumor_core::PushPullVisitExchange;
        for (name, graph, source) in agent_families() {
            for cfg in agent_configs() {
                for (mode, options) in [
                    (Mode::SkipDeadDraws, ProtocolOptions::none()),
                    (Mode::AlwaysDraw, traffic()),
                ] {
                    for seed in SEEDS {
                        let mut rng_fast = SmallRng::seed_from_u64(seed);
                        let mut rng_naive = SmallRng::seed_from_u64(seed);
                        let mut fast = PushPullVisitExchange::new(
                            &graph,
                            source,
                            &cfg,
                            options,
                            &mut rng_fast,
                        );
                        let mut naive =
                            NaiveCombined::new(&graph, source, &cfg, mode, &mut rng_naive);
                        let mut rounds = 0u64;
                        while !fast.is_complete() && rounds < 200_000 {
                            fast.step(&mut rng_fast);
                            naive.step(&graph, &mut rng_naive);
                            rounds += 1;
                            assert_eq!(
                                fast.messages_last_round(),
                                naive.messages_last,
                                "messages diverged on {name} round {rounds} (seed {seed})"
                            );
                            for v in graph.vertices() {
                                assert_eq!(
                                    fast.is_vertex_informed(v),
                                    naive.rumor.informed[v],
                                    "vertex {v} diverged on {name} round {rounds} (seed {seed})"
                                );
                            }
                            for g in 0..fast.num_agents() {
                                assert_eq!(
                                    fast.is_agent_informed(g),
                                    naive.informed_agents[g],
                                    "agent {g} diverged on {name} round {rounds} (seed {seed})"
                                );
                            }
                        }
                        assert!(fast.is_complete(), "{name} hit the round cap (seed {seed})");
                        assert!(
                            naive.rumor.is_complete(),
                            "naive incomplete on {name} (seed {seed})"
                        );
                    }
                }
            }
            println!("push-pull+visit-exchange equivalent on {name}");
        }
    }

    #[test]
    fn churn_visit_exchange_matches_naive_per_agent_teleports() {
        // The engine batches rebirth teleports into one occupancy rebuild;
        // the naive reference teleports immediately per agent. Identical
        // trajectories prove the batching preserves the draw order.
        for (name, graph, source) in agent_families() {
            for (cfg, seed) in agent_configs()
                .into_iter()
                .flat_map(|cfg| [0u64, 9, 77].map(|seed| (cfg.clone(), seed)))
            {
                let churn = 0.1;
                let mut rng_fast = SmallRng::seed_from_u64(seed);
                let mut rng_naive = SmallRng::seed_from_u64(seed);
                let mut fast = VisitExchange::with_churn(
                    &graph,
                    source,
                    &cfg,
                    churn,
                    ProtocolOptions::none(),
                    &mut rng_fast,
                )
                .unwrap();
                let mut naive = NaiveChurn::new(&graph, source, &cfg, churn, &mut rng_naive);
                let mut rounds = 0u64;
                while !fast.is_complete() && rounds < 200_000 {
                    fast.step(&mut rng_fast);
                    naive.step(&graph, &mut rng_naive);
                    rounds += 1;
                    for v in graph.vertices() {
                        assert_eq!(
                            fast.is_vertex_informed(v),
                            naive.informed_vertices[v],
                            "vertex {v} diverged on {name} round {rounds} (seed {seed})"
                        );
                    }
                    for g in 0..fast.num_agents() {
                        assert_eq!(
                            fast.is_agent_informed(g),
                            naive.informed_agents[g],
                            "agent {g} diverged on {name} round {rounds} (seed {seed})"
                        );
                    }
                }
                assert!(
                    fast.is_complete(),
                    "{name} hit the round cap ({cfg:?}, seed {seed})"
                );
            }
            println!("churn-visit-exchange equivalent on {name}");
        }
    }

    #[test]
    fn edge_traffic_mode_does_not_perturb_agent_trajectories() {
        // Unlike push/pull, the agent protocols draw identically in both
        // sampling modes (every agent always draws); edge-traffic recording
        // is pure observation. Full outcomes must therefore coincide, and
        // the recorded traffic must account for every message.
        use rumor_core::{simulate_on, ProtocolKind, SimulationSpec};
        for kind in [ProtocolKind::VisitExchange, ProtocolKind::MeetExchange] {
            for (name, graph, source) in agent_families() {
                for seed in SEEDS {
                    let base = SimulationSpec::new(kind)
                        .with_seed(seed)
                        .with_max_rounds(200_000)
                        .adapted_to(&graph);
                    let plain = simulate_on(&graph, source, &base);
                    let traffic_spec = base
                        .clone()
                        .with_options(ProtocolOptions::with_edge_traffic());
                    let with_traffic = simulate_on(&graph, source, &traffic_spec);
                    assert_eq!(
                        plain.rounds, with_traffic.rounds,
                        "{kind} rounds diverged on {name} (seed {seed})"
                    );
                    assert_eq!(
                        plain.total_messages, with_traffic.total_messages,
                        "{kind} messages diverged on {name} (seed {seed})"
                    );
                    assert_eq!(plain.informed_agents, with_traffic.informed_agents);
                    let stats = with_traffic.edge_traffic.expect("traffic requested");
                    assert_eq!(stats.edges, graph.num_edges());
                }
            }
            println!("{kind} modes agree");
        }
    }
}
