//! # rumor-core
//!
//! Reference implementation of the protocols studied in the PODC 2019 paper
//! *“How to Spread a Rumor: Call Your Neighbors or Take a Walk?”*
//! (Giakkoupis, Mallmann-Trenn, Saribekyan): classical randomized rumor
//! spreading (`push`, `push-pull`) and the agent-based alternatives
//! (`visit-exchange`, `meet-exchange`), plus a pull-only baseline and the
//! `push-pull` + `visit-exchange` combination suggested in the paper's
//! introduction.
//!
//! ## Model
//!
//! All protocols run in synchronous rounds on a connected undirected graph.
//! Round 0 places the rumor at a source vertex; each later round is one
//! parallel communication step. The agent-based protocols use `|A| = αn`
//! agents performing independent random walks started from the stationary
//! distribution (configurable via [`AgentConfig`]).
//!
//! ## Quick start
//!
//! ```
//! use rumor_core::{simulate_on, ProtocolKind, SimulationSpec};
//! use rumor_graphs::generators::double_star;
//!
//! // Lemma 3: on the double star, push-pull needs Ω(n) rounds in expectation
//! // but visit-exchange finishes in O(log n). Average a few seeded runs.
//! let g = double_star(500)?;
//! let mean = |kind| -> f64 {
//!     (0..5)
//!         .map(|seed| simulate_on(&g, 2, &SimulationSpec::new(kind).with_seed(seed)).rounds)
//!         .sum::<u64>() as f64
//!         / 5.0
//! };
//! assert!(mean(ProtocolKind::PushPull) > mean(ProtocolKind::VisitExchange));
//! # Ok::<(), rumor_graphs::GraphError>(())
//! ```
//!
//! ## Crate layout
//!
//! * [`Protocol`] — the trait shared by all protocols; [`ProtocolKind`] +
//!   [`build_protocol`] construct them dynamically.
//! * [`Gossip`] — `push`, `pull` and `push-pull` as one protocol over a
//!   sealed [`GossipRule`] ([`PushRule`], [`PullRule`], [`PushPullRule`]);
//!   [`Push`], [`Pull`] and [`PushPull`] are its aliases, and
//!   [`AsyncPush`] and [`AsyncPushPull`] alias the asynchronous
//!   [`AsyncGossip`] over the same rules.
//! * [`Exchange`] — `visit-exchange` and `meet-exchange` as one protocol
//!   over a sealed [`ExchangeRule`] ([`VisitRule`], [`MeetRule`]);
//!   [`VisitExchange`] and [`MeetExchange`] are its aliases, and
//!   [`VisitExchange::with_churn`] adds agent churn as a per-round respawn
//!   hook. [`PushPullVisitExchange`] runs a [`PushPull`] vertex phase and
//!   the same visit-exchange scans.
//! * [`simulate_on`], [`SimulationSpec`], [`run_to_completion`] — the
//!   engine. Every entry point (plain, pooled, checkpointed, resumed,
//!   sharded or sequential) advances rounds through one private driver.
//! * [`BroadcastOutcome`], [`RoundRecord`], [`EdgeTraffic`],
//!   [`EdgeTrafficStats`] — measurements.
//! * [`instrument`] — the proof machinery of Sections 5–6 (visit counters,
//!   C-counters, the push/visit-exchange coupling) made executable.
//!
//! ## Engine architecture
//!
//! The hot path is frontier-based and monomorphized:
//!
//! * Informed sets are a bitset + dense-list hybrid, and one boundary
//!   tracker, shared by every user of a [`GossipRule`], keeps an
//!   uninformed-neighbor count per vertex so each round draws only for
//!   callers whose draw can change the state (informed pushers with an
//!   uninformed neighbor, uninformed pullers with an informed neighbor;
//!   push-pull has both). Skipped callers' messages are counted
//!   arithmetically; skipping a draw whose every outcome leaves the
//!   state unchanged does not alter the trajectory's law. Per-round draw
//!   cost is O(|boundary|), counter upkeep O(|E|) over a run, and
//!   `newly_informed` buffers are reused across rounds. With
//!   [`ProtocolOptions::record_edge_traffic`] set, every draw is realized
//!   instead (per-edge traffic must observe it).
//! * Every protocol exposes a generic `step_with<R: Rng>` next to the
//!   object-safe [`Protocol::step`]; [`simulate_on`] drives concrete protocol
//!   types with the engine's fast RNG (xoshiro256++ `SmallRng`), so neighbor
//!   sampling inlines with no per-draw virtual dispatch. `StdRng` (ChaCha12)
//!   remains available for callers that want it.
//! * **Determinism — two contracts:** an outcome is a pure function of
//!   `(graph, source, spec)` — same spec + seed ⇒ same outcome, regardless
//!   of machine or thread count. [`Engine::Sequential`] (the default) is
//!   the draw-order contract: one generator consumed in ascending entity
//!   order, pinned bit-identical against naive references by
//!   `tests/equivalence.rs`. [`Engine::Sharded`] is the counter-based
//!   contract: every entity draws from its own stream (`rand::stream`,
//!   keyed by seed/round/entity/draw), so rounds shard across scoped
//!   worker threads with bit-identical output at every thread count —
//!   pinned at 1/2/3/8 workers by `tests/parallel_engine.rs`, which also
//!   pins the two engines' round distributions against each other.
//!   [`resolve_threads`] maps a requested count (`0` = auto) through the
//!   `RUMOR_THREADS` environment variable and the host's parallelism.
//! * Per-round history is recorded only when
//!   [`ProtocolOptions::record_history`] is set; large sweeps allocate no
//!   [`RoundRecord`]s at all.
//! * **Three topology backends, one bit-identical contract:** every
//!   protocol and both engines are generic over `rumor_graphs::Topology` —
//!   the CSR `Graph`, the closed-form `ImplicitGraph` (structured families
//!   as `O(1)` parameters, enabling 10⁸-vertex instances), or the seed-keyed
//!   `GeneratedGraph` (G(n, p) / Chung–Lu random families derived on demand
//!   from a counter-based hash in `O(n)` memory). [`simulate_on`]
//!   monomorphizes per backend, [`simulate_topology`] dispatches a runtime
//!   choice once, and `tests/implicit_topology.rs` +
//!   `tests/generated_topology.rs` pin the backends bit-identical across
//!   protocols, engines, and thread counts.
//! * **Pooled trial workspaces:** [`simulate_in`] sources all per-trial
//!   state from a reusable [`SimWorkspace`] — protocol `reset()` (pinned
//!   construction-equivalent, with an `O(Σ deg(informed))` undo path after
//!   windowed trials) replaces reallocation, which is what makes the sweep
//!   runner's trials allocation-free after warm-up.
//! * **Checkpoint/resume:** [`simulate_resumable_in`] hands versioned,
//!   checksummed [`SimSnapshot`]s to a sink at a [`CheckpointCadence`];
//!   [`resume_in`] continues from one **bit-identically** to the
//!   uninterrupted run, on every backend and both engines (sharded
//!   snapshots carry no RNG state — counter streams re-derive from the
//!   round — so they resume at *any* thread count). Snapshots never store
//!   topology; a `spec_digest` rejects wrong-spec or cross-engine resumes
//!   ([`SnapshotError`]). `tests/checkpoint_resume.rs` pins the grid.
//!   Vertex protocols also detect quiescence, so disconnected instances
//!   stall out instead of spinning to the round cap, and
//!   [`SimulationSpec::validate`] rejects malformed specs with typed
//!   [`SpecError`]s before any engine state is built.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod driver;
mod engine;
mod metrics;
mod options;
mod parallel;
mod protocol;
mod protocols;
mod snapshot;

pub mod instrument;

pub use engine::{
    resume_in, run_to_completion, simulate_async, simulate_in, simulate_on, simulate_resumable_in,
    simulate_topology, try_simulate_on, Engine, SimWorkspace, SimulationSpec, SpecError,
};
pub use metrics::{BroadcastOutcome, EdgeTraffic, EdgeTrafficStats, RoundRecord};
pub use options::{AgentConfig, ProtocolOptions};
pub use parallel::resolve_threads;
pub use protocol::{build_protocol, Protocol, ProtocolKind};
pub use protocols::{
    AsyncGossip, AsyncPush, AsyncPushPull, Exchange, ExchangeRule, Gossip, GossipRule,
    InvalidChurnError, MeetExchange, MeetRule, Pull, PullRule, Push, PushPull, PushPullRule,
    PushPullVisitExchange, PushRule, VisitExchange, VisitRule,
};
pub use snapshot::{CheckpointCadence, ResumableRun, SimSnapshot, SnapshotError};

// Re-export the agent-configuration vocabulary so downstream users rarely need
// to depend on rumor-walks directly.
pub use rumor_walks::{AgentCount, Placement, WalkConfig};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rumor_graphs::generators::connected_erdos_renyi;

    fn arbitrary_graph(n: usize, seed: u64) -> rumor_graphs::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        connected_erdos_renyi(n, 0.35, &mut rng).expect("connected G(n,p)")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every protocol completes on small connected graphs and reports a
        /// consistent outcome (informed counts full, monotone history).
        #[test]
        fn protocols_complete_on_connected_graphs(
            n in 4usize..40,
            source_pick in 0usize..1000,
            seed in 0u64..500,
            kind_idx in 0usize..ProtocolKind::ALL.len(),
        ) {
            let graph = arbitrary_graph(n, seed);
            let source = source_pick % graph.num_vertices();
            let kind = ProtocolKind::ALL[kind_idx];
            // `adapted_to` switches meet-exchange to lazy walks when the
            // sampled graph happens to be bipartite (e.g. a tree at small n),
            // where simple walks can be parity-trapped forever (Section 3).
            let spec = SimulationSpec::new(kind)
                .with_seed(seed)
                .with_max_rounds(200_000)
                .with_options(ProtocolOptions::with_history())
                .adapted_to(&graph);
            let outcome = simulate_on(&graph, source, &spec);
            prop_assert!(outcome.completed, "{} did not complete on n={}", kind, n);
            if kind == ProtocolKind::MeetExchange {
                prop_assert_eq!(outcome.informed_agents, graph.num_vertices());
            } else {
                prop_assert_eq!(outcome.informed_vertices, graph.num_vertices());
            }
            // History is monotone in informed vertices and agents. (In
            // meet-exchange the "informed vertex" count is just the source
            // while it is still active, which legitimately drops to zero, so
            // only the agent count is monotone there.)
            let mut prev_v = 0;
            let mut prev_a = 0;
            for rec in &outcome.history {
                if kind != ProtocolKind::MeetExchange {
                    prop_assert!(rec.informed_vertices >= prev_v);
                    prev_v = rec.informed_vertices;
                }
                prop_assert!(rec.informed_agents >= prev_a);
                prev_a = rec.informed_agents;
            }
        }

        /// Simulation is a pure function of (graph, source, spec).
        #[test]
        fn simulation_is_deterministic(
            n in 4usize..30,
            seed in 0u64..200,
            kind_idx in 0usize..ProtocolKind::ALL.len(),
        ) {
            let graph = arbitrary_graph(n, seed);
            let kind = ProtocolKind::ALL[kind_idx];
            let spec = SimulationSpec::new(kind).with_seed(seed).with_max_rounds(100_000);
            let a = simulate_on(&graph, 0, &spec);
            let b = simulate_on(&graph, 0, &spec);
            prop_assert_eq!(a, b);
        }

        /// The broadcast time of push is at least the BFS eccentricity of the
        /// source (information travels one hop per round), and push-pull is
        /// never slower than 2x... actually just check the distance lower
        /// bound for both push-like protocols.
        #[test]
        fn push_cannot_beat_graph_distance(n in 4usize..40, seed in 0u64..200) {
            let graph = arbitrary_graph(n, seed);
            let ecc = rumor_graphs::algorithms::eccentricity(&graph, 0).unwrap() as u64;
            let outcome = simulate_on(&graph, 0, &SimulationSpec::new(ProtocolKind::Push).with_seed(seed));
            prop_assert!(outcome.rounds >= ecc);
            let outcome_pp = simulate_on(&graph, 0, &SimulationSpec::new(ProtocolKind::PushPull).with_seed(seed));
            prop_assert!(outcome_pp.rounds >= ecc);
        }
    }
}
