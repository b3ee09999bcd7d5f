//! Pins the sharded engine's two headline properties:
//!
//! * **Thread-count invariance** — the sharded engine's output is
//!   bit-identical at every worker count (1, 2, 3, 8, and the auto setting,
//!   which resolves through `RUMOR_THREADS`; CI runs this suite at
//!   `RUMOR_THREADS=1` and `RUMOR_THREADS=3`, an odd count that lands shard
//!   boundaries off word-range midpoints). This is the counter-based RNG
//!   contract: a draw is a pure function of `(seed, round, entity, index)`,
//!   so the partition of entities across workers cannot influence anything.
//! * **Distributional agreement with the sequential engine** — the two
//!   engines produce different trajectories for the same seed (different
//!   RNG contracts) but must sample the *same process*. Trial means of the
//!   broadcast time are compared under generous tolerances; seeds are fixed,
//!   so these tests are deterministic.
//!
//! The fallback rules (combined protocol, edge-traffic observability) are
//! pinned too: those specs must produce exactly the sequential outcome.

use rumor_core::{simulate_on, AgentConfig, Engine, ProtocolKind, ProtocolOptions, SimulationSpec};
use rumor_graphs::generators::{
    complete, connected_erdos_renyi, cycle, double_star, path, star, CycleOfStarsOfCliques,
    HeavyBinaryTree,
};
use rumor_graphs::Graph;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The eight graph families of the equivalence matrix (mixing regular /
/// non-regular, bipartite / non-bipartite, and the paper's Fig. 1 shapes).
fn families() -> Vec<(&'static str, Graph, usize)> {
    let mut rng = StdRng::seed_from_u64(999);
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

const SHARDED_KINDS: [ProtocolKind; 5] = [
    ProtocolKind::Push,
    ProtocolKind::Pull,
    ProtocolKind::PushPull,
    ProtocolKind::VisitExchange,
    ProtocolKind::MeetExchange,
];

#[test]
fn sharded_outputs_are_bit_identical_across_thread_counts() {
    for (name, graph, source) in families() {
        for kind in SHARDED_KINDS {
            for seed in [0u64, 11] {
                let spec = SimulationSpec::new(kind)
                    .with_seed(seed)
                    .with_max_rounds(300_000)
                    .adapted_to(&graph);
                let reference = simulate_on(&graph, source, &spec.clone().with_sharded(1));
                assert!(
                    reference.completed,
                    "{kind} did not complete on {name} (seed {seed})"
                );
                // 2 and 8 bracket the shard counts the heuristics pick on
                // these sizes; 3 is odd, so shard boundaries fall off word-
                // range midpoints; 0 resolves via RUMOR_THREADS / all cores
                // (CI runs this suite under RUMOR_THREADS=1 and =3).
                for threads in [2usize, 3, 8, 0] {
                    let outcome = simulate_on(&graph, source, &spec.clone().with_sharded(threads));
                    assert_eq!(
                        outcome, reference,
                        "{kind} diverged on {name} at {threads} threads (seed {seed})"
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_history_runs_are_thread_invariant_and_consistent() {
    let graph = double_star(40).unwrap();
    for kind in SHARDED_KINDS {
        let spec = SimulationSpec::new(kind)
            .with_seed(5)
            .with_max_rounds(300_000)
            .with_options(ProtocolOptions::with_history())
            .adapted_to(&graph);
        let one = simulate_on(&graph, 2, &spec.clone().with_sharded(1));
        let three = simulate_on(&graph, 2, &spec.clone().with_sharded(3));
        assert_eq!(one, three, "{kind} history runs diverged");
        assert_eq!(one.history.len() as u64, one.rounds);
        // History must not perturb the run.
        let plain = simulate_on(
            &graph,
            2,
            &SimulationSpec::new(kind)
                .with_seed(5)
                .with_max_rounds(300_000)
                .adapted_to(&graph)
                .with_sharded(2),
        );
        assert_eq!(
            plain.rounds, one.rounds,
            "{kind}: history perturbed the run"
        );
        // Monotone informed counts, exactly like the sequential engine.
        let mut prev = 0;
        for rec in &one.history {
            let informed = if kind == ProtocolKind::MeetExchange {
                rec.informed_agents
            } else {
                rec.informed_vertices
            };
            assert!(informed >= prev, "{kind}: informed count not monotone");
            prev = informed;
        }
    }
}

#[test]
fn sharded_engine_is_reproducible() {
    let graph = star(80).unwrap();
    for kind in SHARDED_KINDS {
        let spec = SimulationSpec::new(kind)
            .with_seed(9)
            .with_max_rounds(300_000)
            .adapted_to(&graph)
            .with_sharded(4);
        let a = simulate_on(&graph, 0, &spec);
        let b = simulate_on(&graph, 0, &spec);
        assert_eq!(a, b, "{kind} not reproducible");
    }
}

#[test]
fn unsupported_specs_fall_back_to_the_sequential_engine_exactly() {
    let graph = complete(20).unwrap();
    // Edge-traffic observability is a sequential-contract mode.
    let traffic = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(3)
        .with_options(ProtocolOptions::with_edge_traffic());
    let seq = simulate_on(&graph, 0, &traffic);
    let sharded = simulate_on(&graph, 0, &traffic.clone().with_sharded(3));
    assert_eq!(seq, sharded, "edge-traffic spec must fall back bit-for-bit");
    // The combined protocol has no sharded implementation.
    let combined = SimulationSpec::new(ProtocolKind::PushPullVisitExchange).with_seed(3);
    let seq = simulate_on(&graph, 0, &combined);
    let sharded = simulate_on(&graph, 0, &combined.clone().with_sharded(3));
    assert_eq!(seq, sharded, "combined spec must fall back bit-for-bit");
}

#[test]
fn engine_selection_builders() {
    let spec = SimulationSpec::new(ProtocolKind::Push);
    assert_eq!(spec.engine, Engine::Sequential);
    assert_eq!(
        spec.clone().with_sharded(4).engine,
        Engine::Sharded { threads: 4 }
    );
    assert_eq!(
        spec.with_engine(Engine::Sharded { threads: 0 }).engine,
        Engine::Sharded { threads: 0 }
    );
    assert!(rumor_core::resolve_threads(0) >= 1);
    assert_eq!(rumor_core::resolve_threads(5), 5);
}

/// Mean broadcast time of `spec` over `trials` consecutive seeds.
fn mean_rounds(graph: &Graph, source: usize, spec: &SimulationSpec, trials: u64) -> f64 {
    let total: u64 = (0..trials)
        .map(|t| {
            let outcome = simulate_on(graph, source, &spec.clone().with_seed(spec.seed + t));
            assert!(outcome.completed, "trial did not complete");
            outcome.rounds
        })
        .sum();
    total as f64 / trials as f64
}

/// The sharded engine samples the same broadcast-time distribution as the
/// sequential reference. Means over 80 fixed-seed trials of processes with
/// O(log n) concentration agree well within 15%; a draw-order or stream
/// defect (e.g. correlated entity streams) shifts these means far outside
/// that band.
#[test]
fn sharded_round_distributions_match_sequential() {
    let cases: &[(ProtocolKind, Graph, usize, AgentConfig)] = &[
        (
            ProtocolKind::Push,
            complete(64).unwrap(),
            0,
            AgentConfig::default(),
        ),
        (
            ProtocolKind::Pull,
            complete(64).unwrap(),
            0,
            AgentConfig::default(),
        ),
        (
            ProtocolKind::PushPull,
            star(60).unwrap(),
            0,
            AgentConfig::default(),
        ),
        (
            ProtocolKind::VisitExchange,
            complete(32).unwrap(),
            0,
            AgentConfig::default(),
        ),
        (
            ProtocolKind::MeetExchange,
            complete(32).unwrap(),
            0,
            AgentConfig::default(),
        ),
    ];
    for (kind, graph, source, agents) in cases {
        let base = SimulationSpec::new(*kind)
            .with_seed(1000)
            .with_agents(agents.clone())
            .with_max_rounds(1_000_000);
        let sequential = mean_rounds(graph, *source, &base, 80);
        let sharded = mean_rounds(graph, *source, &base.clone().with_sharded(2), 80);
        let rel = (sequential - sharded).abs() / sequential.max(1.0);
        assert!(
            rel < 0.15,
            "{kind}: sequential mean {sequential:.2} vs sharded mean {sharded:.2} \
             (relative gap {rel:.3})"
        );
    }
}

/// Message totals are part of the same distributional contract: for push on
/// a clique the per-round message count equals the informed count, so the
/// trial-mean totals of the two engines must agree closely.
#[test]
fn sharded_message_totals_match_sequential_in_distribution() {
    let graph = complete(48).unwrap();
    let base = SimulationSpec::new(ProtocolKind::Push).with_seed(7);
    let total = |spec: &SimulationSpec| -> f64 {
        (0..60u64)
            .map(|t| simulate_on(&graph, 0, &spec.clone().with_seed(7 + t)).total_messages)
            .sum::<u64>() as f64
            / 60.0
    };
    let seq = total(&base);
    let sharded = total(&base.clone().with_sharded(3));
    let rel = (seq - sharded).abs() / seq.max(1.0);
    assert!(
        rel < 0.15,
        "message totals diverged: sequential {seq:.1} vs sharded {sharded:.1}"
    );
}

/// Both engines start every trial from the identical agent configuration:
/// construction (placement) consumes the same seeded `SmallRng`, so a
/// zero-round view of the system is engine-independent. Observable here
/// through the informed-agent count at round 0 of meet-exchange on a star
/// with all agents forced onto one vertex.
#[test]
fn sharded_and_sequential_share_initial_placement() {
    use rumor_walks::Placement;
    let graph = star(30).unwrap();
    let cfg = AgentConfig::default().with_placement(Placement::AllAt(4));
    // Source is the placement vertex: every agent is informed at round 0 and
    // the run completes immediately — in both engines, with the same counts.
    let spec = SimulationSpec::new(ProtocolKind::MeetExchange)
        .with_seed(2)
        .with_agents(cfg);
    let seq = simulate_on(&graph, 4, &spec);
    let sharded = simulate_on(&graph, 4, &spec.clone().with_sharded(2));
    assert_eq!(seq.rounds, 0);
    assert_eq!(sharded.rounds, 0);
    assert_eq!(seq.informed_agents, sharded.informed_agents);
}

/// FNV-1a over a run's recorded history: every field of every round, as
/// little-endian `u64`s.
fn history_digest(history: &[rumor_core::RoundRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for rec in history {
        for field in [
            rec.round,
            rec.informed_vertices as u64,
            rec.informed_agents as u64,
            rec.messages,
        ] {
            for byte in field.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// Fixed-value pins of the sharded agent engine: rounds, total messages,
/// final informed vertex and agent counts, and a digest of the per-round
/// history, for visit- and meet-exchange on four families at two seeds.
/// The star and double star are large enough (about 2·10⁴ vertices and
/// agents) that the exchange scans split into several shards at three
/// workers. Every case runs at the auto thread count (steered by
/// `RUMOR_THREADS` in CI) and at one and three explicit workers; the
/// counter-based contract makes all three equal to the pinned values.
#[test]
fn sharded_agent_engine_matches_pinned_values() {
    /// (rounds, messages, informed vertices, informed agents, history digest)
    type Pinned = (u64, u64, usize, usize, u64);
    #[rustfmt::skip]
    let pinned: &[(ProtocolKind, &str, u64, Pinned)] = &[
        (ProtocolKind::VisitExchange, "star", 0, (20, 400020, 20001, 20001, 1588735466103148770)),
        (ProtocolKind::VisitExchange, "star", 11, (26, 520026, 20001, 20001, 9113340215181600121)),
        (ProtocolKind::VisitExchange, "double-star", 0, (21, 420042, 20002, 20002, 8748399945121708943)),
        (ProtocolKind::VisitExchange, "double-star", 11, (30, 600060, 20002, 20002, 5637620781576339580)),
        (ProtocolKind::VisitExchange, "cycle", 0, (25, 750, 30, 30, 16838543581067707044)),
        (ProtocolKind::VisitExchange, "cycle", 11, (33, 990, 30, 30, 177371986699415516)),
        (ProtocolKind::VisitExchange, "cycle-of-stars-of-cliques", 0, (18, 1512, 84, 84, 16193372681330625237)),
        (ProtocolKind::VisitExchange, "cycle-of-stars-of-cliques", 11, (18, 1512, 84, 84, 14278798485329042403)),
        (ProtocolKind::MeetExchange, "star", 0, (13, 130157, 0, 20001, 15919519590993108469)),
        (ProtocolKind::MeetExchange, "star", 11, (17, 169767, 0, 20001, 11626989186997120819)),
        (ProtocolKind::MeetExchange, "double-star", 0, (17, 170124, 0, 20002, 18156113698115022512)),
        (ProtocolKind::MeetExchange, "double-star", 11, (23, 229701, 0, 20002, 6184785713702615057)),
        (ProtocolKind::MeetExchange, "cycle", 0, (44, 645, 0, 30, 10858880816174150365)),
        (ProtocolKind::MeetExchange, "cycle", 11, (56, 825, 0, 30, 4167097950040472405)),
        (ProtocolKind::MeetExchange, "cycle-of-stars-of-cliques", 0, (35, 2940, 0, 84, 11548277760869413713)),
        (ProtocolKind::MeetExchange, "cycle-of-stars-of-cliques", 11, (39, 3276, 0, 84, 17043774305628576719)),
    ];
    let graphs = [
        ("star", star(20_000).unwrap(), 3),
        ("double-star", double_star(10_000).unwrap(), 2),
        ("cycle", cycle(30).unwrap(), 5),
        (
            "cycle-of-stars-of-cliques",
            CycleOfStarsOfCliques::with_at_least(60)
                .unwrap()
                .into_graph(),
            0,
        ),
    ];
    let mut checked = 0;
    for kind in [ProtocolKind::VisitExchange, ProtocolKind::MeetExchange] {
        for (name, graph, source) in &graphs {
            for seed in [0u64, 11] {
                let spec = SimulationSpec::new(kind)
                    .with_seed(seed)
                    .with_max_rounds(300_000)
                    .with_options(ProtocolOptions::with_history())
                    .adapted_to(graph);
                for threads in [0usize, 1, 3] {
                    let out = simulate_on(graph, *source, &spec.clone().with_sharded(threads));
                    let got = (
                        out.rounds,
                        out.total_messages,
                        out.informed_vertices,
                        out.informed_agents,
                        history_digest(&out.history),
                    );
                    let expected = pinned
                        .iter()
                        .find(|(k, n, s, _)| *k == kind && n == name && *s == seed)
                        .map(|case| case.3);
                    assert_eq!(
                        Some(got),
                        expected,
                        "{kind} on {name} (seed {seed}) at {threads} threads"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 2 * 4 * 2 * 3);
}

/// Fixed-value pins of the sharded vertex engine: rounds, total messages,
/// final informed count and a digest of the per-round history, for push,
/// pull and push-pull at two seeds on four instances:
///
/// * a random 16-regular CSR graph on 2^14 vertices, large enough that the
///   CSR backend defers reads (asserted), so the vertex pass takes its block
///   shape, and whose push-pull and pull frontiers hold thousands of
///   vertices: several shards at three workers, each with several 128-caller
///   batches;
/// * a generated Chung–Lu graph and the same graph behind a hub cache (both
///   defer; isolated vertices make every rule stall short of completion);
/// * a star, whose leaves have degree 1 and draw nothing under the counter
///   contract, and whose pull rounds from a leaf split all leaves into
///   several shards.
///
/// Every case runs at the auto thread count (steered by `RUMOR_THREADS` in
/// CI) and at one and three explicit workers.
#[test]
fn sharded_vertex_engine_matches_pinned_values() {
    use rumor_graphs::generators::random_regular;
    use rumor_graphs::{GeneratedGraph, HubCachedGraph, Topology};

    /// (rounds, messages, informed vertices, history digest)
    type Pinned = (u64, u64, usize, u64);
    #[rustfmt::skip]
    let pinned: &[(ProtocolKind, &str, u64, Pinned)] = &[
        (ProtocolKind::Push, "random-regular", 0, (25, 163457, 16384, 6460801567475052413)),
        (ProtocolKind::Push, "random-regular", 11, (25, 158599, 16384, 3819057937500803641)),
        (ProtocolKind::Pull, "random-regular", 0, (22, 277590, 16384, 9253901362236609363)),
        (ProtocolKind::Pull, "random-regular", 11, (19, 226267, 16384, 11674047907249541671)),
        (ProtocolKind::PushPull, "random-regular", 0, (14, 229376, 16384, 2313022038984866151)),
        (ProtocolKind::PushPull, "random-regular", 11, (13, 212992, 16384, 9478224724706679772)),
        (ProtocolKind::Push, "chung-lu", 0, (2333, 45328954, 19623, 7363303393093557790)),
        (ProtocolKind::Push, "chung-lu", 11, (1206, 23220082, 19623, 6474122354358077080)),
        (ProtocolKind::Pull, "chung-lu", 0, (18, 204415, 19623, 11094025033524223076)),
        (ProtocolKind::Pull, "chung-lu", 11, (17, 195537, 19623, 12499107750004857059)),
        (ProtocolKind::PushPull, "chung-lu", 0, (13, 255294, 19623, 17554188477289387852)),
        (ProtocolKind::PushPull, "chung-lu", 11, (14, 274932, 19623, 1458222050479232319)),
        (ProtocolKind::Push, "chung-lu-hub", 0, (2333, 45328954, 19623, 7363303393093557790)),
        (ProtocolKind::Push, "chung-lu-hub", 11, (1206, 23220082, 19623, 6474122354358077080)),
        (ProtocolKind::Pull, "chung-lu-hub", 0, (18, 204415, 19623, 11094025033524223076)),
        (ProtocolKind::Pull, "chung-lu-hub", 11, (17, 195537, 19623, 12499107750004857059)),
        (ProtocolKind::PushPull, "chung-lu-hub", 0, (13, 255294, 19623, 17554188477289387852)),
        (ProtocolKind::PushPull, "chung-lu-hub", 11, (14, 274932, 19623, 1458222050479232319)),
        (ProtocolKind::Push, "star", 0, (36748, 159284673, 5001, 17431268890178974429)),
        (ProtocolKind::Push, "star", 11, (39681, 173173960, 5001, 2124598423222618297)),
        (ProtocolKind::Pull, "star", 0, (6312, 31559999, 5001, 16257685667048833784)),
        (ProtocolKind::Pull, "star", 11, (1657, 8284999, 5001, 6501969411557138797)),
        (ProtocolKind::PushPull, "star", 0, (2, 10002, 5001, 10277501685599930328)),
        (ProtocolKind::PushPull, "star", 11, (2, 10002, 5001, 10277501685599930328)),
    ];
    fn check<G: Topology>(
        pinned: &[(ProtocolKind, &str, u64, Pinned)],
        name: &str,
        graph: &G,
        source: usize,
    ) -> usize {
        let mut checked = 0;
        for kind in [
            ProtocolKind::Push,
            ProtocolKind::Pull,
            ProtocolKind::PushPull,
        ] {
            for seed in [0u64, 11] {
                let spec = SimulationSpec::new(kind)
                    .with_seed(seed)
                    .with_max_rounds(300_000)
                    .with_options(ProtocolOptions::with_history());
                for threads in [0usize, 1, 3] {
                    let out = simulate_on(graph, source, &spec.clone().with_sharded(threads));
                    let got = (
                        out.rounds,
                        out.total_messages,
                        out.informed_vertices,
                        history_digest(&out.history),
                    );
                    let expected = pinned
                        .iter()
                        .find(|(k, n, s, _)| *k == kind && *n == name && *s == seed)
                        .map(|case| case.3);
                    assert_eq!(
                        Some(got),
                        expected,
                        "{kind} on {name} (seed {seed}) at {threads} threads"
                    );
                    checked += 1;
                }
            }
        }
        checked
    }

    let regular = random_regular(1 << 14, 16, &mut StdRng::seed_from_u64(28)).unwrap();
    assert!(
        regular.defers_reads(),
        "the regular instance must defer reads"
    );
    let generated = GeneratedGraph::chung_lu(20_000, 2.5, 8.0, 28).unwrap();
    let hub = HubCachedGraph::over(generated.clone());
    let mut checked = check(pinned, "random-regular", &regular, 0);
    checked += check(pinned, "chung-lu", &generated, 0);
    checked += check(pinned, "chung-lu-hub", &hub, 0);
    checked += check(pinned, "star", &star(5_000).unwrap(), 3);
    assert_eq!(checked, 4 * 3 * 2 * 3);
}
