//! Workspace-level API integration tests: exercise the public surface the way
//! a downstream user would (generators → simulate → analysis → experiments),
//! independent of any particular paper claim.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rumor_analysis::{Summary, Table};
use rumor_core::instrument::{CCounterTrace, CoupledRun};
use rumor_core::{
    build_protocol, simulate_on, AgentConfig, ProtocolKind, ProtocolOptions, SimulationSpec,
};
use rumor_experiments::{all_experiment_ids, run_experiment, ExperimentConfig};
use rumor_graphs::algorithms::{diameter_exact, is_connected, DegreeStats};
use rumor_graphs::generators::{
    barbell, complete, connected_erdos_renyi, cycle, cycle_of_cliques, double_star, grid,
    hypercube, lollipop, path, random_regular, star, torus, CycleOfStarsOfCliques, HeavyBinaryTree,
    SiameseHeavyBinaryTree,
};
use rumor_walks::{estimators, Placement, RandomWalk, WalkConfig};

/// Every generator produces a connected graph that the whole protocol suite
/// completes on.
#[test]
fn every_generator_supports_every_protocol() {
    let mut rng = StdRng::seed_from_u64(0);
    let graphs: Vec<(&str, rumor_graphs::Graph)> = vec![
        ("path", path(20).unwrap()),
        ("cycle", cycle(20).unwrap()),
        ("complete", complete(20).unwrap()),
        ("star", star(19).unwrap()),
        ("double-star", double_star(9).unwrap()),
        ("grid", grid(4, 5).unwrap()),
        ("torus", torus(4, 5).unwrap()),
        ("hypercube", hypercube(5).unwrap()),
        ("random-regular", random_regular(20, 4, &mut rng).unwrap()),
        ("cycle-of-cliques", cycle_of_cliques(4, 4).unwrap()),
        (
            "erdos-renyi",
            connected_erdos_renyi(20, 0.3, &mut rng).unwrap(),
        ),
        ("barbell", barbell(8).unwrap()),
        ("lollipop", lollipop(8, 5).unwrap()),
        ("heavy-tree", HeavyBinaryTree::new(3).unwrap().into_graph()),
        (
            "siamese",
            SiameseHeavyBinaryTree::new(3).unwrap().into_graph(),
        ),
        (
            "cycle-of-stars",
            CycleOfStarsOfCliques::new(3).unwrap().into_graph(),
        ),
    ];
    for (name, graph) in &graphs {
        assert!(is_connected(graph), "{name} is not connected");
        graph
            .validate()
            .unwrap_or_else(|e| panic!("{name} failed validation: {e}"));
        for kind in ProtocolKind::ALL {
            let agents = AgentConfig::default().lazy(); // lazy walks work everywhere
            let spec = SimulationSpec::new(kind)
                .with_seed(7)
                .with_agents(agents)
                .with_max_rounds(2_000_000);
            let outcome = simulate_on(graph, 0, &spec);
            assert!(outcome.completed, "{kind} did not complete on {name}");
        }
    }
}

/// The dynamic protocol constructor and the concrete constructors agree.
#[test]
fn build_protocol_matches_direct_construction() {
    let graph = complete(16).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut boxed = build_protocol(
        ProtocolKind::Push,
        &graph,
        3,
        &AgentConfig::default(),
        ProtocolOptions::none(),
        &mut rng,
    );
    assert_eq!(boxed.name(), "push");
    assert_eq!(boxed.source(), 3);
    let mut step_rng = StdRng::seed_from_u64(1);
    while !boxed.is_complete() {
        boxed.step(&mut step_rng);
    }
    assert_eq!(boxed.informed_vertex_count(), 16);
}

/// The walk estimators, instrumentation, and analysis crates compose.
#[test]
fn walks_instrumentation_and_analysis_compose() {
    let mut rng = StdRng::seed_from_u64(2);
    let graph = random_regular(128, 8, &mut rng).unwrap();

    // Walk estimators.
    let hit = estimators::hitting_time(&graph, 0, 64, WalkConfig::simple(), 20, 100_000, &mut rng);
    assert!(hit.mean > 0.0);
    let cover =
        estimators::multi_cover_time(&graph, 128, WalkConfig::simple(), 5, 100_000, &mut rng);
    assert!(cover.mean > 0.0);

    // A single walk stays on the graph.
    let mut walk = RandomWalk::new(0, WalkConfig::lazy());
    let trajectory = walk.trajectory(&graph, 50, &mut rng);
    for pair in trajectory.windows(2) {
        assert!(pair[0] == pair[1] || graph.has_edge(pair[0], pair[1]));
    }

    // Instrumentation.
    let trace = CCounterTrace::run(&graph, 0, &AgentConfig::default(), 100_000, &mut rng);
    assert!(trace.completed);
    let coupled = CoupledRun::run(&graph, 0, &AgentConfig::default(), 100_000, 99);
    assert!(coupled.completed);
    assert!(coupled.lemma13_holds());

    // Analysis over simulated times.
    let times: Vec<u64> = (0..6)
        .map(|seed| {
            simulate_on(
                &graph,
                0,
                &SimulationSpec::new(ProtocolKind::PushPull).with_seed(seed),
            )
            .rounds
        })
        .collect();
    let summary = Summary::of_u64(&times);
    assert!(summary.mean >= summary.min && summary.mean <= summary.max);

    // Degree stats and diameter as used in experiment reporting.
    let stats = DegreeStats::of(&graph);
    assert!(stats.is_regular());
    assert!(diameter_exact(&graph).unwrap() >= 2);

    // Tables render.
    let mut table = Table::new("compose", &["metric", "value"]);
    table.push_row(&["mean push-pull time", &format!("{:.1}", summary.mean)]);
    assert!(table.to_markdown().contains("mean push-pull time"));
}

/// Placements behave as documented on non-regular graphs.
#[test]
fn placements_differ_on_non_regular_graphs() {
    let graph = star(99).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let stationary = Placement::Stationary.sample(&graph, 10_000, &mut rng);
    let uniform = Placement::UniformRandom.sample(&graph, 10_000, &mut rng);
    let frac_center = |positions: &[usize]| {
        positions.iter().filter(|&&v| v == 0).count() as f64 / positions.len() as f64
    };
    assert!(frac_center(&stationary) > 0.4);
    assert!(frac_center(&uniform) < 0.1);
}

/// The experiment registry is runnable end-to-end at smoke scale.
#[test]
fn experiment_registry_smoke() {
    let ids = all_experiment_ids();
    assert!(ids.len() >= 11);
    // Run one representative experiment through the public API.
    let report = run_experiment("fig1b-double-star", &ExperimentConfig::smoke()).unwrap();
    assert!(report.to_markdown().contains("Lemma 3"));
    assert!(run_experiment("does-not-exist", &ExperimentConfig::smoke()).is_none());
}
