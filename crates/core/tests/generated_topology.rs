//! Cross-backend equivalence: the generated random-topology backend is
//! bit-identical to the materialized CSR backend — for *whole simulations*,
//! not just structure.
//!
//! The contract under test (see `rumor_graphs::generated`): for equal
//! degrees all backends consume the RNG stream identically, and the
//! generated backend resolves every sampled index to the identical *i*-th
//! sorted neighbor its CSR build stores, so a run of any protocol must
//! agree bit for bit. This suite pins that across
//!
//! * G(n, p) and Chung–Lu instances over several seeds,
//! * all five sharded-supported protocols (`push`, `pull`, `push-pull`,
//!   `visit-exchange`, `meet-exchange`) plus the combined protocol on the
//!   sequential engine,
//! * both engines, and — on the sharded engine — explicit thread counts
//!   1/2/3/8 plus the `RUMOR_THREADS`-steered auto count (CI runs this
//!   suite at `RUMOR_THREADS=1` and `3`),
//! * the pooled-workspace path (`simulate_in`), which must be invisible.
//!
//! Random instances may be disconnected (isolated vertices exist at any
//! fixed density), so specs carry a finite round cap and the assertions
//! compare full outcomes rather than requiring completion; the cells built
//! from `connected_instances` additionally verify completion against a
//! materialized connectivity check.

use rumor_core::{
    simulate_in, simulate_on, simulate_topology, ProtocolKind, SimWorkspace, SimulationSpec,
};
use rumor_graphs::{algorithms, AnyTopology, GeneratedGraph, HubCachedGraph, Topology};

/// The differential grid: both random families, several seeds. Densities
/// are chosen comfortably above the connectivity threshold so most
/// instances complete, but completion is *verified*, never assumed.
fn instances() -> Vec<GeneratedGraph> {
    vec![
        GeneratedGraph::gnp(90, 0.09, 0).unwrap(),
        GeneratedGraph::gnp(90, 0.09, 3).unwrap(),
        GeneratedGraph::gnp(150, 0.05, 1).unwrap(),
        GeneratedGraph::chung_lu(120, 2.5, 7.0, 0).unwrap(),
        GeneratedGraph::chung_lu(200, 3.0, 6.0, 5).unwrap(),
    ]
}

/// The five protocols both engines support.
const SHARDED_PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::Push,
    ProtocolKind::Pull,
    ProtocolKind::PushPull,
    ProtocolKind::VisitExchange,
    ProtocolKind::MeetExchange,
];

fn spec_for(kind: ProtocolKind, seed: u64, graph: &GeneratedGraph) -> SimulationSpec {
    // `adapted_to` must agree across backends (lazy BFS bipartiteness on
    // the generated side vs CSR BFS — pinned in rumor-graphs), so adapting
    // against the generated backend is also the CSR-correct spec.
    //
    // The round cap is deliberately tight: random instances can be
    // disconnected (isolated vertices exist at any fixed density). The
    // vertex protocols no longer need the cap at all — stall detection
    // stops them the round the frontier goes quiescent (pinned below) —
    // but the agent protocols would burn whatever cap they get moving
    // agents through an unreachable component. Equivalence is pinned just
    // as hard on a truncated prefix, while completion is asserted only on
    // verified-connected instances (which finish far below this cap).
    SimulationSpec::new(kind)
        .with_seed(seed)
        .with_max_rounds(1_200)
        .adapted_to(graph)
}

/// The sharded grids' instances: the differential grid plus one graph large
/// enough that push-pull rounds draw for more than 128 active vertices,
/// i.e. more than one resolve block per shard.
fn sharded_instances() -> Vec<GeneratedGraph> {
    let mut graphs = instances();
    graphs.push(GeneratedGraph::gnp(400, 0.03, 2).unwrap());
    graphs
}

/// The vertex protocols, whose sharded rounds merge their newly informed
/// vertices window by window on the generated and hub-cached backends.
const VERTEX_PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Push,
    ProtocolKind::Pull,
    ProtocolKind::PushPull,
];

/// The sharded grids' cells: every sharded protocol on the grid's
/// instances, and the vertex protocols on one instance of about 20k
/// vertices, where a push-pull round merges more list entries than one
/// merge window holds and resolves each window on several workers. (The
/// agent protocols run no merge, and on a graph this size their 1,200-round
/// cap would cost minutes.)
fn sharded_cells() -> Vec<(GeneratedGraph, &'static [ProtocolKind])> {
    let mut cells: Vec<_> = sharded_instances()
        .into_iter()
        .map(|graph| (graph, &SHARDED_PROTOCOLS[..]))
        .collect();
    cells.push((
        GeneratedGraph::chung_lu(20_000, 2.5, 12.0, 3).unwrap(),
        &VERTEX_PROTOCOLS[..],
    ));
    cells
}

/// The specs a sharded cell runs: the adapted spec and, for the agent
/// protocols, the same spec on lazy walks (the per-agent stream scheme).
fn sharded_specs(kind: ProtocolKind, seed: u64, graph: &GeneratedGraph) -> Vec<SimulationSpec> {
    let base = spec_for(kind, seed, graph);
    let agents = matches!(
        kind,
        ProtocolKind::VisitExchange | ProtocolKind::MeetExchange
    );
    let mut specs = vec![base.clone()];
    if agents && !base.agents.walk.is_lazy() {
        let lazy = base.agents.clone().lazy();
        specs.push(base.with_agents(lazy));
    }
    specs
}

#[test]
fn sequential_engine_is_bit_identical_across_backends() {
    let mut connected_instances = 0usize;
    for generated in instances() {
        let csr = generated.materialize().unwrap();
        let connected = algorithms::is_connected(&csr);
        connected_instances += usize::from(connected);
        let source = generated.num_vertices() / 2;
        for kind in SHARDED_PROTOCOLS {
            for seed in 0..3u64 {
                let spec = spec_for(kind, seed, &generated);
                let a = simulate_on(&csr, source, &spec);
                let b = simulate_on(&generated, source, &spec);
                assert_eq!(
                    a,
                    b,
                    "sequential {kind} diverged on {} seed {seed}",
                    generated.family_name()
                );
                // On a connected instance the vertex protocols must finish
                // within the cap (a truncated cell would be a weak test).
                if connected && kind != ProtocolKind::MeetExchange {
                    assert!(a.completed, "{kind} run truncated on connected instance");
                }
            }
        }
    }
    // The completion assertion above must not be vacuous.
    assert!(
        connected_instances >= 1,
        "no differential instance was connected — regenerate the grid"
    );
}

#[test]
fn combined_protocol_is_bit_identical_across_backends() {
    for generated in instances() {
        let csr = generated.materialize().unwrap();
        for seed in 0..2u64 {
            let spec = spec_for(ProtocolKind::PushPullVisitExchange, seed, &generated);
            assert_eq!(
                simulate_on(&csr, 0, &spec),
                simulate_on(&generated, 0, &spec),
                "combined protocol diverged on {} seed {seed}",
                generated.family_name()
            );
        }
    }
}

#[test]
fn sharded_engine_is_bit_identical_across_backends_at_every_thread_count() {
    for (generated, kinds) in sharded_cells() {
        let csr = generated.materialize().unwrap();
        for &kind in kinds {
            for base in [0u64, 5]
                .into_iter()
                .flat_map(|seed| sharded_specs(kind, seed, &generated))
            {
                // The one-thread sharded run is the reference; every other
                // thread count — and the CSR backend at each — must match.
                let reference = simulate_on(&generated, 0, &base.clone().with_sharded(1));
                for threads in [1usize, 2, 3, 8] {
                    let spec = base.clone().with_sharded(threads);
                    let on_generated = simulate_on(&generated, 0, &spec);
                    assert_eq!(
                        on_generated,
                        reference,
                        "generated {kind} not thread-invariant ({} threads {threads})",
                        generated.family_name()
                    );
                    assert_eq!(
                        simulate_on(&csr, 0, &spec),
                        on_generated,
                        "sharded {kind} diverged across backends ({} threads {threads})",
                        generated.family_name()
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_auto_thread_count_matches_explicit_on_generated_backend() {
    // `threads: 0` resolves through RUMOR_THREADS (CI pins 1 and 3); the
    // result must equal any explicit count.
    for generated in [
        GeneratedGraph::gnp(120, 0.07, 2).unwrap(),
        GeneratedGraph::chung_lu(150, 2.4, 6.0, 9).unwrap(),
    ] {
        for kind in SHARDED_PROTOCOLS {
            let base = spec_for(kind, 3, &generated);
            let auto = simulate_on(&generated, 0, &base.clone().with_sharded(0));
            let explicit = simulate_on(&generated, 0, &base.clone().with_sharded(2));
            assert_eq!(
                auto,
                explicit,
                "auto thread count changed a {kind} outcome on {}",
                generated.family_name()
            );
        }
    }
}

#[test]
fn pooled_workspace_is_invisible_on_the_generated_backend() {
    // simulate_in must reproduce simulate_on bit for bit while reusing the
    // pooled protocol state across trials — including the windowed-trial
    // undo-reset path (3-round cap) and across protocol kinds in one slot.
    let generated = GeneratedGraph::gnp(100, 0.08, 4).unwrap();
    let mut workspace = SimWorkspace::new();
    for kind in [
        ProtocolKind::Push,
        ProtocolKind::Pull,
        ProtocolKind::PushPull,
        ProtocolKind::VisitExchange,
        ProtocolKind::MeetExchange,
        ProtocolKind::PushPullVisitExchange,
    ] {
        for max_rounds in [300_000u64, 3] {
            for seed in 0..3u64 {
                let spec = spec_for(kind, seed, &generated).with_max_rounds(max_rounds);
                let pooled = simulate_in(&generated, 0, &spec, &mut workspace);
                let fresh = simulate_on(&generated, 0, &spec);
                assert_eq!(
                    pooled, fresh,
                    "{kind} seed {seed} (cap {max_rounds}) diverged under pooling"
                );
            }
        }
    }
}

#[test]
fn simulate_topology_dispatches_to_the_generated_backend() {
    let generated = GeneratedGraph::gnp(80, 0.1, 6).unwrap();
    let csr = generated.materialize().unwrap();
    let spec = spec_for(ProtocolKind::Push, 11, &generated);
    let via_enum_generated = simulate_topology(&AnyTopology::from(generated), 0, &spec);
    let via_enum_csr = simulate_topology(&AnyTopology::from(csr), 0, &spec);
    assert_eq!(via_enum_generated, via_enum_csr);
}

#[test]
fn hub_cached_sequential_runs_are_bit_identical_across_all_backends() {
    // Whole-simulation equivalence for the hybrid backend: every protocol
    // outcome on a HubCachedGraph — at the default policy, an empty cache,
    // and a full cache — must equal the uncached generated run and the
    // materialized CSR run bit for bit.
    for generated in instances() {
        let csr = generated.materialize().unwrap();
        let n = generated.num_vertices();
        let source = n / 2;
        for kind in SHARDED_PROTOCOLS {
            for seed in 0..2u64 {
                let spec = spec_for(kind, seed, &generated);
                let reference = simulate_on(&generated, source, &spec);
                assert_eq!(
                    simulate_on(&csr, source, &spec),
                    reference,
                    "csr {kind} baseline diverged on {}",
                    generated.family_name()
                );
                for k in [0usize, n.div_ceil(64), n] {
                    let hub = HubCachedGraph::with_hub_count(generated.clone(), k);
                    assert_eq!(
                        simulate_on(&hub, source, &spec),
                        reference,
                        "hub-cached {kind} (k={k}) diverged on {} seed {seed}",
                        generated.family_name()
                    );
                }
            }
        }
    }
}

#[test]
fn hub_cached_sharded_runs_are_bit_identical_at_every_thread_count() {
    for (generated, kinds) in sharded_cells() {
        let hub = HubCachedGraph::over(generated.clone());
        for &kind in kinds {
            for base in [0u64, 5]
                .into_iter()
                .flat_map(|seed| sharded_specs(kind, seed, &generated))
            {
                let reference = simulate_on(&generated, 0, &base.clone().with_sharded(1));
                for threads in [1usize, 2, 3, 8] {
                    let spec = base.clone().with_sharded(threads);
                    assert_eq!(
                        simulate_on(&hub, 0, &spec),
                        reference,
                        "sharded {kind} diverged on hub-cached {} (threads {threads})",
                        generated.family_name()
                    );
                }
            }
        }
    }
}

#[test]
fn hub_cached_pooled_workspace_is_invisible() {
    let generated = GeneratedGraph::chung_lu(140, 2.5, 6.0, 4).unwrap();
    let hub = HubCachedGraph::over(generated.clone());
    let mut workspace = SimWorkspace::new();
    for kind in SHARDED_PROTOCOLS {
        for seed in 0..2u64 {
            let spec = spec_for(kind, seed, &generated);
            assert_eq!(
                simulate_in(&hub, 0, &spec, &mut workspace),
                simulate_on(&generated, 0, &spec),
                "{kind} seed {seed} diverged under pooling on the hub-cached backend"
            );
        }
    }
}

#[test]
fn simulate_topology_dispatches_to_the_hub_cached_backend() {
    let generated = GeneratedGraph::chung_lu(130, 2.5, 6.0, 8).unwrap();
    let hub = HubCachedGraph::over(generated.clone());
    assert!(hub.hub_count() > 0, "default policy should cache something");
    let spec = spec_for(ProtocolKind::MeetExchange, 11, &generated);
    assert_eq!(
        simulate_topology(&AnyTopology::from(hub), 0, &spec),
        simulate_topology(&AnyTopology::from(generated), 0, &spec),
        "enum dispatch diverged between hub-cached and generated"
    );
}

#[test]
fn generated_backend_runs_beyond_comfortable_csr_scale() {
    // A functional scale check: a 10⁵-vertex G(n, p) push broadcast driven
    // entirely through derived adjacency, in ~800 KiB of topology state.
    let g = GeneratedGraph::gnp_with_mean_degree(100_000, 14.0, 1).unwrap();
    assert!(g.memory_bytes() < 1 << 20);
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(2)
        .with_max_rounds(200);
    let outcome = simulate_on(&g, 0, &spec);
    // d̄ = 14 > ln n ≈ 11.5: the giant component takes nearly everything;
    // within 200 rounds push must have informed the vast majority even if
    // a handful of isolated vertices keep it from completing.
    assert!(
        outcome.informed_vertices > 99_000,
        "push informed only {} of 100k vertices",
        outcome.informed_vertices
    );
}

#[test]
fn disconnected_instances_stall_instead_of_burning_the_round_cap() {
    // The hang class this pins closed: on a disconnected instance a vertex
    // protocol can never complete, and before stall detection it would spin
    // until the round cap doing nothing (every draw skipped, frontier
    // empty). Now the run ends the round the frontier goes quiescent —
    // `completed = false`, rounds far below even an absurd cap — on both
    // engines at every thread count.
    use rumor_graphs::Graph;
    let tiny = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
    for kind in [
        ProtocolKind::Push,
        ProtocolKind::Pull,
        ProtocolKind::PushPull,
    ] {
        let base = SimulationSpec::new(kind)
            .with_seed(7)
            .with_max_rounds(u64::MAX - 1);
        let sequential = simulate_on(&tiny, 0, &base);
        assert!(
            !sequential.completed,
            "{kind} cannot complete on 2 components"
        );
        assert_eq!(
            sequential.informed_vertices, 3,
            "{kind} must saturate the source component"
        );
        assert!(
            sequential.rounds < 200,
            "{kind} burned {} rounds after quiescence",
            sequential.rounds
        );
        for threads in [1usize, 2, 3] {
            let sharded = simulate_on(&tiny, 0, &base.clone().with_sharded(threads));
            assert!(!sharded.completed);
            assert_eq!(sharded.informed_vertices, 3);
            assert!(
                sharded.rounds < 200,
                "sharded {kind} burned {} rounds after quiescence",
                sharded.rounds
            );
        }
    }

    // Same property on a genuinely disconnected *generated* instance (mean
    // degree 1 is far below the connectivity threshold), cross-checked
    // against its materialization.
    let sparse = GeneratedGraph::gnp(200, 0.005, 3).unwrap();
    let csr = sparse.materialize().unwrap();
    assert!(
        !algorithms::is_connected(&csr),
        "grid instance unexpectedly connected — pick another seed"
    );
    for kind in [ProtocolKind::Push, ProtocolKind::PushPull] {
        let spec = SimulationSpec::new(kind)
            .with_seed(1)
            .with_max_rounds(1_000_000_000);
        let outcome = simulate_on(&sparse, 0, &spec);
        assert!(!outcome.completed);
        assert!(outcome.informed_vertices < 200);
        assert!(
            outcome.rounds < 5_000,
            "{kind} burned {} rounds on a disconnected instance",
            outcome.rounds
        );
        assert_eq!(
            simulate_on(&csr, 0, &spec),
            outcome,
            "{kind} stall round diverged across backends"
        );
    }
}
