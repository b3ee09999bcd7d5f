//! Cross-backend equivalence: the implicit topology backend is bit-identical
//! to the materialized CSR backend.
//!
//! The contract under test (see `rumor_graphs::topology`): for equal degrees
//! both backends consume the RNG stream identically, and the implicit
//! backend resolves every sampled index to the identical *i*-th sorted
//! neighbor its CSR build stores — so *whole simulations* must agree bit for
//! bit, not just distributionally. This suite pins that across
//!
//! * every implicit family,
//! * all five sharded-supported protocols (`push`, `pull`, `push-pull`,
//!   `visit-exchange`, `meet-exchange`) plus the combined protocol on the
//!   sequential engine,
//! * four seeds per cell,
//! * both engines, and — on the sharded engine — explicit thread counts
//!   1/2/3/8 plus the `RUMOR_THREADS`-steered auto count, so the implicit
//!   backend inherits the thread-invariance guarantee too (CI runs this
//!   suite at `RUMOR_THREADS=1` and `3`).

use rumor_core::{simulate_on, simulate_topology, ProtocolKind, SimulationSpec};
use rumor_graphs::{AnyTopology, ImplicitGraph, Topology};

/// Every implicit family at a size small enough to materialize but large
/// enough to exercise interval holes, outliers, and wrap-arounds.
fn families() -> Vec<ImplicitGraph> {
    vec![
        ImplicitGraph::path(33).unwrap(),
        ImplicitGraph::cycle(34).unwrap(),
        ImplicitGraph::complete(24).unwrap(),
        ImplicitGraph::star(40).unwrap(),
        ImplicitGraph::double_star(19).unwrap(),
        ImplicitGraph::heavy_tree(4).unwrap(),
        ImplicitGraph::siamese(3).unwrap(),
        ImplicitGraph::cycle_of_stars_of_cliques(4).unwrap(),
        ImplicitGraph::cycle_of_cliques(5, 4).unwrap(),
        ImplicitGraph::hypercube(5).unwrap(),
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

fn spec_for(kind: ProtocolKind, seed: u64, implicit: &ImplicitGraph) -> SimulationSpec {
    // `adapted_to` must agree across backends (closed-form vs BFS
    // bipartiteness — pinned in rumor-graphs), so adapting against the
    // implicit backend is also the CSR-correct spec.
    SimulationSpec::new(kind)
        .with_seed(seed)
        .with_max_rounds(500_000)
        .adapted_to(implicit)
}

#[test]
fn sequential_engine_is_bit_identical_across_backends() {
    for implicit in families() {
        let csr = implicit.materialize().unwrap();
        let source = implicit.num_vertices() - 1;
        for kind in SHARDED_PROTOCOLS {
            for seed in 0..4u64 {
                let spec = spec_for(kind, seed, &implicit);
                let a = simulate_on(&csr, source, &spec);
                let b = simulate_on(&implicit, source, &spec);
                assert_eq!(
                    a,
                    b,
                    "sequential {kind} diverged on {} seed {seed}",
                    implicit.family_name()
                );
                assert!(a.completed, "{kind} run truncated (weak test)");
            }
        }
    }
}

#[test]
fn combined_protocol_is_bit_identical_across_backends() {
    for implicit in families() {
        let csr = implicit.materialize().unwrap();
        for seed in 0..2u64 {
            let spec = spec_for(ProtocolKind::PushPullVisitExchange, seed, &implicit);
            assert_eq!(
                simulate_on(&csr, 0, &spec),
                simulate_on(&implicit, 0, &spec),
                "combined protocol diverged on {} seed {seed}",
                implicit.family_name()
            );
        }
    }
}

/// A churned visit-exchange run on `graph`: its outcome (with history) and
/// the number of rebirths.
fn churn_run<G: Topology>(graph: &G, seed: u64) -> (rumor_core::BroadcastOutcome, u64) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut p = rumor_core::VisitExchange::with_churn(
        graph,
        0,
        &rumor_core::AgentConfig::default(),
        0.1,
        rumor_core::ProtocolOptions::none(),
        &mut rng,
    )
    .expect("valid churn");
    let outcome = rumor_core::run_to_completion(&mut p, 500_000, &mut rng);
    (outcome, p.total_deaths())
}

/// Churn is a hook on the backend-generic exchange core, so its rebirth
/// draws resolve identically on the implicit backend and its CSR build.
#[test]
fn churn_is_bit_identical_across_backends() {
    for implicit in families() {
        let csr = implicit.materialize().unwrap();
        for seed in 0..2u64 {
            let (on_csr, on_implicit) = (churn_run(&csr, seed), churn_run(&implicit, seed));
            assert!(on_csr.0.completed && on_csr.1 > 0);
            assert_eq!(
                on_csr,
                on_implicit,
                "churn diverged on {} seed {seed}",
                implicit.family_name()
            );
        }
    }
}

#[test]
fn sharded_engine_is_bit_identical_across_backends_at_every_thread_count() {
    for implicit in families() {
        let csr = implicit.materialize().unwrap();
        for kind in SHARDED_PROTOCOLS {
            for seed in [0u64, 7] {
                let base = spec_for(kind, seed, &implicit);
                // The one-thread sharded run is the reference; every other
                // thread count — and the CSR backend at each — must match.
                let reference = simulate_on(&implicit, 0, &base.clone().with_sharded(1));
                for threads in [1usize, 2, 3, 8] {
                    let spec = base.clone().with_sharded(threads);
                    let on_implicit = simulate_on(&implicit, 0, &spec);
                    assert_eq!(
                        on_implicit,
                        reference,
                        "implicit {kind} not thread-invariant ({} threads {threads})",
                        implicit.family_name()
                    );
                    assert_eq!(
                        simulate_on(&csr, 0, &spec),
                        on_implicit,
                        "sharded {kind} diverged across backends ({} threads {threads})",
                        implicit.family_name()
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_auto_thread_count_matches_explicit_on_implicit_backend() {
    // `threads: 0` resolves through RUMOR_THREADS (CI pins 1 and 3); the
    // result must equal any explicit count.
    for implicit in [
        ImplicitGraph::cycle_of_stars_of_cliques(4).unwrap(),
        ImplicitGraph::star(60).unwrap(),
        ImplicitGraph::hypercube(6).unwrap(),
    ] {
        for kind in SHARDED_PROTOCOLS {
            let base = spec_for(kind, 3, &implicit);
            let auto = simulate_on(&implicit, 0, &base.clone().with_sharded(0));
            let explicit = simulate_on(&implicit, 0, &base.clone().with_sharded(2));
            assert_eq!(
                auto,
                explicit,
                "auto thread count changed a {kind} outcome on {}",
                implicit.family_name()
            );
        }
    }
}

#[test]
fn simulate_topology_dispatches_to_the_matching_backend() {
    let implicit = ImplicitGraph::double_star(25).unwrap();
    let csr = implicit.materialize().unwrap();
    let spec = spec_for(ProtocolKind::Push, 11, &implicit);
    let via_enum_implicit = simulate_topology(&AnyTopology::from(implicit), 0, &spec);
    let via_enum_csr = simulate_topology(&AnyTopology::from(csr), 0, &spec);
    assert_eq!(via_enum_implicit, via_enum_csr);
    assert!(via_enum_implicit.completed);
}

#[test]
fn implicit_backend_runs_beyond_materializable_scale() {
    // A quick functional check that large implicit instances actually
    // broadcast: 10⁶-vertex star, push-pull (two rounds on a star).
    let g = ImplicitGraph::star(1_000_000).unwrap();
    let spec = SimulationSpec::new(ProtocolKind::PushPull)
        .with_seed(1)
        .with_max_rounds(10);
    let outcome = simulate_on(&g, 0, &spec);
    assert!(outcome.completed);
    assert_eq!(outcome.informed_vertices, 1_000_001);
    assert!(g.memory_bytes() < 100);
}
