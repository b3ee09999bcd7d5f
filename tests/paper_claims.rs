//! Cross-crate integration tests: each test reproduces, at a small but
//! meaningful scale, one of the paper's qualitative claims end-to-end through
//! the public API (graph generators → protocols → analysis).

use rand::rngs::StdRng;
use rand::SeedableRng;

use rumor_analysis::{best_law, GrowthLaw, Summary};
use rumor_core::{simulate_on, AgentConfig, ProtocolKind, SimulationSpec};
use rumor_graphs::generators::{
    double_star, logarithmic_degree, random_regular, star, CycleOfStarsOfCliques, HeavyBinaryTree,
    SiameseHeavyBinaryTree, STAR_CENTER,
};
use rumor_graphs::{Graph, VertexId};

fn mean_time(
    graph: &Graph,
    source: VertexId,
    kind: ProtocolKind,
    agents: &AgentConfig,
    trials: u64,
) -> f64 {
    let times: Vec<u64> = (0..trials)
        .map(|seed| {
            simulate_on(
                graph,
                source,
                &SimulationSpec::new(kind)
                    .with_seed(seed)
                    .with_agents(agents.clone()),
            )
            .rounds
        })
        .collect();
    Summary::of_u64(&times).mean
}

/// Lemma 2: on the star, push ≫ visit-exchange ≈ meet-exchange ≈ log n, and
/// push-pull ≤ 2.
///
/// Tolerances: push on the star is coupon-collector (~n·H(n) ≈ 1900 rounds
/// at 300 leaves) while the agent protocols are O(log n) (tens of rounds),
/// so the 10× factors and the 80/150-round absolute caps each leave
/// several-fold slack around a 5-trial mean; push-pull ≤ 2 is structural
/// (every leaf pulls from the center in round one), not statistical.
#[test]
fn lemma2_star_separations() {
    let graph = star(300).unwrap();
    let lazy = AgentConfig::default().lazy();
    let default = AgentConfig::default();
    let push = mean_time(&graph, STAR_CENTER, ProtocolKind::Push, &default, 5);
    let ppull = mean_time(&graph, STAR_CENTER, ProtocolKind::PushPull, &default, 5);
    let visitx = mean_time(&graph, STAR_CENTER, ProtocolKind::VisitExchange, &lazy, 5);
    let meetx = mean_time(&graph, STAR_CENTER, ProtocolKind::MeetExchange, &lazy, 5);
    assert!(
        ppull <= 2.0,
        "push-pull on the star must finish within two rounds, got {ppull}"
    );
    assert!(
        push > 10.0 * visitx,
        "push ({push}) should dwarf visit-exchange ({visitx})"
    );
    assert!(
        push > 10.0 * meetx,
        "push ({push}) should dwarf meet-exchange ({meetx})"
    );
    assert!(
        visitx < 80.0,
        "visit-exchange should be O(log n), got {visitx}"
    );
    assert!(
        meetx < 150.0,
        "meet-exchange should be O(log n), got {meetx}"
    );
}

/// Lemma 3: on the double star, push-pull ≫ visit-exchange and meet-exchange.
#[test]
fn lemma3_double_star_separations() {
    let graph = double_star(300).unwrap();
    let lazy = AgentConfig::default().lazy();
    let default = AgentConfig::default();
    // T_ppull here is geometric-ish (the bridge edge must be sampled), so a
    // 5-trial mean is far too noisy — average over 30 seeded trials.
    let ppull = mean_time(&graph, 2, ProtocolKind::PushPull, &default, 30);
    let visitx = mean_time(&graph, 2, ProtocolKind::VisitExchange, &lazy, 30);
    let meetx = mean_time(&graph, 2, ProtocolKind::MeetExchange, &lazy, 30);
    assert!(
        ppull > 3.0 * visitx,
        "push-pull ({ppull}) should dwarf visit-exchange ({visitx})"
    );
    assert!(
        ppull > 2.0 * meetx,
        "push-pull ({ppull}) should dwarf meet-exchange ({meetx})"
    );
}

/// Lemma 4: on the heavy binary tree, visit-exchange ≫ push and (from a leaf)
/// meet-exchange stays close to push.
///
/// Tolerances: the Lemma 4 gap is polynomial (visit-exchange pays an Ω(n)
/// root toll, push is O(log n)), so the 3× factor sits far inside the real
/// ≥ 10× separation at this size; the meetx < visitx comparison has no
/// structural margin, so it averages 12 seeded trials to push the
/// mean-comparison flake probability into the noise floor.
#[test]
fn lemma4_heavy_tree_separations() {
    let tree = HeavyBinaryTree::new(7).unwrap();
    let graph = tree.graph();
    let source = tree.a_leaf();
    let default = AgentConfig::default();
    let push = mean_time(graph, source, ProtocolKind::Push, &default, 12);
    let visitx = mean_time(graph, source, ProtocolKind::VisitExchange, &default, 12);
    let meetx = mean_time(graph, source, ProtocolKind::MeetExchange, &default, 12);
    assert!(
        visitx > 3.0 * push,
        "visit-exchange ({visitx}) should dwarf push ({push})"
    );
    assert!(
        meetx < visitx,
        "meet-exchange ({meetx}) should beat visit-exchange ({visitx}) here"
    );
}

/// Lemma 8: on the Siamese heavy trees, push is logarithmic while both agent
/// protocols are Ω(n) — information must be carried across the root, which a
/// stationary-started walk reaches only at rate O(1/n) per round.
#[test]
fn lemma8_siamese_separations() {
    let tree = SiameseHeavyBinaryTree::new(7).unwrap();
    let graph = tree.graph();
    let n = graph.num_vertices() as f64;
    let source = tree.a_leaf();
    let default = AgentConfig::default();
    let push = mean_time(graph, source, ProtocolKind::Push, &default, 5);
    let visitx = mean_time(graph, source, ProtocolKind::VisitExchange, &default, 5);
    let meetx = mean_time(graph, source, ProtocolKind::MeetExchange, &default, 5);
    // Absolute bounds that separate O(log n) from Ω(n) at this size (n ≈ 509,
    // log2 n ≈ 9): push stays far below a linear fraction of n, while both
    // agent protocols pay at least a linear-in-n toll to cross the root.
    assert!(
        push < 0.3 * n,
        "push ({push}) should be logarithmic, not linear, on D_n"
    );
    assert!(
        visitx > 0.15 * n,
        "visit-exchange ({visitx}) should pay an Ω(n) root toll"
    );
    assert!(
        meetx > 0.04 * n,
        "meet-exchange ({meetx}) should pay an Ω(n) root toll"
    );
    assert!(
        visitx > 2.5 * push,
        "visit-exchange ({visitx}) should dwarf push ({push})"
    );
}

/// Lemma 9: on the cycle of stars of cliques, meet-exchange is slower than
/// visit-exchange.
///
/// Tolerance: the lemma's separation is polynomial in m, but at m = 6 the
/// means sit within a small constant factor, so the strict comparison is
/// the right assertion — averaged over 16 seeded trials (up from 5, the
/// tightest remaining statistical margin in this suite) to keep the
/// mean-of-means comparison deterministic-in-practice.
#[test]
fn lemma9_cycle_of_stars_separation() {
    let g = CycleOfStarsOfCliques::new(6).unwrap();
    let source = g.a_clique_source();
    let graph = g.graph();
    let default = AgentConfig::default();
    let visitx = mean_time(graph, source, ProtocolKind::VisitExchange, &default, 16);
    let meetx = mean_time(graph, source, ProtocolKind::MeetExchange, &default, 16);
    assert!(
        meetx > visitx,
        "meet-exchange ({meetx}) should be slower than visit-exchange ({visitx})"
    );
}

/// Theorem 1: on random regular graphs with d = Θ(log n), push and
/// visit-exchange stay within a constant factor across sizes.
///
/// Tolerance: the measured 5-trial mean ratio sits near 1–2 on these
/// expanders; the accepted [0.2, 5] band is an order of magnitude wide on
/// each side, so only a real equivalence break can escape it.
#[test]
fn theorem1_regular_equivalence() {
    let mut rng = StdRng::seed_from_u64(11);
    let default = AgentConfig::default();
    for &n in &[128usize, 256, 512] {
        let d = logarithmic_degree(n, 2.0);
        let graph = random_regular(n, d, &mut rng).unwrap();
        let push = mean_time(&graph, 0, ProtocolKind::Push, &default, 5);
        let visitx = mean_time(&graph, 0, ProtocolKind::VisitExchange, &default, 5);
        let ratio = push / visitx;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "push/visit-exchange ratio {ratio} escaped the constant band at n = {n}"
        );
    }
}

/// Theorems 24/25: the agent protocols need Ω(log n) rounds on regular graphs.
#[test]
fn theorems24_25_logarithmic_lower_bound() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 1024;
    let d = logarithmic_degree(n, 2.0);
    let graph = random_regular(n, d, &mut rng).unwrap();
    let log2n = (n as f64).log2();
    for kind in [ProtocolKind::VisitExchange, ProtocolKind::MeetExchange] {
        let fastest = (0..6u64)
            .map(|seed| simulate_on(&graph, 0, &SimulationSpec::new(kind).with_seed(seed)).rounds)
            .min()
            .unwrap() as f64;
        assert!(
            fastest >= 0.3 * log2n,
            "{} finished in {fastest} rounds, well below log2 n = {log2n}",
            kind.name()
        );
    }
}

/// The scaling pipeline end-to-end: push on stars fits the coupon-collector
/// law (n log n), visit-exchange fits a sub-polynomial law.
#[test]
fn scaling_fits_identify_star_growth_laws() {
    let sizes = [64usize, 128, 256, 512];
    let default = AgentConfig::default();
    let lazy = AgentConfig::default().lazy();
    let mut push_points = Vec::new();
    let mut visitx_points = Vec::new();
    for &leaves in &sizes {
        let graph = star(leaves).unwrap();
        let n = graph.num_vertices() as f64;
        push_points.push((
            n,
            mean_time(&graph, STAR_CENTER, ProtocolKind::Push, &default, 6),
        ));
        visitx_points.push((
            n,
            mean_time(&graph, STAR_CENTER, ProtocolKind::VisitExchange, &lazy, 6),
        ));
    }
    let push_best = best_law(&push_points);
    assert!(
        matches!(push_best.law, GrowthLaw::LinearLog | GrowthLaw::Linear),
        "push on the star should look like n log n, identified {}",
        push_best.law
    );
    let visitx_best = best_law(&visitx_points);
    assert!(
        matches!(
            visitx_best.law,
            GrowthLaw::Constant | GrowthLaw::Logarithmic | GrowthLaw::CubeRoot
        ),
        "visit-exchange on the star should be (poly)logarithmic, identified {}",
        visitx_best.law
    );
}
