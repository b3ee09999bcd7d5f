//! COMBINED — `push-pull` running alongside `visit-exchange`.
//!
//! The introduction argues that "in certain settings, agent-based information
//! dissemination, separately or in combination with push-pull, can
//! significantly improve the broadcast time". The combined protocol
//! (`ProtocolKind::PushPullVisitExchange`) runs both mechanisms over one
//! shared informed-vertex set, so on every family it should track the faster
//! of the two components: fast on the double star (where push-pull is slow),
//! fast on the heavy binary tree (where visit-exchange is slow), and fast on
//! regular graphs (where both are fast). This experiment measures all three
//! protocols across those families.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rumor_core::{AgentConfig, ProtocolKind};
use rumor_graphs::generators::{
    double_star, logarithmic_degree, random_regular, star, HeavyBinaryTree, STAR_CENTER,
};

use crate::config::ExperimentConfig;
use crate::report::ExperimentReport;
use crate::sweep::{ProtocolSetup, ScalingSweep, SweepPoint};

/// Identifier of this experiment.
pub const ID: &str = "combined-protocol";

fn protocols(lazy: bool) -> Vec<ProtocolSetup> {
    let agents = if lazy {
        AgentConfig::default().lazy()
    } else {
        AgentConfig::default()
    };
    vec![
        ProtocolSetup::new(ProtocolKind::PushPull),
        ProtocolSetup::new(ProtocolKind::VisitExchange).with_agents(agents.clone()),
        ProtocolSetup::new(ProtocolKind::PushPullVisitExchange).with_agents(agents),
    ]
}

/// How much slower the combined protocol is than the faster of its two
/// components, at the largest sweep point (1.0 = exactly as fast).
fn overhead(result: &crate::sweep::SweepResult) -> f64 {
    let last = result.measurements.last().expect("non-empty sweep");
    let ppull = last.summaries[0].mean;
    let visitx = last.summaries[1].mean;
    let combined = last.summaries[2].mean;
    combined / ppull.min(visitx).max(1.0)
}

/// Runs the experiment at the configured scale.
pub fn run(config: &ExperimentConfig) -> ExperimentReport {
    let trials = config.trials(5, 15, 30);

    let mut report = ExperimentReport::new(
        ID,
        "Combining push-pull with visit-exchange",
        "Introduction: agent-based dissemination, separately or in combination with push-pull, \
         can significantly improve the broadcast time. The combined protocol should match the \
         faster of its two components on every family — including the families where one of them \
         alone is polynomially slow.",
    );

    // Family 1: double stars — push-pull alone needs Ω(n) rounds (Lemma 3).
    let leaves: Vec<usize> =
        config.pick(vec![64, 128], vec![256, 512, 1024], vec![1024, 2048, 4096]);
    let dstar_sweep = ScalingSweep {
        points: leaves
            .iter()
            .map(|&l| {
                let g = double_star(l).expect("double star generator");
                SweepPoint::new(g, 2)
            })
            .collect(),
        protocols: protocols(true),
        trials,
        max_rounds: 100_000_000,
    };
    let dstar_result = dstar_sweep.run(config);
    report.push_table(dstar_result.times_table("Double star S²_n (source = a leaf)"));
    let dstar_overhead = overhead(&dstar_result);

    // Family 2: heavy binary trees — visit-exchange alone needs Ω(n) rounds
    // (Lemma 4(b)).
    let depths: Vec<u32> = config.pick(vec![5, 6], vec![7, 8, 9], vec![9, 10, 11]);
    let tree_sweep = ScalingSweep {
        points: depths
            .iter()
            .map(|&depth| {
                let tree = HeavyBinaryTree::new(depth).expect("heavy binary tree");
                let source = tree.a_leaf();
                let n = tree.graph().num_vertices();
                SweepPoint::labelled(tree.into_graph(), source, &format!("{n} (depth {depth})"))
            })
            .collect(),
        protocols: protocols(false),
        trials,
        max_rounds: 10_000_000,
    };
    let tree_result = tree_sweep.run(config);
    report.push_table(tree_result.times_table("Heavy binary tree B_n (source = a leaf)"));
    let tree_overhead = overhead(&tree_result);

    // Family 3: stars and random regular graphs — both components are already
    // fast; the combination must not be slower.
    let sizes: Vec<usize> = config.pick(vec![128], vec![512, 1024], vec![2048, 4096]);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0);
    let mut fast_points: Vec<SweepPoint> = sizes
        .iter()
        .map(|&n| {
            let d = logarithmic_degree(n, 2.0);
            SweepPoint::labelled(
                random_regular(n, d, &mut rng).expect("random regular generator"),
                0,
                &format!("random {d}-regular, n={n}"),
            )
        })
        .collect();
    let star_leaves = config.pick(128, 1024, 4096);
    fast_points.push(SweepPoint::labelled(
        star(star_leaves).expect("star generator"),
        STAR_CENTER,
        &format!("star, {star_leaves} leaves"),
    ));
    let fast_sweep = ScalingSweep {
        points: fast_points,
        protocols: protocols(true),
        trials,
        max_rounds: 10_000_000,
    };
    let fast_result = fast_sweep.run(config);
    report.push_table(fast_result.times_table("Families where both components are already fast"));
    let fast_overhead = overhead(&fast_result);

    report.push_note(format!(
        "At the largest size of each family, the combined protocol finishes within \
         {dstar_overhead:.2}× (double star), {tree_overhead:.2}× (heavy binary tree) and \
         {fast_overhead:.2}× (regular/star) of the faster of its two components — it inherits \
         the best case everywhere, as the introduction claims."
    ));
    report.push_note(
        "The combination costs one extra message per vertex per round compared with running \
         visit-exchange alone; the payoff is immunity to the worst cases of both mechanisms.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_analysis::Summary;
    use rumor_core::{simulate_on, SimulationSpec};

    fn mean_rounds(
        graph: &rumor_graphs::Graph,
        source: usize,
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
                        .with_agents(agents.clone())
                        .adapted_to(graph),
                )
                .rounds
            })
            .collect();
        Summary::of_u64(&times).mean
    }

    #[test]
    fn smoke_run_produces_report() {
        let report = run(&ExperimentConfig::smoke());
        assert_eq!(report.id, ID);
        assert_eq!(report.tables.len(), 3);
        assert_eq!(report.notes.len(), 2);
    }

    #[test]
    fn combined_is_fast_where_push_pull_is_slow() {
        let g = double_star(256).unwrap();
        let lazy = AgentConfig::default().lazy();
        let ppull = mean_rounds(&g, 2, ProtocolKind::PushPull, &lazy, 5);
        let combined = mean_rounds(&g, 2, ProtocolKind::PushPullVisitExchange, &lazy, 5);
        assert!(
            combined * 3.0 < ppull,
            "combined ({combined}) should be much faster than push-pull ({ppull}) on the double star"
        );
    }

    #[test]
    fn combined_is_fast_where_visit_exchange_is_slow() {
        let tree = HeavyBinaryTree::new(7).unwrap();
        let source = tree.a_leaf();
        let default = AgentConfig::default();
        let visitx = mean_rounds(
            tree.graph(),
            source,
            ProtocolKind::VisitExchange,
            &default,
            5,
        );
        let combined = mean_rounds(
            tree.graph(),
            source,
            ProtocolKind::PushPullVisitExchange,
            &default,
            5,
        );
        assert!(
            combined * 2.0 < visitx,
            "combined ({combined}) should be much faster than visit-exchange ({visitx}) on the \
             heavy binary tree"
        );
    }
}
