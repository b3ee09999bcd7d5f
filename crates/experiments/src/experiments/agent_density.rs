//! DENSITY — how many agents are needed? (Section 9: "It would be interesting
//! to study the performance of the protocols when a sub-linear number of
//! agents is available.")
//!
//! The paper assumes a linear number of agents, `|A| = αn`. This experiment
//! sweeps the agent count from `n^{1/2}` up to `2n` on a random regular graph
//! and on the double star, and reports how the broadcast times of
//! `visit-exchange` and `meet-exchange` degrade as the agent population
//! shrinks — locating where the agent protocols stop being competitive with
//! `push-pull`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rumor_analysis::{Summary, Table};
use rumor_core::{simulate_on, AgentConfig, AgentCount, ProtocolKind, SimulationSpec};
use rumor_graphs::generators::{double_star, logarithmic_degree, random_regular};
use rumor_graphs::{Graph, VertexId};

use crate::config::ExperimentConfig;
use crate::report::ExperimentReport;

/// Identifier of this experiment.
pub const ID: &str = "agent-density";

fn mean_time(
    graph: &Graph,
    source: VertexId,
    kind: ProtocolKind,
    agents: AgentConfig,
    trials: usize,
    seed: u64,
) -> f64 {
    let times: Vec<u64> = (0..trials as u64)
        .map(|t| {
            simulate_on(
                graph,
                source,
                &SimulationSpec::new(kind)
                    .with_seed(seed.wrapping_add(t))
                    .with_agents(agents.clone())
                    .with_max_rounds(10_000_000),
            )
            .rounds
        })
        .collect();
    Summary::of_u64(&times).mean
}

/// Agent-count levels as (label, count) pairs for an `n`-vertex graph.
fn levels(n: usize) -> Vec<(String, usize)> {
    let nf = n as f64;
    vec![
        ("n^(1/2)".to_string(), nf.sqrt().round() as usize),
        ("n^(2/3)".to_string(), nf.powf(2.0 / 3.0).round() as usize),
        ("n/4".to_string(), n / 4),
        ("n".to_string(), n),
        ("2n".to_string(), 2 * n),
    ]
}

/// Runs the experiment at the configured scale.
pub fn run(config: &ExperimentConfig) -> ExperimentReport {
    let trials = config.trials(4, 12, 25);

    let mut report = ExperimentReport::new(
        ID,
        "Sub-linear and super-linear agent populations",
        "Section 9 (open problems): the paper assumes |A| = Θ(n) agents and asks what happens with \
         a sub-linear number. This experiment sweeps |A| from √n to 2n and measures the agent \
         protocols against the push-pull baseline (which needs no agents at all).",
    );

    // Random regular graph (Theorem 1 regime).
    let n = config.pick(128, 1024, 4096);
    let d = logarithmic_degree(n, 2.0);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xDE);
    let regular = random_regular(n, d, &mut rng).expect("random regular generator");
    let ppull_regular = mean_time(
        &regular,
        0,
        ProtocolKind::PushPull,
        AgentConfig::default(),
        trials,
        config.seed,
    );
    let mut regular_table = Table::new(
        &format!(
            "Random {d}-regular graph (n = {n}); push-pull baseline = {ppull_regular:.1} rounds"
        ),
        &["|A|", "agents", "visit-exchange", "meet-exchange"],
    );
    for (label, count) in levels(n) {
        let agents = AgentConfig {
            count: AgentCount::Exact(count),
            ..AgentConfig::default()
        };
        let visitx = mean_time(
            &regular,
            0,
            ProtocolKind::VisitExchange,
            agents.clone(),
            trials,
            config.seed,
        );
        let meetx = mean_time(
            &regular,
            0,
            ProtocolKind::MeetExchange,
            agents,
            trials,
            config.seed,
        );
        regular_table.push_row(&[
            label,
            count.to_string(),
            format!("{visitx:.1}"),
            format!("{meetx:.1}"),
        ]);
    }
    report.push_table(regular_table);

    // Double star (the separation example that motivates the agent protocols).
    let leaves = config.pick(64, 512, 2048);
    let dstar = double_star(leaves).expect("double star generator");
    let dn = dstar.num_vertices();
    let ppull_dstar = mean_time(
        &dstar,
        2,
        ProtocolKind::PushPull,
        AgentConfig::default(),
        trials,
        config.seed,
    );
    let mut dstar_table = Table::new(
        &format!("Double star (n = {dn}); push-pull baseline = {ppull_dstar:.1} rounds"),
        &["|A|", "agents", "visit-exchange", "meet-exchange"],
    );
    let mut crossover: Option<String> = None;
    for (label, count) in levels(dn) {
        let agents = AgentConfig {
            count: AgentCount::Exact(count),
            ..AgentConfig::default()
        }
        .lazy();
        let visitx = mean_time(
            &dstar,
            2,
            ProtocolKind::VisitExchange,
            agents.clone(),
            trials,
            config.seed,
        );
        let meetx = mean_time(
            &dstar,
            2,
            ProtocolKind::MeetExchange,
            agents,
            trials,
            config.seed,
        );
        if visitx < ppull_dstar && crossover.is_none() {
            crossover = Some(label.clone());
        }
        dstar_table.push_row(&[
            label,
            count.to_string(),
            format!("{visitx:.1}"),
            format!("{meetx:.1}"),
        ]);
    }
    report.push_table(dstar_table);

    report.push_note(format!(
        "On the double star, visit-exchange first beats the push-pull baseline at |A| = {} — \
         fewer agents slow the agent protocols roughly in proportion to n/|A| (each vertex is \
         visited at a rate |A|/n per round).",
        crossover.unwrap_or_else(|| "(not reached in this sweep)".to_string())
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_report() {
        let report = run(&ExperimentConfig::smoke());
        assert_eq!(report.id, ID);
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].num_rows(), 5);
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn fewer_agents_means_slower_visit_exchange() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_regular(256, 16, &mut rng).unwrap();
        let sparse = AgentConfig {
            count: AgentCount::Exact(16),
            ..AgentConfig::default()
        };
        let dense = AgentConfig {
            count: AgentCount::Exact(512),
            ..AgentConfig::default()
        };
        let slow = mean_time(&g, 0, ProtocolKind::VisitExchange, sparse, 4, 1);
        let fast = mean_time(&g, 0, ProtocolKind::VisitExchange, dense, 4, 1);
        assert!(
            slow > fast,
            "sparse agents ({slow}) should be slower than dense ({fast})"
        );
    }
}
