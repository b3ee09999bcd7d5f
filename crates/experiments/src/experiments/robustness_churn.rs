//! CHURN — fault tolerance of `visit-exchange` under agent churn
//! (the open problem sketched in Section 9 of the paper).
//!
//! The paper notes that the agent protocols are probably *not* robust to
//! losing agents on faulty nodes/links, but conjectures that a dynamic agent
//! population (agents die, fresh agents are born at a proportional rate) would
//! tolerate losses. [`VisitExchange::with_churn`]
//! implements that variant; this experiment sweeps the per-round churn
//! probability and reports the slowdown relative to churn-free
//! `visit-exchange` on the graphs where the agent protocols matter most
//! (double star and a random regular graph).

use rand::rngs::StdRng;
use rand::SeedableRng;

use rumor_analysis::{Summary, Table};
use rumor_core::{
    run_to_completion, AgentConfig, ProtocolKind, ProtocolOptions, SimulationSpec, VisitExchange,
};
use rumor_graphs::generators::{double_star, logarithmic_degree, random_regular};
use rumor_graphs::{Graph, VertexId};

use crate::config::ExperimentConfig;
use crate::report::ExperimentReport;
use crate::runner::{run_trials_guarded, FaultPlan, TrialPolicy};

/// Identifier of this experiment.
pub const ID: &str = "robustness-churn";

fn mean_time(
    graph: &Graph,
    source: VertexId,
    agents: &AgentConfig,
    churn: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    let times: Vec<u64> = (0..trials as u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t));
            let mut p = VisitExchange::with_churn(
                graph,
                source,
                agents,
                churn,
                ProtocolOptions::none(),
                &mut rng,
            )
            .expect("valid churn");
            run_to_completion(&mut p, 100_000_000, &mut rng).rounds
        })
        .collect();
    Summary::of_u64(&times).mean
}

/// Runs the experiment at the configured scale.
pub fn run(config: &ExperimentConfig) -> ExperimentReport {
    let trials = config.trials(4, 12, 25);
    let churn_levels = [0.0, 0.01, 0.05, 0.1, 0.25];

    let mut report = ExperimentReport::new(
        ID,
        "Fault tolerance: visit-exchange with a dynamic (churning) agent population",
        "Section 9 (open problems): the paper conjectures that losing agents can be tolerated if a \
         dynamic agent set is used, with agents dying and fresh agents being born at a \
         proportional rate. This experiment replaces a fraction of the agents with fresh \
         uninformed agents every round and measures the slowdown.",
    );

    // Double star: the graph where the agent protocols carry the day.
    let leaves = config.pick(64, 512, 2048);
    let dstar = double_star(leaves).expect("double star generator");
    let lazy = AgentConfig::default().lazy();
    let mut dstar_table = Table::new(
        &format!(
            "Double star (n = {}): broadcast time vs per-round churn",
            dstar.num_vertices()
        ),
        &["churn", "mean rounds", "slowdown vs churn-free"],
    );
    let dstar_baseline = mean_time(&dstar, 2, &lazy, 0.0, trials, config.seed);
    let mut dstar_worst_slowdown: f64 = 1.0;
    for &churn in &churn_levels {
        let t = mean_time(&dstar, 2, &lazy, churn, trials, config.seed);
        let slowdown = t / dstar_baseline.max(1e-9);
        dstar_worst_slowdown = dstar_worst_slowdown.max(slowdown);
        dstar_table.push_row(&[
            format!("{churn:.2}"),
            format!("{t:.1}"),
            format!("{slowdown:.2}×"),
        ]);
    }
    report.push_table(dstar_table);

    // Random regular graph: the Theorem 1 regime.
    let n = config.pick(128, 1024, 4096);
    let d = logarithmic_degree(n, 2.0);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC4);
    let regular = random_regular(n, d, &mut rng).expect("random regular generator");
    let default_agents = AgentConfig::default();
    let mut regular_table = Table::new(
        &format!("Random {d}-regular graph (n = {n}): broadcast time vs per-round churn"),
        &["churn", "mean rounds", "slowdown vs churn-free"],
    );
    let regular_baseline = mean_time(&regular, 0, &default_agents, 0.0, trials, config.seed);
    let mut regular_worst_slowdown: f64 = 1.0;
    for &churn in &churn_levels {
        let t = mean_time(&regular, 0, &default_agents, churn, trials, config.seed);
        let slowdown = t / regular_baseline.max(1e-9);
        regular_worst_slowdown = regular_worst_slowdown.max(slowdown);
        regular_table.push_row(&[
            format!("{churn:.2}"),
            format!("{t:.1}"),
            format!("{slowdown:.2}×"),
        ]);
    }
    report.push_table(regular_table);

    // Crash recovery: the other half of fault tolerance — not losing agents
    // mid-protocol but losing the *sweep process* mid-experiment. A guarded
    // sweep with a manifest is "crashed" (injected stop) halfway through and
    // re-run; the manifest hands the completed trials back instead of
    // redoing them.
    let recovery_trials = config.trials(6, 16, 32);
    let stop_after = recovery_trials / 2;
    let spec = SimulationSpec::new(ProtocolKind::VisitExchange)
        .with_agents(lazy.clone())
        .with_max_rounds(100_000_000)
        .with_seed(config.seed)
        .adapted_to(&dstar);
    let manifest_dir = std::env::temp_dir().join(format!(
        "rumor-churn-recovery-{}-{}",
        std::process::id(),
        config.seed
    ));
    std::fs::remove_dir_all(&manifest_dir).ok();
    std::fs::create_dir_all(&manifest_dir).expect("manifest directory");
    let manifest = manifest_dir.join("sweep.rman");
    // One worker makes the crash point deterministic.
    let one_worker = (*config).with_threads(1);
    let crash_policy = TrialPolicy {
        fault: FaultPlan {
            stop_after_trials: Some(stop_after),
            ..FaultPlan::none()
        },
        ..TrialPolicy::new()
    };
    let crashed = run_trials_guarded(
        &dstar,
        2,
        &spec,
        recovery_trials,
        &one_worker,
        &crash_policy,
        Some(&manifest),
    );
    let resumed = run_trials_guarded(
        &dstar,
        2,
        &spec,
        recovery_trials,
        &one_worker,
        &TrialPolicy::new(),
        Some(&manifest),
    );
    std::fs::remove_dir_all(&manifest_dir).ok();
    let mut recovery_table = Table::new(
        &format!(
            "Crash recovery: {recovery_trials}-trial visit-exchange sweep on the double star, \
             killed after {stop_after} trials"
        ),
        &[
            "sweep",
            "outcome taxonomy",
            "reused from manifest",
            "recovered work",
        ],
    );
    recovery_table.push_row(&[
        "crashed".to_string(),
        crashed.taxonomy().to_string(),
        crashed.reused_trials.to_string(),
        format!("{:.0}%", 100.0 * crashed.recovered_fraction()),
    ]);
    recovery_table.push_row(&[
        "resumed".to_string(),
        resumed.taxonomy().to_string(),
        resumed.reused_trials.to_string(),
        format!("{:.0}%", 100.0 * resumed.recovered_fraction()),
    ]);
    report.push_table(recovery_table);

    report.push_note(format!(
        "Killing the sweep after {} of {} trials loses no completed work: the resumed sweep \
         recovers {:.0}% of its trials from the manifest and only runs the remainder.",
        stop_after,
        recovery_trials,
        100.0 * resumed.recovered_fraction()
    ));

    report.push_note(format!(
        "Replacing up to 25% of the agents per round slows visit-exchange down by at most \
         {:.1}× on the double star and {:.1}× on the random regular graph — the broadcast always \
         completes, supporting the paper's conjecture that a dynamic agent population restores \
         fault tolerance.",
        dstar_worst_slowdown, regular_worst_slowdown
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
        assert_eq!(report.tables.len(), 3);
        assert_eq!(report.tables[0].num_rows(), 5);
        // The crash-recovery table: crashed and resumed sweeps.
        assert_eq!(report.tables[2].num_rows(), 2);
        assert!(report.notes.iter().any(|n| n.contains("recovers")));
    }
}
