//! Theorem 1 demo: on regular graphs with degree Ω(log n), `push` and
//! `visit-exchange` have the same asymptotic broadcast time.
//!
//! Sweeps random d-regular graphs (d ≈ 2·log2 n), prints the mean broadcast
//! times, the per-size ratio, and the fitted growth exponents of both
//! protocols, and finally verifies Lemma 13 on a coupled execution.
//!
//! ```text
//! cargo run --release --example regular_equivalence
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_analysis::{fit_power_law, Summary, Table};
use rumor_core::instrument::CoupledRun;
use rumor_core::{simulate_on, AgentConfig, ProtocolKind, SimulationSpec};
use rumor_graphs::generators::{logarithmic_degree, random_regular};
use rumor_graphs::GraphError;

const TRIALS: u64 = 8;

fn main() -> Result<(), GraphError> {
    let sizes = [256usize, 512, 1024, 2048];
    let mut rng = StdRng::seed_from_u64(7);

    let mut table = Table::new(
        "push vs visit-exchange on random d-regular graphs (d ≈ 2·log2 n)",
        &["n", "d", "mean T_push", "mean T_visitx", "ratio"],
    );
    let mut push_points = Vec::new();
    let mut visitx_points = Vec::new();
    for &n in &sizes {
        let d = logarithmic_degree(n, 2.0);
        let graph = random_regular(n, d, &mut rng)?;
        let run = |kind: ProtocolKind| -> f64 {
            let times: Vec<u64> = (0..TRIALS)
                .map(|seed| {
                    simulate_on(&graph, 0, &SimulationSpec::new(kind).with_seed(seed)).rounds
                })
                .collect();
            Summary::of_u64(&times).mean
        };
        let push = run(ProtocolKind::Push);
        let visitx = run(ProtocolKind::VisitExchange);
        push_points.push((n as f64, push));
        visitx_points.push((n as f64, visitx));
        table.push_row(&[
            n.to_string(),
            d.to_string(),
            format!("{push:.1}"),
            format!("{visitx:.1}"),
            format!("{:.2}", push / visitx),
        ]);
    }
    print!("{}", table.to_plain_text());

    let push_fit = fit_power_law(&push_points);
    let visitx_fit = fit_power_law(&visitx_points);
    println!(
        "\nEmpirical growth exponents: push {:.2}, visit-exchange {:.2} — both near zero\n\
         (logarithmic growth), and their ratio stays within a constant band, as Theorem 1 predicts.",
        push_fit.exponent, visitx_fit.exponent
    );

    // Lemma 13 on one coupled execution: τ_u ≤ C_u(t_u) for every vertex.
    let n = 1024;
    let d = logarithmic_degree(n, 2.0);
    let graph = random_regular(n, d, &mut rng)?;
    let report = CoupledRun::run(&graph, 0, &AgentConfig::default(), 1_000_000, 2024);
    println!(
        "\nCoupled execution on a random {d}-regular graph with n = {n}: T_push = {}, \
         T_visitx = {}, Lemma 13 violations = {} (must be 0).",
        report.push_time, report.visitx_time, report.lemma13_violations
    );
    Ok(())
}
