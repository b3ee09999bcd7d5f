//! A tour of Figure 1: runs the paper's four protocols on each of the five
//! separation-example graphs and prints the mean broadcast times, reproducing
//! the qualitative content of Fig. 1(a)–(e).
//!
//! ```text
//! cargo run --release --example figure1_tour
//! ```

use rumor_analysis::{Summary, Table};
use rumor_core::{simulate_on, AgentConfig, ProtocolKind, SimulationSpec};
use rumor_graphs::generators::{
    double_star, star, CycleOfStarsOfCliques, HeavyBinaryTree, SiameseHeavyBinaryTree, STAR_CENTER,
};
use rumor_graphs::{Graph, GraphError, VertexId};

const TRIALS: u64 = 5;

fn mean_rounds(graph: &Graph, source: VertexId, kind: ProtocolKind, lazy: bool) -> f64 {
    let agents = if lazy {
        AgentConfig::default().lazy()
    } else {
        AgentConfig::default()
    };
    let times: Vec<u64> = (0..TRIALS)
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

fn row(table: &mut Table, label: &str, graph: &Graph, source: VertexId, lazy: bool) {
    let cells = [
        label.to_string(),
        graph.num_vertices().to_string(),
        format!(
            "{:.1}",
            mean_rounds(graph, source, ProtocolKind::Push, lazy)
        ),
        format!(
            "{:.1}",
            mean_rounds(graph, source, ProtocolKind::PushPull, lazy)
        ),
        format!(
            "{:.1}",
            mean_rounds(graph, source, ProtocolKind::VisitExchange, lazy)
        ),
        format!(
            "{:.1}",
            mean_rounds(graph, source, ProtocolKind::MeetExchange, lazy)
        ),
    ];
    table.push_row(&cells);
}

fn main() -> Result<(), GraphError> {
    let mut table = Table::new(
        "Figure 1 tour: mean broadcast time over 5 trials",
        &[
            "graph",
            "n",
            "push",
            "push-pull",
            "visit-exchange",
            "meet-exchange",
        ],
    );

    // (a) Star: push is coupon-collector slow, everyone else is fast.
    let star_graph = star(400)?;
    row(&mut table, "(a) star", &star_graph, STAR_CENTER, true);

    // (b) Double star: push-pull also becomes slow; the agent protocols stay fast.
    let dstar = double_star(200)?;
    row(&mut table, "(b) double star", &dstar, 2, true);

    // (c) Heavy binary tree: visit-exchange is slow, push and (leaf-sourced)
    // meet-exchange are fast.
    let heavy = HeavyBinaryTree::new(8)?;
    let heavy_source = heavy.a_leaf();
    row(
        &mut table,
        "(c) heavy binary tree",
        heavy.graph(),
        heavy_source,
        false,
    );

    // (d) Siamese heavy trees: both agent protocols are slow.
    let siamese = SiameseHeavyBinaryTree::new(7)?;
    let siamese_source = siamese.a_leaf();
    row(
        &mut table,
        "(d) siamese heavy trees",
        siamese.graph(),
        siamese_source,
        false,
    );

    // (e) Cycle of stars of cliques: visit-exchange beats meet-exchange by a log factor.
    let cycle = CycleOfStarsOfCliques::new(8)?;
    let cycle_source = cycle.a_clique_source();
    row(
        &mut table,
        "(e) cycle of stars of cliques",
        cycle.graph(),
        cycle_source,
        false,
    );

    print!("{}", table.to_plain_text());
    println!(
        "\nEach row reproduces one panel of Figure 1: compare the columns to see which protocol\n\
         family wins on which topology (Lemmas 2, 3, 4, 8 and 9 of the paper)."
    );
    Ok(())
}
