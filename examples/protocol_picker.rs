//! Protocol picker: given a topology and a size, measure every protocol and
//! recommend one.
//!
//! The paper's punchline is that no single dissemination protocol wins
//! everywhere — push-pull loses on hub-to-hub bridges (double star),
//! visit-exchange loses when the stationary distribution strands the agents
//! away from the source's side of the graph (heavy binary tree), and the
//! combination inherits the best of both. This example is the "downstream
//! user" view of that result: pick the topology that looks most like your
//! network, and the tool reports which protocol to deploy.
//!
//! ```text
//! cargo run --release --example protocol_picker -- <family> [size] [trials]
//!
//! families: star | double-star | heavy-tree | siamese | cycle-stars |
//!           regular | hypercube | complete | grid
//! ```
//!
//! For example `cargo run --release --example protocol_picker -- double-star 500`.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rumor_analysis::{Summary, Table};
use rumor_core::{simulate_on, ProtocolKind, SimulationSpec};
use rumor_graphs::algorithms::{bipartition_sizes, diameter_lower_bound, DegreeStats};
use rumor_graphs::generators::{
    complete, double_star, grid, hypercube, logarithmic_degree, random_regular, star,
    CycleOfStarsOfCliques, HeavyBinaryTree, SiameseHeavyBinaryTree, STAR_CENTER,
};
use rumor_graphs::{Graph, VertexId};

/// The families the picker knows how to build, with a short description used
/// in the usage text.
const FAMILIES: &[(&str, &str)] = &[
    ("star", "one hub, `size` leaves (Fig. 1a)"),
    (
        "double-star",
        "two hubs joined by an edge, `size` leaves each (Fig. 1b)",
    ),
    (
        "heavy-tree",
        "binary tree of depth `size` with a clique on the leaves (Fig. 1c)",
    ),
    (
        "siamese",
        "two heavy binary trees of depth `size` sharing a root (Fig. 1d)",
    ),
    ("cycle-stars", "cycle of `size` stars of cliques (Fig. 1e)"),
    (
        "regular",
        "random d-regular graph on `size` vertices, d ≈ 2·log2 n (Theorem 1)",
    ),
    ("hypercube", "`size`-dimensional hypercube"),
    ("complete", "complete graph on `size` vertices"),
    ("grid", "`size` × `size` grid"),
];

fn usage() -> String {
    let mut text = String::from("usage: protocol_picker <family> [size] [trials]\n\nfamilies:\n");
    for (name, description) in FAMILIES {
        text.push_str(&format!("  {name:<12} {description}\n"));
    }
    text
}

/// Builds the requested graph and returns it with a sensible rumor source.
fn build(family: &str, size: usize) -> Result<(Graph, VertexId), String> {
    let err = |e: rumor_graphs::GraphError| format!("could not build {family}({size}): {e}");
    match family {
        "star" => Ok((star(size).map_err(err)?, STAR_CENTER)),
        "double-star" => Ok((double_star(size).map_err(err)?, 2)),
        "heavy-tree" => {
            let tree = HeavyBinaryTree::new(size as u32).map_err(err)?;
            let source = tree.a_leaf();
            Ok((tree.into_graph(), source))
        }
        "siamese" => {
            let tree = SiameseHeavyBinaryTree::new(size as u32).map_err(err)?;
            let source = tree.a_leaf();
            Ok((tree.into_graph(), source))
        }
        "cycle-stars" => {
            let g = CycleOfStarsOfCliques::new(size).map_err(err)?;
            let source = g.a_clique_source();
            Ok((g.into_graph(), source))
        }
        "regular" => {
            let d = logarithmic_degree(size, 2.0);
            let mut rng = StdRng::seed_from_u64(12345);
            Ok((random_regular(size, d, &mut rng).map_err(err)?, 0))
        }
        "hypercube" => Ok((hypercube(size as u32).map_err(err)?, 0)),
        "complete" => Ok((complete(size).map_err(err)?, 0)),
        "grid" => Ok((grid(size, size).map_err(err)?, 0)),
        other => Err(format!("unknown family {other:?}\n\n{}", usage())),
    }
}

/// Default size per family (chosen so the example finishes in seconds).
fn default_size(family: &str) -> usize {
    match family {
        "heavy-tree" | "siamese" => 8,
        "cycle-stars" => 8,
        "hypercube" => 10,
        "grid" => 24,
        _ => 400,
    }
}

fn describe(graph: &Graph) {
    let stats = DegreeStats::of(graph);
    println!(
        "graph: {} vertices, {} edges, degree min/mean/max = {}/{:.1}/{}{}",
        graph.num_vertices(),
        graph.num_edges(),
        stats.min,
        stats.mean,
        stats.max,
        if stats.is_regular() { " (regular)" } else { "" },
    );
    if let Some((left, right)) = bipartition_sizes(graph) {
        println!("bipartite ({left} + {right}): meet-exchange will use lazy walks");
    }
    if let Some(diam) = diameter_lower_bound(graph) {
        println!("diameter ≥ {diam}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let family = match args.first() {
        Some(f) => f.as_str(),
        None => {
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let size = match args.get(1).map(|s| s.parse::<usize>()) {
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            eprintln!("invalid size {:?}\n\n{}", args[1], usage());
            return ExitCode::FAILURE;
        }
        None => default_size(family),
    };
    let trials = match args.get(2).map(|s| s.parse::<u64>()) {
        Some(Ok(v)) if v > 0 => v,
        Some(_) => {
            eprintln!("invalid trial count {:?}\n\n{}", args[2], usage());
            return ExitCode::FAILURE;
        }
        None => 7,
    };

    let (graph, source) = match build(family, size) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    describe(&graph);

    let mut table = Table::new(
        &format!("Mean over {trials} trials, source = vertex {source}"),
        &["protocol", "mean rounds", "min", "max", "mean messages"],
    );
    let mut best: Option<(ProtocolKind, f64)> = None;
    for kind in ProtocolKind::ALL {
        let mut rounds = Vec::with_capacity(trials as usize);
        let mut messages = Vec::with_capacity(trials as usize);
        for seed in 0..trials {
            let spec = SimulationSpec::new(kind).with_seed(seed).adapted_to(&graph);
            let outcome = simulate_on(&graph, source, &spec);
            rounds.push(outcome.rounds);
            messages.push(outcome.total_messages);
        }
        let summary = Summary::of_u64(&rounds);
        let mean_messages = messages.iter().map(|&m| m as f64).sum::<f64>() / messages.len() as f64;
        table.push_row(&[
            kind.name().to_string(),
            format!("{:.1}", summary.mean),
            format!("{:.0}", summary.min),
            format!("{:.0}", summary.max),
            format!("{mean_messages:.0}"),
        ]);
        if best.is_none_or(|(_, b)| summary.mean < b) {
            best = Some((kind, summary.mean));
        }
    }
    print!("{}", table.to_plain_text());

    if let Some((kind, mean)) = best {
        println!(
            "\nrecommendation: {} (mean {:.1} rounds on this topology)",
            kind.name(),
            mean
        );
        println!(
            "caveat: the agent-based protocols additionally move {} agents every round; if raw\n\
             message count matters more than rounds, compare the last column too.",
            graph.num_vertices()
        );
    }
    ExitCode::SUCCESS
}
