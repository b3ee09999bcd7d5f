//! `paper-sweep`: the researcher's job. A fixed-trial sweep of the four
//! paper protocols through `run_trials` (CSR graphs, sequential engine, two
//! workers) over Fig. 1(a) star, Fig. 1(b) double star, Fig. 1(e) cycle of
//! stars of cliques, and Theorem 1's random regular graph. The vertex
//! frontier path and the walks do all the work on cache-resident CSR.
//!
//! One pass runs every cell once with the same trial seeds, so every pass
//! must reproduce the first bit for bit. The first pass is an untimed
//! warm-up (cold workspaces and thread stacks) and the reference. A "job"
//! is one cell, one `run_trials` call. Cell latencies fall in 16 clusters
//! that repeat every pass, so `job_ms_p50` is the median over cells of
//! each cell's median latency (a pooled median lands between two clusters
//! and moved 26% across seeds); `job_ms_p99` is the pooled 99th
//! percentile. (With whole passes as jobs, p99 is the slowest of ~15
//! passes, which one host stall moves by 75%.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rumor_core::{simulate_in, BroadcastOutcome, ProtocolKind, SimWorkspace, SimulationSpec};
use rumor_experiments::{run_trials, ExperimentConfig, Scale, SubmitRequest, TopologySpec};
use rumor_graphs::generators::{double_star, random_regular, star, CycleOfStarsOfCliques};
use rumor_graphs::Graph;

use crate::layers::{self, Sample};
use crate::{job_percentiles, median, mix, peak_rss_mb, secs, Args, Digest, Report, Trace};

/// Trials per cell and per pass.
const TRIALS: usize = 16;
/// Trial workers asked of `run_trials` (it clamps them to the cores).
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest passes a run times, whatever the window (after the warm-up).
const MIN_PASSES: usize = 5;

const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Push,
    ProtocolKind::PushPull,
    ProtocolKind::VisitExchange,
    ProtocolKind::MeetExchange,
];

struct Cell<'g> {
    name: String,
    graph: &'g Graph,
    source: usize,
    spec: SimulationSpec,
}

fn build_graphs(seed: u64) -> Vec<(&'static str, Graph, usize)> {
    let cos = CycleOfStarsOfCliques::new(16).expect("cycle of stars of cliques");
    let cos_source = cos.a_clique_source();
    let mut rng = SmallRng::seed_from_u64(mix(seed, 1));
    vec![
        ("star", star(1 << 14).expect("star"), 0),
        ("double-star", double_star(1 << 12).expect("double star"), 2),
        ("cycle-of-stars", cos.into_graph(), cos_source),
        (
            "random-regular",
            random_regular(1 << 16, 16, &mut rng).expect("random regular"),
            0,
        ),
    ]
}

pub fn run(args: &Args, trace: &mut Trace, out_dir: &Path) -> Report {
    let mut report = Report::default();

    // Set-up: build every graph, several times; keep the last build.
    let mut setups = Vec::new();
    let mut graphs = Vec::new();
    for i in 0..SETUPS {
        let span = trace.begin("graphs.build", i as u64);
        let t = Instant::now();
        graphs = build_graphs(args.seed);
        setups.push(secs(t));
        trace.end(span);
    }
    let build_s = median(&mut setups);

    let cells: Vec<Cell> = graphs
        .iter()
        .flat_map(|(gname, g, source)| PROTOCOLS.iter().map(move |&kind| (gname, g, *source, kind)))
        .enumerate()
        .map(|(i, (gname, g, source, kind))| Cell {
            name: format!("{gname}/{kind}"),
            graph: g,
            source,
            spec: SimulationSpec::new(kind)
                .with_seed(mix(args.seed, 100 + i as u64))
                .adapted_to(g),
        })
        .collect();
    let config = ExperimentConfig::new(Scale::Default).with_threads(WORKERS);

    // Timed window: whole passes after the warm-up until the window is
    // spent. A traced run records spans on odd passes only, so even passes
    // give the untraced comparison for `trace.overhead_frac`.
    let mut reference: Vec<Option<Vec<BroadcastOutcome>>> = Vec::new();
    let (mut traced_s, mut untraced_s, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut runner_s = 0.0;
    let mut cell_ms = vec![Vec::new(); cells.len()];
    let mut start = Instant::now();
    let mut pass = 0usize;
    while pass <= MIN_PASSES || start.elapsed() < args.window {
        let traced = trace.enabled() && pass % 2 == 1;
        trace.pause(!traced);
        let t = Instant::now();
        for (c, cell) in cells.iter().enumerate() {
            let span = trace.begin("runner.run_trials", (pass * cells.len() + c) as u64);
            let t_cell = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_trials(cell.graph, cell.source, &cell.spec, TRIALS, &config)
            }));
            if pass > 0 {
                cell_ms[c].push(secs(t_cell) * 1e3);
            }
            if traced {
                runner_s += secs(t_cell);
            }
            trace.end(span);
            report.attempted += TRIALS as u64;
            match result {
                Ok(outcomes) => {
                    report.failed += outcomes.iter().filter(|o| !o.completed).count() as u64;
                    if pass == 0 {
                        reference.push(Some(outcomes));
                    } else {
                        let same = reference[c].as_ref() == Some(&outcomes);
                        report.check(same, || {
                            format!("pass {pass} cell {} differs from pass 0", cell.name)
                        });
                    }
                }
                Err(_) => {
                    report.failed += TRIALS as u64;
                    if pass == 0 {
                        reference.push(None);
                    }
                    report
                        .errors
                        .push(format!("pass {pass} cell {} panicked", cell.name));
                }
            }
        }
        let s = secs(t);
        if pass == 0 {
            start = Instant::now();
        } else {
            pass_s.push(s);
            if traced {
                traced_s.push(s)
            } else {
                untraced_s.push(s)
            }
        }
        pass += 1;
    }
    trace.pause(false);
    let rss = peak_rss_mb();

    // Output checks: every trial completes on these connected graphs.
    let mut digest = Digest::default();
    for (cell, outcomes) in cells.iter().zip(&reference) {
        for o in outcomes.iter().flatten() {
            digest.outcome(o);
            report.check(o.completed, || {
                format!("{}: a trial did not complete", cell.name)
            });
        }
    }
    report.digest = digest.0;

    let per_pass = (cells.len() * TRIALS) as f64;
    let mut rates: Vec<f64> = pass_s.iter().map(|s| per_pass / s).collect();
    let mut cell_medians: Vec<f64> = cell_ms.iter_mut().map(|v| median(v)).collect();
    let p99 = job_percentiles(&mut cell_ms.concat()).1;
    report.summarize(
        median(&mut rates),
        (median(&mut cell_medians), p99),
        build_s,
        rss,
    );

    if trace.enabled() {
        let traced_passes = traced_s.len() as f64;
        let window: f64 = traced_s.iter().sum();
        report.layer(
            "trace.overhead_frac",
            median(&mut traced_s) / median(&mut untraced_s) - 1.0,
            "frac",
        );
        layer_replays(
            args,
            out_dir,
            &mut report,
            &cells,
            &reference,
            &graphs,
            build_s,
            traced_passes,
            window,
            runner_s,
        );
    }
    report
}

/// The traced run's replays of the layers `run_trials` hides.
#[allow(clippy::too_many_arguments)]
fn layer_replays(
    args: &Args,
    out_dir: &Path,
    report: &mut Report,
    cells: &[Cell],
    reference: &[Option<Vec<BroadcastOutcome>>],
    graphs: &[(&'static str, Graph, usize)],
    build_s: f64,
    traced_passes: f64,
    window_s: f64,
    runner_s: f64,
) {
    let (xoshiro_ns, _) = layers::rand_ns(report, args.seed);
    report.layer("graphs.build_s", build_s, "s");
    let workers = ExperimentConfig::new(Scale::Default)
        .with_threads(WORKERS)
        .resolved_workers(TRIALS) as f64;

    // Every trial of one pass, single-threaded: the runner's hidden work.
    // It must reproduce `run_trials` (outcomes do not depend on workers).
    let mut pass_single_s = 0.0;
    let mut vertex_s = 0.0;
    let mut agent_rounds = vec![0.0; graphs.len()];
    for (c, (cell, outcomes)) in cells.iter().zip(reference).enumerate() {
        let mut ws = SimWorkspace::new();
        let mut spec = cell.spec.clone();
        for trial in 0..TRIALS {
            spec.seed = cell.spec.seed.wrapping_add(trial as u64);
            let t = Instant::now();
            let o = simulate_in(cell.graph, cell.source, &spec, &mut ws);
            let s = secs(t);
            pass_single_s += s;
            let live = outcomes.as_ref().map(|v| &v[trial]);
            report.check(live == Some(&o), || {
                format!(
                    "{}: single-thread replay differs from run_trials",
                    cell.name
                )
            });
            if spec.kind.uses_agents() {
                agent_rounds[c / PROTOCOLS.len()] +=
                    o.rounds as f64 * spec.agents.count.resolve(cell.graph.num_vertices()) as f64;
            } else {
                vertex_s += s;
            }
        }
    }
    report.layer(
        "workload.vertex_time_share",
        vertex_s / pass_single_s,
        "frac",
    );
    let pass_wall = window_s / traced_passes;
    report.layer(
        "runner.cell_s",
        runner_s / (traced_passes * cells.len() as f64),
        "s",
    );
    report.layer(
        "runner.pool_efficiency",
        pass_single_s / (workers * pass_wall),
        "frac",
    );

    // Core: per-protocol trial time (Σ over graphs of the median one-thread
    // trial), exact rounds and messages of one pass, engine ratio.
    let samples: Vec<Sample<Graph>> = cells
        .iter()
        .map(|c| Sample {
            graph: c.graph,
            source: c.source,
            spec: c.spec.clone(),
        })
        .collect();
    let engines = layers::replay_engines(&samples, 3);
    for kind in PROTOCOLS {
        let of_kind = |v: &[f64]| -> f64 {
            cells
                .iter()
                .zip(v)
                .filter(|(c, _)| c.spec.kind == kind)
                .map(|(_, x)| x)
                .sum()
        };
        report.layer(
            &format!("core.trial_ms.{kind}"),
            of_kind(&engines.seq_ms),
            "ms",
        );
        let outcomes = cells
            .iter()
            .zip(reference)
            .filter(|(c, _)| c.spec.kind == kind)
            .flat_map(|(_, o)| o.iter().flatten());
        let (rounds, messages) = outcomes.fold((0u64, 0u64), |(r, m), o| {
            (r + o.rounds, m + o.total_messages)
        });
        report.layer(&format!("core.rounds.{kind}"), rounds as f64, "count");
        report.layer(&format!("core.messages.{kind}"), messages as f64, "count");
    }
    report.layer("core.sharded1_over_seq", engines.ratio(), "ratio");
    let dir = out_dir.join(format!("paper-{}", std::process::id()));
    layers::checkpoint(&samples, 3, &dir).push(report);
    let _ = std::fs::remove_dir_all(&dir);

    // Walks and neighbor resolution on every graph (|A| = n), at least 2^20
    // agent-rounds each; reported as agent-round-weighted means.
    let (mut walks_s, mut resolve_s) = (0.0, 0.0);
    for ((name, g, _), &ar) in graphs.iter().zip(&agent_rounds) {
        let n = g.num_vertices();
        let walk = layers::replay_walks(g, n, (1usize << 20).div_ceil(n).max(8), args.seed, false);
        let queries = layers::resolve_queries(g, &walk.positions);
        walks_s += ar * (walk.step_ns + walk.exchange_ns) * 1e-9;
        resolve_s += ar * layers::resolve_ns(&queries, |u, i| g.neighbor(u, i)) * 1e-9;
        report.layer(&format!("walks.step_ns.{name}"), walk.step_ns, "ns");
        report.layer(&format!("walks.exchange_ns.{name}"), walk.exchange_ns, "ns");
    }
    let total_ar: f64 = agent_rounds.iter().sum();
    let weighted = |prefix: &str| -> f64 {
        graphs
            .iter()
            .zip(&agent_rounds)
            .map(|((name, _, _), ar)| {
                ar * report
                    .layers
                    .iter()
                    .find(|m| m.name == format!("{prefix}.{name}"))
                    .map_or(0.0, |m| m.value)
            })
            .sum::<f64>()
            / total_ar
    };
    let (step_ns, exchange_ns) = (weighted("walks.step_ns"), weighted("walks.exchange_ns"));
    report.layer("walks.step_ns", step_ns, "ns");
    report.layer("walks.exchange_ns", exchange_ns, "ns");
    report.layer("graphs.resolve_ns.csr", resolve_s * 1e9 / total_ar, "ns");
    report.layer("graphs.hub_count", 0.0, "count");
    report.layer("graphs.hub_hit_frac", 0.0, "frac");
    report.layer("graphs.hub_cache_mb", 0.0, "MB");
    let (_, rr, _) = &graphs[3];
    layers::codec(report, rr);

    let rr_pp = cells
        .iter()
        .position(|c| c.name == "random-regular/push-pull")
        .expect("cell");
    let digest = rumor_experiments::serve::protocol::fnv1a64(&rumor_graphs::codec::encode_csr(rr));
    let mut request = SubmitRequest::new(
        "paper-sweep",
        TopologySpec::uploaded(digest),
        "push-pull",
        TRIALS,
    );
    request.seed = cells[rr_pp].spec.seed;
    layers::wire(report, &request, reference[rr_pp].as_deref().unwrap_or(&[]));
    crate::serve::replay_into(report, args, out_dir);

    // Attribution over the traced passes (see README): runner spans, then
    // the replayed single-thread trial time spread over the workers, then
    // walks, graphs and rand by exact agent-round counts.
    let spread = traced_passes / workers;
    layers::attribute(
        report,
        window_s,
        &[
            ("runner", runner_s, None),
            ("core", pass_single_s * spread, Some("runner")),
            ("walks", walks_s * spread, Some("core")),
            ("graphs", resolve_s * spread, Some("walks")),
            ("rand", total_ar * xoshiro_ns * 1e-9 * spread, Some("walks")),
        ],
    );
}
