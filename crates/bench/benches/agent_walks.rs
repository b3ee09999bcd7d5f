//! AGENT-WALKS — pins the flat agent-walk engine's speedup over the naive
//! substrate.
//!
//! Baseline: a faithful transcription of the pre-rewrite agent hot path —
//! `Vec<Vec<AgentId>>` occupancy rebuilt with fresh allocations every round,
//! full per-agent exchange scans, linear-scan stationary placement, ChaCha12
//! (`StdRng`) randomness drawn through `&mut dyn RngCore` (one virtual call
//! per sample). Subject: [`rumor_core::simulate_on`] running `meet-exchange`,
//! i.e. the counting-sort CSR `MultiWalk` + uninformed-frontier exchange +
//! per-vertex sampler words, monomorphized over xoshiro256++.
//!
//! Both run full `meet-exchange` broadcasts with |A| = n from a clique vertex
//! on the Fig. 1(e) cycle-of-stars-of-cliques at n ≥ 10^5 — the regime where
//! Theorems 2–4 live. The acceptance target for the flat engine is a ≥ 10x
//! mean-time speedup; the measured ratio is printed, recorded in
//! `BENCH_walks.json`, and (when `RUMOR_BENCH_ENFORCE=1`) asserted.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rumor_bench::summary::record_summary_in;
use rumor_core::{simulate_on, ProtocolKind, SimulationSpec};
use rumor_graphs::generators::CycleOfStarsOfCliques;
use rumor_graphs::Graph;

/// Laziness used on bipartite instances (the paper's remedy so that
/// `meet-exchange` has finite expected broadcast time); the engine side gets
/// the same treatment through `SimulationSpec::adapted_to`.
fn baseline_laziness(graph: &Graph) -> f64 {
    if rumor_graphs::algorithms::is_bipartite(graph) {
        0.5
    } else {
        0.0
    }
}

/// The naive meet-exchange kept as the frozen measurement baseline: this is
/// the seed implementation's cost model (naive substrate + `StdRng` through
/// `dyn RngCore`), preserved verbatim so the speedup stays pinned against a
/// fixed reference rather than against "whatever the engine used to do".
fn naive_meet_exchange_broadcast(graph: &Graph, source: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng: &mut dyn RngCore = &mut rng;
    let n = graph.num_vertices();
    let laziness = baseline_laziness(graph);

    // Stationary placement by binary search over the degree prefix sums (the
    // seed's `sample_stationary` cost model — O(log n) per agent, not a
    // linear scan, so the baseline is not unfairly penalized here).
    let total_degree = graph.total_degree();
    let prefix: Vec<usize> = {
        let mut acc = 0;
        graph
            .vertices()
            .map(|u| {
                acc += graph.degree(u);
                acc
            })
            .collect()
    };
    let mut positions: Vec<usize> = (0..n)
        .map(|_| {
            let pos = rng.gen_range(0..total_degree);
            prefix.partition_point(|&acc| acc <= pos)
        })
        .collect();

    let mut informed: Vec<bool> = positions.iter().map(|&p| p == source).collect();
    let mut informed_count = informed.iter().filter(|&&i| i).count();
    let mut source_active = informed_count == 0;

    // Per-vertex occupant lists, cleared over all n vertices every round (the
    // seed's occupancy upkeep, before touched-list tracking existed).
    let mut occupants: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut previous: Vec<usize> = positions.clone();

    let mut rounds = 0u64;
    while informed_count < positions.len() {
        rounds += 1;
        // Pass 1 — movement: per-agent draws through the virtual RNG.
        std::mem::swap(&mut previous, &mut positions);
        for (agent, &at) in previous.iter().enumerate() {
            let stay = laziness > 0.0 && rng.gen_bool(laziness);
            let next = if stay {
                at
            } else {
                let d = graph.degree(at);
                if d > 0 {
                    graph.neighbor(at, rng.gen_range(0..d))
                } else {
                    at
                }
            };
            positions[agent] = next;
        }
        // Pass 2 — message accounting (the seed counted moves separately).
        let mut _moves = 0u64;
        for agent in 0..positions.len() {
            if positions[agent] != previous[agent] {
                _moves += 1;
            }
        }
        // Pass 3 — occupancy upkeep over every vertex.
        for list in occupants.iter_mut() {
            list.clear();
        }
        for (agent, &p) in positions.iter().enumerate() {
            occupants[p].push(agent);
        }
        // Pass 4 — exchange: full scan of all vertices and occupants.
        let snapshot = informed.clone();
        let mut newly: Vec<usize> = Vec::new();
        if source_active && !occupants[source].is_empty() {
            newly.extend(&occupants[source]);
            source_active = false;
        }
        for agents_here in &occupants {
            if agents_here.len() < 2 {
                continue;
            }
            if agents_here.iter().any(|&g| snapshot[g]) {
                newly.extend(agents_here.iter().filter(|&&g| !snapshot[g]));
            }
        }
        for g in newly {
            if !informed[g] {
                informed[g] = true;
                informed_count += 1;
            }
        }
    }
    rounds
}

fn engine_meet_exchange_broadcast(graph: &Graph, source: usize, seed: u64) -> u64 {
    let spec = SimulationSpec::new(ProtocolKind::MeetExchange)
        .with_seed(seed)
        .with_max_rounds(u64::MAX)
        .adapted_to(graph);
    simulate_on(graph, source, &spec).rounds
}

/// Times `samples` full broadcasts and reports (mean wall-clock, mean round
/// count) — the round count contextualizes the timing, since meet-exchange
/// broadcast lengths have a heavy-tailed distribution.
fn measure<F: FnMut(u64) -> u64>(samples: u64, mut f: F) -> (Duration, f64) {
    let mut total = Duration::ZERO;
    let mut rounds = 0u64;
    for seed in 0..samples {
        let t0 = Instant::now();
        rounds += black_box(f(seed));
        total += t0.elapsed();
    }
    (total / samples as u32, rounds as f64 / samples as f64)
}

fn main() {
    let fast = std::env::var("RUMOR_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let family = CycleOfStarsOfCliques::with_at_least(100_000).expect("fig 1e generator");
    let source = family.a_clique_source();
    let n = family.graph().num_vertices();
    let graph = family.graph();

    // A paired measurement for the speedup ratio. The two
    // sides consume different RNGs (by design: the baseline is the *seed*
    // cost model), so they are timed over the same seed set independently;
    // the mean round counts are reported so per-round costs can be compared
    // even when the heavy-tailed broadcast lengths differ.
    let samples = if fast { 1u64 } else { 3 };
    let (engine, engine_rounds) = measure(samples, |s| {
        engine_meet_exchange_broadcast(graph, source, s)
    });
    let (naive, naive_rounds) =
        measure(samples, |s| naive_meet_exchange_broadcast(graph, source, s));
    let speedup = naive.as_secs_f64() / engine.as_secs_f64();
    let per_round_speedup = (naive.as_secs_f64() / naive_rounds.max(1.0))
        / (engine.as_secs_f64() / engine_rounds.max(1.0));
    println!(
        "agent_walks summary: n={n}, |A|=n meet-exchange full broadcast — naive {naive:.3?} \
         ({naive_rounds:.0} rounds) vs flat engine {engine:.3?} ({engine_rounds:.0} rounds) => \
         speedup {speedup:.1}x, per-round {per_round_speedup:.1}x (target >= 10x)"
    );
    record_summary_in(
        "BENCH_walks.json",
        "agent_walks_meet_exchange",
        &[
            ("n", n as f64),
            ("naive_mean_s", naive.as_secs_f64()),
            ("engine_mean_s", engine.as_secs_f64()),
            ("naive_mean_rounds", naive_rounds),
            ("engine_mean_rounds", engine_rounds),
            ("speedup", speedup),
            ("per_round_speedup", per_round_speedup),
        ],
    );
    if std::env::var("RUMOR_BENCH_ENFORCE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        assert!(
            speedup >= 10.0,
            "flat agent-walk engine speedup {speedup:.1}x below the 10x target"
        );
    }

    // Scale smoke: one n = 10^6, |A| = n visit-exchange broadcast stays
    // feasible (skipped in fast mode to keep CI short).
    if !fast {
        let big = CycleOfStarsOfCliques::with_at_least(1_000_000).expect("fig 1e generator");
        let t0 = Instant::now();
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange)
            .with_seed(7)
            .with_max_rounds(u64::MAX)
            .adapted_to(big.graph());
        let outcome = simulate_on(big.graph(), big.a_clique_source(), &spec);
        println!(
            "agent_walks scale: n={} visit-exchange broadcast completed in {} rounds, {:.3?} \
             wall-clock",
            big.graph().num_vertices(),
            outcome.rounds,
            t0.elapsed()
        );
    }
}
