//! HOT-PATH — pins the frontier engine's speedup over the naive simulator.
//!
//! Baseline: a faithful transcription of the pre-frontier `push` hot path —
//! `Vec<bool>` membership, a full `0..n` scan every round, per-round buffer
//! allocation, ChaCha12 (`StdRng`) randomness drawn through `&mut dyn
//! RngCore` (one virtual call per sample). Subject: [`rumor_core::simulate_on`],
//! i.e. the frontier `InformedSet` + monomorphized xoshiro256++ engine.
//!
//! Both run full `push` broadcasts from a clique vertex on the Fig. 1(e)
//! cycle-of-stars-of-cliques at n ≥ 10^5 — the workspace's canonical "long
//! broadcast on a big graph" workload. The acceptance target for the frontier
//! engine is a ≥ 5x mean-time speedup; the measured ratio is printed at the
//! end and (when `RUMOR_BENCH_ENFORCE=1`) asserted.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rumor_bench::summary::record_summary_in;
use rumor_core::{simulate_on, ProtocolKind, SimulationSpec};
use rumor_graphs::generators::CycleOfStarsOfCliques;
use rumor_graphs::Graph;

/// The naive full-scan `push` kept as the measurement baseline: this is the
/// seed implementation's cost model, preserved verbatim so the speedup stays
/// pinned against a fixed reference rather than against "whatever the engine
/// used to do".
fn naive_push_broadcast(graph: &Graph, source: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng: &mut dyn RngCore = &mut rng;
    let n = graph.num_vertices();
    let mut informed = vec![false; n];
    informed[source] = true;
    let mut count = 1usize;
    let mut rounds = 0u64;
    while count < n {
        rounds += 1;
        let mut newly_informed: Vec<usize> = Vec::new();
        for u in 0..n {
            if !informed[u] {
                continue;
            }
            // Draw through the generic bounded sampler (degree lookup +
            // `gen_range` + indexed neighbor), not `Graph::random_neighbor`:
            // the engine keeps specializing that path, and the baseline must
            // stay frozen at the seed's cost model.
            let d = graph.degree(u);
            if d > 0 {
                let v = graph.neighbor(u, rng.gen_range(0..d));
                if !informed[v] {
                    newly_informed.push(v);
                }
            }
        }
        for v in newly_informed {
            if !informed[v] {
                informed[v] = true;
                count += 1;
            }
        }
    }
    rounds
}

fn frontier_push_broadcast(graph: &Graph, source: usize, seed: u64) -> u64 {
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(seed)
        .with_max_rounds(u64::MAX);
    simulate_on(graph, source, &spec).rounds
}

fn measure<F: FnMut(u64) -> u64>(samples: u64, mut f: F) -> Duration {
    let mut total = Duration::ZERO;
    for seed in 0..samples {
        let t0 = Instant::now();
        black_box(f(seed));
        total += t0.elapsed();
    }
    total / samples as u32
}

fn hot_path(c: &mut Criterion) {
    let fast = std::env::var("RUMOR_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let family = CycleOfStarsOfCliques::with_at_least(100_000).expect("fig 1e generator");
    let source = family.a_clique_source();
    let n = family.graph().num_vertices();
    let graph = family.graph();

    // Criterion-style groups for the usual reporting…
    let samples = if fast { 1u64 } else { 5 };
    let mut group = c.benchmark_group("hot_path_push_cycle_of_stars");
    group.sample_size(samples as usize);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(20));
    let mut seed = 1000u64;
    group.bench_function("frontier_engine", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            frontier_push_broadcast(graph, source, seed)
        })
    });
    let mut seed = 2000u64;
    group.bench_function("naive_full_scan", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            naive_push_broadcast(graph, source, seed)
        })
    });
    group.finish();

    // …and an explicit paired measurement for the speedup ratio.
    let frontier = measure(samples, |s| frontier_push_broadcast(graph, source, s));
    let naive = measure(samples, |s| naive_push_broadcast(graph, source, s));
    let speedup = naive.as_secs_f64() / frontier.as_secs_f64();
    println!(
        "hot_path summary: n={n}, push full broadcast — naive {naive:.3?} vs frontier \
         {frontier:.3?} => speedup {speedup:.1}x (target >= 5x)"
    );
    record_summary_in(
        "BENCH_hot_path.json",
        "hot_path_push",
        &[
            ("n", n as f64),
            ("naive_mean_s", naive.as_secs_f64()),
            ("engine_mean_s", frontier.as_secs_f64()),
            ("speedup", speedup),
        ],
    );
    if std::env::var("RUMOR_BENCH_ENFORCE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        assert!(
            speedup >= 5.0,
            "frontier engine speedup {speedup:.1}x below the 5x target"
        );
    }

    // Scale smoke: one n = 10^6 frontier broadcast stays comfortably feasible
    // (skipped in fast mode to keep CI short).
    if !fast {
        let big = CycleOfStarsOfCliques::with_at_least(1_000_000).expect("fig 1e generator");
        let t0 = Instant::now();
        let rounds = frontier_push_broadcast(big.graph(), big.a_clique_source(), 7);
        println!(
            "hot_path scale: n={} push broadcast completed in {} rounds, {:.3?} wall-clock",
            big.graph().num_vertices(),
            rounds,
            t0.elapsed()
        );
    }
}

criterion_group!(benches, hot_path);
criterion_main!(benches);
