//! SCALE — pins the implicit-topology memory wins and the workspace-reuse
//! sweep speedup, and smoke-tests giant-instance broadcasts.
//!
//! Three measurements, all recorded in `BENCH_scale.json` (unified schema,
//! with `peak_rss_bytes` stamped on every entry):
//!
//! * **Memory footprint** — `memory_bytes` of the CSR build vs the implicit
//!   build of the same Fig. 1(e) cycle-of-stars-of-cliques at n ≈ 10⁵.
//!   Target: implicit ≥ 20× smaller (measured: ~10⁵–10⁶× — the implicit
//!   backend stores three machine words).
//! * **Sweep speedup** — 100-trial push sweeps through the pooled-workspace
//!   runner ([`rumor_experiments::run_trials`]: one spec clone per worker,
//!   protocol state `reset()` between trials, adaptively *undoing* a
//!   windowed trial's sliver instead of refilling O(n) arrays) vs the
//!   frozen pre-workspace cost model (per-trial `spec.clone()` + fresh
//!   construction, the seed runner's loop preserved verbatim below).
//!   Measured two ways: a 16-round *windowed* sweep at n ≈ 10⁶ (the shape
//!   of time-to-fraction / lower-bound experiments, where per-trial setup
//!   dominates — target ≥ 1.5×) and the full-broadcast sweep at n ≈ 10⁵
//!   (honest end-to-end ratio; setup is a small fraction of a long
//!   broadcast, so this hovers near 1×).
//! * **Scale smoke** — a full push broadcast on the n ≈ 10⁷ implicit
//!   cycle-of-stars (runs on every invocation; this is the CI scale job),
//!   and — only under `RUMOR_BENCH_SCALE_HUGE=1` — the n ≈ 10⁸ paper-scale
//!   instance, whose CSR build is unrepresentable (adjacency would exceed
//!   `u32` indexing) and which must stay under 4 GB resident implicitly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rumor_bench::summary::{peak_rss_bytes, record_summary_in};
use rumor_core::{simulate_on, ProtocolKind, SimulationSpec};
use rumor_experiments::{run_trials, ExperimentConfig};
use rumor_graphs::{ImplicitGraph, Topology};

/// The frozen pre-workspace sweep loop: one `spec.clone()` **per trial** and
/// a fresh simulation (fresh bitsets, frontiers, buffers) every time. This
/// is the cost model `run_trials` had before the pooled `SimWorkspace`;
/// preserved verbatim as the measurement baseline.
fn fresh_sweep<G: Topology>(graph: &G, source: usize, spec: &SimulationSpec, trials: usize) -> u64 {
    let mut total_rounds = 0u64;
    for trial in 0..trials {
        let trial_spec = spec.clone().with_seed(spec.seed.wrapping_add(trial as u64));
        total_rounds += simulate_on(graph, source, &trial_spec).rounds;
    }
    total_rounds
}

/// The pooled path: `run_trials` with one worker (so the comparison isolates
/// workspace reuse, not parallelism).
fn pooled_sweep<G: Topology>(
    graph: &G,
    source: usize,
    spec: &SimulationSpec,
    trials: usize,
) -> u64 {
    let cfg = ExperimentConfig::smoke().with_threads(1);
    run_trials(graph, source, spec, trials, &cfg)
        .into_iter()
        .map(|o| o.rounds)
        .sum()
}

fn measure<F: FnMut() -> u64>(samples: u64, mut f: F) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let t0 = Instant::now();
        black_box(f());
        total += t0.elapsed();
    }
    total / samples as u32
}

fn enforce() -> bool {
    std::env::var("RUMOR_BENCH_ENFORCE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn main() {
    let fast = std::env::var("RUMOR_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);

    // ---- Memory footprint: CSR vs implicit on the same instance. ----
    let implicit = ImplicitGraph::cycle_of_stars_with_at_least(100_000).expect("fig 1e family");
    let n = implicit.num_vertices();
    let source = {
        // First clique-interior vertex q_{0,0,0} (Lemma 9's source choice):
        // m + m^2 in the generator's numbering.
        let m = implicit.parameter();
        m + m * m
    };
    let csr = implicit.materialize().expect("n ~ 1e5 fits in memory");
    let memory_ratio = csr.memory_bytes() as f64 / implicit.memory_bytes() as f64;
    println!(
        "scale memory: n={n} cycle-of-stars — CSR {} bytes vs implicit {} bytes => {:.0}x \
         (target >= 20x)",
        csr.memory_bytes(),
        implicit.memory_bytes(),
        memory_ratio
    );
    record_summary_in(
        "BENCH_scale.json",
        "scale_memory_cycle_of_stars",
        &[
            ("n", n as f64),
            ("csr_memory_bytes", csr.memory_bytes() as f64),
            ("implicit_memory_bytes", implicit.memory_bytes() as f64),
            ("memory_ratio", memory_ratio),
        ],
    );
    if enforce() {
        assert!(
            memory_ratio >= 20.0,
            "implicit memory ratio {memory_ratio:.1}x below the 20x target"
        );
    }

    // ---- Sweep speedup: pooled workspace vs frozen fresh-per-trial. ----
    //
    // The windowed sweep is the early-phase / lower-bound experiment shape
    // (fixed round budget, many seeds) at n ~ 10⁶, where per-trial setup is
    // the dominant cost — exactly what the pooled workspace's undo-reset
    // eliminates. The full-broadcast sweep at n ~ 10⁵ is the honest
    // end-to-end companion number (there the run itself dominates).
    let trials = 100usize;
    let window_rounds = 16u64;
    let sweep_graph =
        ImplicitGraph::cycle_of_stars_with_at_least(1_000_000).expect("fig 1e family");
    let sweep_n = sweep_graph.num_vertices();
    let sweep_source = {
        let m = sweep_graph.parameter();
        m + m * m
    };
    let windowed = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(500)
        .with_max_rounds(window_rounds);
    let full = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(900)
        .with_max_rounds(u64::MAX);
    let samples = if fast { 1u64 } else { 5 };

    // Sanity: pooling must not change a single outcome.
    assert_eq!(
        pooled_sweep(&sweep_graph, sweep_source, &windowed, 10),
        fresh_sweep(&sweep_graph, sweep_source, &windowed, 10),
        "workspace reuse changed sweep outcomes"
    );

    let pooled_w = measure(samples, || {
        pooled_sweep(&sweep_graph, sweep_source, &windowed, trials)
    });
    let fresh_w = measure(samples, || {
        fresh_sweep(&sweep_graph, sweep_source, &windowed, trials)
    });
    let windowed_speedup = fresh_w.as_secs_f64() / pooled_w.as_secs_f64();
    let pooled_f = measure(samples, || pooled_sweep(&implicit, source, &full, trials));
    let fresh_f = measure(samples, || fresh_sweep(&implicit, source, &full, trials));
    let full_speedup = fresh_f.as_secs_f64() / pooled_f.as_secs_f64();
    println!(
        "scale sweep: {trials}-trial push — windowed({window_rounds}r, n={sweep_n}) fresh \
         {fresh_w:.3?} vs pooled {pooled_w:.3?} => {windowed_speedup:.2}x (target >= 1.5x); \
         full broadcast (n={n}) fresh {fresh_f:.3?} vs pooled {pooled_f:.3?} => \
         {full_speedup:.2}x"
    );
    record_summary_in(
        "BENCH_scale.json",
        "scale_sweep_workspace_reuse",
        &[
            ("windowed_n", sweep_n as f64),
            ("full_n", n as f64),
            ("trials", trials as f64),
            ("windowed_rounds", window_rounds as f64),
            ("windowed_fresh_mean_s", fresh_w.as_secs_f64()),
            ("windowed_pooled_mean_s", pooled_w.as_secs_f64()),
            ("windowed_speedup", windowed_speedup),
            ("full_fresh_mean_s", fresh_f.as_secs_f64()),
            ("full_pooled_mean_s", pooled_f.as_secs_f64()),
            ("full_speedup", full_speedup),
        ],
    );
    if enforce() {
        assert!(
            windowed_speedup >= 1.5,
            "windowed sweep speedup {windowed_speedup:.2}x below the 1.5x target"
        );
    }

    // ---- Scale smoke: n ~ 1e7 implicit push broadcast (the CI budget). ----
    let big = ImplicitGraph::cycle_of_stars_with_at_least(10_000_000).expect("fig 1e family");
    let big_source = {
        let m = big.parameter();
        m + m * m
    };
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(7)
        .with_max_rounds(u64::MAX);
    let t0 = Instant::now();
    let outcome = simulate_on(&big, big_source, &spec);
    let wall = t0.elapsed();
    assert!(outcome.completed, "1e7 push broadcast truncated");
    println!(
        "scale smoke: n={} implicit push broadcast — {} rounds in {:.3?}, peak RSS {} MiB \
         (graph: {} bytes)",
        big.num_vertices(),
        outcome.rounds,
        wall,
        peak_rss_bytes() >> 20,
        big.memory_bytes()
    );
    record_summary_in(
        "BENCH_scale.json",
        "scale_smoke_push_1e7",
        &[
            ("n", big.num_vertices() as f64),
            ("rounds", outcome.rounds as f64),
            ("wall_s", wall.as_secs_f64()),
            ("implicit_memory_bytes", big.memory_bytes() as f64),
        ],
    );

    // ---- The paper-scale giant: n ~ 1e8, opt-in (minutes of runtime). ----
    if std::env::var("RUMOR_BENCH_SCALE_HUGE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        let giant = ImplicitGraph::cycle_of_stars_with_at_least(100_000_000).expect("fig 1e");
        let giant_source = {
            let m = giant.parameter();
            m + m * m
        };
        assert!(
            2 * giant.num_edges() > u32::MAX as usize,
            "the giant's CSR build would be representable — not a scale witness"
        );
        let t0 = Instant::now();
        let outcome = simulate_on(&giant, giant_source, &spec);
        let wall = t0.elapsed();
        let rss = peak_rss_bytes();
        assert!(outcome.completed, "1e8 push broadcast truncated");
        println!(
            "scale giant: n={} implicit push broadcast — {} rounds in {:.3?}, peak RSS {} MiB \
             (target < 4096 MiB)",
            giant.num_vertices(),
            outcome.rounds,
            wall,
            rss >> 20
        );
        record_summary_in(
            "BENCH_scale.json",
            "scale_giant_push_1e8",
            &[
                ("n", giant.num_vertices() as f64),
                ("rounds", outcome.rounds as f64),
                ("wall_s", wall.as_secs_f64()),
                ("implicit_memory_bytes", giant.memory_bytes() as f64),
            ],
        );
        if enforce() {
            assert!(
                rss < 4 << 30,
                "1e8 broadcast peak RSS {rss} bytes exceeds the 4 GB budget"
            );
        }
    }
}
