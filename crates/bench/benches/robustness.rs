//! ROBUSTNESS — pins the cost of fault tolerance.
//!
//! All measurements are recorded in `BENCH_robust.json` (unified schema,
//! `peak_rss_bytes` stamped on every entry):
//!
//! * **Checkpoint overhead** — a full push broadcast on a 10⁶-vertex
//!   G(n, p) run plain vs through the resumable engine with a 10-round
//!   checkpoint cadence (cadence checks every round, snapshots only when
//!   due; the ~40-round broadcast takes several). Target under
//!   `RUMOR_BENCH_ENFORCE=1`: ≤ 5% wall-clock overhead; the run must take
//!   at least one snapshot whether or not the target is enforced.
//! * **Snapshot serialization** — encode/decode wall-clock and byte size
//!   of a live 10⁶-vertex snapshot (written at a dense cadence so the
//!   capture path is actually exercised).
//! * **Killed-sweep recovery** — a guarded sweep with a manifest is
//!   stopped halfway and re-run; the skip fraction of the resumed sweep
//!   must cover at least the completed fraction of the killed one
//!   (enforced, fraction recorded).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rumor_bench::summary::{peak_rss_bytes, record_summary_in};
use rumor_core::{
    simulate_on, simulate_resumable_in, CheckpointCadence, ProtocolKind, SimSnapshot, SimWorkspace,
    SimulationSpec,
};
use rumor_experiments::{run_trials_guarded, ExperimentConfig, FaultPlan, Scale, TrialPolicy};
use rumor_graphs::GeneratedGraph;

fn enforce() -> bool {
    std::env::var("RUMOR_BENCH_ENFORCE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Minimum wall-clock of `reps` runs of `f` — the noise-robust estimator
/// for overhead ratios.
fn min_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn robustness(_c: &mut Criterion) {
    let n = 1_000_000usize;
    // d̄ = 40 as in the random-topologies bench: comfortably past the
    // connectivity threshold (ln 10⁶ ≈ 13.8), so push always completes.
    let graph = GeneratedGraph::gnp_with_mean_degree(n, 40.0, 21).expect("gnp generator");
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(9)
        .with_max_rounds(10_000);
    let reps = 3;

    // ---- Checkpoint overhead at a cadence that fires mid-broadcast. ----
    const CADENCE_ROUNDS: u64 = 10;
    // The two sides alternate rep by rep, so a change in host load during
    // the measurement shifts both minima alike instead of only the later one.
    let (mut plain_s, mut checkpointed_s) = (f64::INFINITY, f64::INFINITY);
    let mut checkpoints = 0u64;
    for _ in 0..reps {
        plain_s = plain_s.min(min_seconds(1, || {
            let outcome = simulate_on(&graph, 0, &spec);
            assert!(outcome.completed, "reference broadcast truncated");
        }));
        checkpoints = 0;
        checkpointed_s = checkpointed_s.min(min_seconds(1, || {
            let run = simulate_resumable_in(
                &graph,
                0,
                &spec,
                &mut SimWorkspace::new(),
                CheckpointCadence::every_rounds(CADENCE_ROUNDS),
                &mut |_snapshot: &SimSnapshot| {
                    checkpoints += 1;
                    true
                },
            );
            assert!(run.finished().is_some_and(|o| o.completed));
        }));
    }
    let overhead_pct = 100.0 * (checkpointed_s / plain_s - 1.0);
    println!(
        "robust checkpoint overhead: n=1e6 push — plain {plain_s:.3}s vs resumable \
         {checkpointed_s:.3}s at {CADENCE_ROUNDS}-round cadence ({checkpoints} snapshots) => \
         {overhead_pct:+.2}% (target <= 5%)"
    );
    record_summary_in(
        "BENCH_robust.json",
        "robust_checkpoint_overhead_1e6",
        &[
            ("n", n as f64),
            ("plain_s", plain_s),
            ("checkpointed_s", checkpointed_s),
            ("cadence_rounds", CADENCE_ROUNDS as f64),
            ("snapshots", checkpoints as f64),
            ("overhead_pct", overhead_pct),
        ],
    );
    // An overhead bound is only meaningful if checkpoints were taken.
    assert!(
        checkpoints >= 1,
        "the resumable run took no snapshot at a {CADENCE_ROUNDS}-round cadence"
    );
    if enforce() {
        assert!(
            overhead_pct <= 5.0,
            "checkpoint overhead {overhead_pct:.2}% exceeds the 5% budget"
        );
    }

    // ---- Snapshot encode/decode at a cadence that actually captures. ----
    let mut last: Option<SimSnapshot> = None;
    let capture_s = min_seconds(1, || {
        let run = simulate_resumable_in(
            &graph,
            0,
            &spec,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(4),
            &mut |snapshot: &SimSnapshot| {
                last = Some(snapshot.clone());
                true
            },
        );
        assert!(run.finished().is_some_and(|o| o.completed));
    });
    let snapshot = last.expect("dense cadence must capture at least one snapshot");
    let encode_s = min_seconds(5, || {
        std::hint::black_box(snapshot.to_bytes());
    });
    let bytes = snapshot.to_bytes();
    let decode_s = min_seconds(5, || {
        std::hint::black_box(SimSnapshot::from_bytes(&bytes).expect("round-trip"));
    });
    println!(
        "robust snapshot: round {} of the 1e6 run — {} bytes, encode {:.1}ms, decode {:.1}ms \
         (checkpointed run {capture_s:.3}s at 4-round cadence)",
        snapshot.round(),
        bytes.len(),
        encode_s * 1e3,
        decode_s * 1e3,
    );
    record_summary_in(
        "BENCH_robust.json",
        "robust_snapshot_serialization_1e6",
        &[
            ("n", n as f64),
            ("snapshot_bytes", bytes.len() as f64),
            ("snapshot_round", snapshot.round() as f64),
            ("encode_s", encode_s),
            ("decode_s", decode_s),
        ],
    );

    // ---- Killed-sweep recovery through the manifest. ----
    let trials = 12usize;
    let stop_after = trials / 2;
    let sweep_graph =
        GeneratedGraph::gnp_with_mean_degree(100_000, 40.0, 2).expect("gnp generator");
    let sweep_spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(5)
        .with_max_rounds(10_000);
    // One worker makes the kill point (and therefore the enforced skip
    // fraction) deterministic.
    let config = ExperimentConfig::new(Scale::Smoke).with_threads(1);
    let dir = std::env::temp_dir().join(format!("rumor-bench-robust-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("manifest dir");
    let manifest = dir.join("sweep.rman");
    let kill_policy = TrialPolicy {
        fault: FaultPlan {
            stop_after_trials: Some(stop_after),
            ..FaultPlan::none()
        },
        ..TrialPolicy::new()
    };
    let t0 = Instant::now();
    let killed = run_trials_guarded(
        &sweep_graph,
        0,
        &sweep_spec,
        trials,
        &config,
        &kill_policy,
        Some(&manifest),
    );
    let killed_s = t0.elapsed().as_secs_f64();
    let completed_fraction = killed.taxonomy().completed as f64 / trials as f64;
    let t1 = Instant::now();
    let resumed = run_trials_guarded(
        &sweep_graph,
        0,
        &sweep_spec,
        trials,
        &config,
        &TrialPolicy::new(),
        Some(&manifest),
    );
    let resumed_s = t1.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();
    let skip_fraction = resumed.recovered_fraction();
    println!(
        "robust killed-sweep recovery: {trials}-trial sweep killed after {} completed \
         ({killed_s:.2}s); resume skipped {:.0}% of the trials and finished in {resumed_s:.2}s \
         (peak RSS {} MiB)",
        killed.taxonomy().completed,
        100.0 * skip_fraction,
        peak_rss_bytes() >> 20,
    );
    record_summary_in(
        "BENCH_robust.json",
        "robust_killed_sweep_recovery",
        &[
            ("trials", trials as f64),
            ("killed_completed", killed.taxonomy().completed as f64),
            ("killed_s", killed_s),
            ("resumed_s", resumed_s),
            ("skip_fraction", skip_fraction),
        ],
    );
    assert_eq!(
        resumed.taxonomy().completed,
        trials,
        "resume must finish the sweep"
    );
    if enforce() {
        assert!(
            skip_fraction >= completed_fraction,
            "resume skipped {skip_fraction:.2} of the sweep, less than the completed \
             fraction {completed_fraction:.2}"
        );
    }
}

criterion_group!(benches, robustness);
criterion_main!(benches);
