//! The fault-injection harness: deterministic panics, budget exhaustion,
//! simulated crashes, and checkpoint corruption driven through
//! [`FaultPlan`], pinning that every failure mode degrades into a typed
//! [`TrialOutcome`] (and a recoverable manifest) instead of a lost sweep.

use std::path::PathBuf;
use std::time::Duration;

use rumor_core::{
    simulate_resumable_in, CheckpointCadence, ProtocolKind, SimSnapshot, SimWorkspace,
    SimulationSpec,
};
use rumor_experiments::{
    run_trials, run_trials_guarded, ExperimentConfig, FaultPlan, ProtocolSetup, ScalingSweep,
    StopCause, SweepPoint, TrialOutcome, TrialPolicy,
};
use rumor_graphs::generators::{complete, star};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rumor-fault-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn injected_panic_is_absorbed_by_the_same_seed_retry() {
    let g = complete(40).unwrap();
    let cfg = ExperimentConfig::smoke().with_threads(2);
    let spec = SimulationSpec::new(ProtocolKind::Push).with_seed(50);
    let reference = run_trials(&g, 0, &spec, 6, &cfg);

    let policy = TrialPolicy {
        fault: FaultPlan {
            panic_at_trial: Some(3),
            ..FaultPlan::none()
        },
        ..TrialPolicy::new()
    };
    let guarded = run_trials_guarded(&g, 0, &spec, 6, &cfg, &policy, None);
    assert_eq!(guarded.stopped, None);
    assert_eq!(guarded.taxonomy().completed, 6);
    // The retry replays the identical seed, so the sweep result is exactly
    // the unguarded one — including the trial that panicked first.
    for (trial, (got, want)) in guarded.outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(
            got.outcome(),
            Some(want),
            "trial {trial} diverged under fault injection"
        );
    }
}

#[test]
fn exhausted_retries_yield_a_typed_outcome_without_aborting_the_sweep() {
    let g = complete(30).unwrap();
    let cfg = ExperimentConfig::smoke().with_threads(1);
    let spec = SimulationSpec::new(ProtocolKind::PushPull).with_seed(9);
    let policy = TrialPolicy {
        max_retries: 0, // the injected panic has no retry to hide behind
        fault: FaultPlan {
            panic_at_trial: Some(1),
            ..FaultPlan::none()
        },
        ..TrialPolicy::new()
    };
    let guarded = run_trials_guarded(&g, 0, &spec, 4, &cfg, &policy, None);
    let taxonomy = guarded.taxonomy();
    assert_eq!(taxonomy.completed, 3);
    assert_eq!(taxonomy.panicked, 1);
    match &guarded.outcomes[1] {
        TrialOutcome::Panicked { message, attempts } => {
            assert!(message.contains("injected fault"), "message: {message}");
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The taxonomy renders for sweep summaries.
    assert_eq!(taxonomy.to_string(), "3 completed, 1 panicked");
}

#[test]
fn expired_wall_clock_budget_suspends_into_timed_out() {
    let g = star(4_000).unwrap();
    let cfg = ExperimentConfig::smoke().with_threads(1);
    // The star keeps push busy for many rounds; a zero budget expires at
    // the very first checkpoint.
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(2)
        .with_max_rounds(1_000_000);
    let policy = TrialPolicy::new()
        .with_wall_clock(Duration::ZERO)
        .with_chunk_rounds(1);
    let guarded = run_trials_guarded(&g, 0, &spec, 2, &cfg, &policy, None);
    assert_eq!(guarded.taxonomy().timed_out, 2);
    match &guarded.outcomes[0] {
        TrialOutcome::TimedOut {
            round,
            informed_vertices,
            ..
        } => {
            assert_eq!(*round, 1);
            assert!(*informed_vertices >= 1);
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
}

#[test]
fn killed_sweep_resumes_from_its_manifest() {
    let g = complete(36).unwrap();
    let cfg = ExperimentConfig::smoke().with_threads(1);
    let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_seed(77);
    let trials = 8;
    let reference = run_trials(&g, 0, &spec, trials, &cfg);
    let dir = temp_dir("manifest");
    let manifest = dir.join("sweep.rman");

    // "Crash" after three finished trials (single worker ⇒ deterministic
    // which three).
    let crash_policy = TrialPolicy {
        fault: FaultPlan {
            stop_after_trials: Some(3),
            ..FaultPlan::none()
        },
        ..TrialPolicy::new()
    };
    let first = run_trials_guarded(&g, 0, &spec, trials, &cfg, &crash_policy, Some(&manifest));
    assert_eq!(first.stopped, Some(StopCause::InjectedStop));
    assert_eq!(first.taxonomy().completed, 3);
    assert_eq!(first.taxonomy().not_run, trials - 3);

    // The re-run must skip at least the completed fraction and finish the
    // sweep with outcomes identical to an uninterrupted run.
    let second = run_trials_guarded(
        &g,
        0,
        &spec,
        trials,
        &cfg,
        &TrialPolicy::new(),
        Some(&manifest),
    );
    assert_eq!(second.stopped, None);
    assert_eq!(second.reused_trials, 3);
    assert!(second.recovered_fraction() >= 3.0 / trials as f64);
    assert_eq!(second.taxonomy().completed, trials);
    for (trial, (got, want)) in second.outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(
            got.outcome(),
            Some(want),
            "trial {trial} diverged after manifest resume"
        );
    }

    // A manifest keyed to a *different* spec is stale: nothing is reused.
    let other_spec = spec.clone().with_seed(78);
    let fresh = run_trials_guarded(
        &g,
        0,
        &other_spec,
        trials,
        &cfg,
        &TrialPolicy::new(),
        Some(&manifest),
    );
    assert_eq!(fresh.reused_trials, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_written_on_generated_resumes_on_hub_cached() {
    // The manifest digest covers the spec, not the topology backend, and
    // the hub-cached hybrid is bit-identical to its inner generated graph —
    // so a sweep killed while running uncached can resume on the cached
    // backend (or vice versa) and land on the identical outcomes.
    use rumor_graphs::{GeneratedGraph, HubCachedGraph};
    let generated = GeneratedGraph::chung_lu(120, 2.5, 6.0, 3).unwrap();
    let cfg = ExperimentConfig::smoke().with_threads(1);
    let spec = SimulationSpec::new(ProtocolKind::MeetExchange)
        .with_seed(21)
        .with_max_rounds(3_000);
    let trials = 6;
    let reference = run_trials(&generated, 0, &spec, trials, &cfg);
    let dir = temp_dir("hub-manifest");
    let manifest = dir.join("sweep.rman");

    let crash_policy = TrialPolicy {
        fault: FaultPlan {
            stop_after_trials: Some(2),
            ..FaultPlan::none()
        },
        ..TrialPolicy::new()
    };
    let first = run_trials_guarded(
        &generated,
        0,
        &spec,
        trials,
        &cfg,
        &crash_policy,
        Some(&manifest),
    );
    assert_eq!(first.stopped, Some(StopCause::InjectedStop));
    assert_eq!(first.taxonomy().completed, 2);

    let hub = HubCachedGraph::over(generated.clone());
    let second = run_trials_guarded(
        &hub,
        0,
        &spec,
        trials,
        &cfg,
        &TrialPolicy::new(),
        Some(&manifest),
    );
    assert_eq!(second.stopped, None);
    assert_eq!(second.reused_trials, 2);
    assert_eq!(second.taxonomy().completed, trials);
    for (trial, (got, want)) in second.outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(
            got.outcome(),
            Some(want),
            "trial {trial} diverged resuming on the hub-cached backend"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_watchdog_checkpoints_then_stops_the_sweep() {
    let g = star(2_000).unwrap();
    let cfg = ExperimentConfig::smoke().with_threads(1);
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(4)
        .with_max_rounds(1_000_000);
    let dir = temp_dir("watchdog");
    // A 1-byte ceiling trips at the first checkpoint of the first trial.
    let policy = TrialPolicy {
        memory_ceiling_bytes: Some(1),
        checkpoint_dir: Some(dir.clone()),
        chunk_rounds: 1,
        ..TrialPolicy::new()
    };
    let guarded = run_trials_guarded(&g, 0, &spec, 3, &cfg, &policy, None);
    assert_eq!(guarded.stopped, Some(StopCause::MemoryCeiling));
    assert_eq!(guarded.taxonomy().not_run, 3);
    // The abort is recoverable: the tripping trial's snapshot was persisted.
    let snapshot = SimSnapshot::load_newest(&dir).unwrap();
    assert!(
        snapshot.is_some(),
        "watchdog must checkpoint before aborting"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_checkpoints_fall_back_to_the_newest_valid_one() {
    let g = complete(60).unwrap();
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(6)
        .with_max_rounds(1_000_000);
    let dir = temp_dir("corrupt");
    simulate_resumable_in(
        &g,
        0,
        &spec,
        &mut SimWorkspace::new(),
        CheckpointCadence::every_rounds(1),
        &mut |snap: &SimSnapshot| {
            snap.write_atomic(&dir).unwrap();
            true
        },
    )
    .finished()
    .unwrap();

    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 2, "need at least two checkpoints");
    let newest_valid_round = SimSnapshot::load(&files[files.len() - 2]).unwrap().round();

    // Corrupt the newest file: recovery must skip it and land on the one
    // before, not fail.
    FaultPlan::corrupt_checkpoint(files.last().unwrap()).unwrap();
    let recovered = SimSnapshot::load_newest(&dir).unwrap().unwrap();
    assert_eq!(recovered.round(), newest_valid_round);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn guarded_sweep_matches_the_plain_sweep_and_reports_taxonomy() {
    let sweep = ScalingSweep {
        points: vec![
            SweepPoint::new(star(15).unwrap(), 0),
            SweepPoint::new(star(31).unwrap(), 0),
        ],
        protocols: vec![
            ProtocolSetup::new(ProtocolKind::Push),
            ProtocolSetup::lazy(ProtocolKind::VisitExchange),
        ],
        trials: 4,
        max_rounds: 100_000,
    };
    let cfg = ExperimentConfig::smoke();
    let plain = sweep.run(&cfg);
    let guarded = sweep.run_guarded(&cfg, &TrialPolicy::new(), None);
    assert_eq!(
        plain, guarded,
        "an all-green guarded sweep must equal the plain sweep"
    );
    for m in &guarded.measurements {
        for tax in &m.taxonomy {
            assert_eq!(tax.completed, 4);
        }
    }

    // Under fault injection the sweep survives and the summary table
    // carries the taxonomy annotation.
    let policy = TrialPolicy {
        max_retries: 0,
        fault: FaultPlan {
            panic_at_trial: Some(0),
            ..FaultPlan::none()
        },
        ..TrialPolicy::new()
    };
    let faulted = sweep.run_guarded(&cfg, &policy, None);
    let total_panicked: usize = faulted
        .measurements
        .iter()
        .flat_map(|m| m.taxonomy.iter().map(|t| t.panicked))
        .sum();
    assert!(total_panicked > 0, "injected panic never fired");
    let rendered = faulted.times_table("Times").to_plain_text();
    assert!(rendered.contains("panicked"), "table:\n{rendered}");
    // The captured panic payload is rendered next to the count, so the
    // table names the cause.
    assert!(
        rendered.contains("panicked: injected fault"),
        "table:\n{rendered}"
    );
}
