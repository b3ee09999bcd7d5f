//! The tentpole contract of the fault-tolerance PR: a run resumed from any
//! checkpoint is **bit-identical** to the uninterrupted run — same rounds,
//! same messages, same informed sets, same history — on every backend
//! (CSR / implicit / generated / hub-cached), every engine, and every
//! thread count.
//!
//! Grid covered here:
//!
//! * all five sharded-supported protocols plus the combined protocol on the
//!   sequential engine,
//! * four topology backends (CSR / implicit / generated / hub-cached),
//!   resuming through fresh workspaces and through a reused one that last
//!   ran a different protocol or seed,
//! * sequential engine and sharded engine at 1/2/3/8 workers — including
//!   resuming a checkpoint under a *different* worker count than the one
//!   that wrote it (the counter-based streams re-derive from the round
//!   counter, so the snapshot stores no generator state),
//! * every checkpoint a run emits, not just one (each is resumed and must
//!   land on the reference outcome),
//! * history-recording runs (the resumed outcome must carry the full
//!   per-round curve, splicing the pre-suspend prefix),
//! * rejection paths: cross-engine resumes, wrong-spec resumes, resumes on
//!   a graph the snapshot does not fit, corrupted and truncated snapshot
//!   files,
//! * encode/decode round-trips for live mid-run snapshots (proptest).

use rumor_core::{
    resume_in, simulate_in, simulate_on, simulate_resumable_in, CheckpointCadence, Engine,
    ProtocolKind, ProtocolOptions, ResumableRun, SimSnapshot, SimWorkspace, SimulationSpec,
    SnapshotError,
};
use rumor_graphs::{GeneratedGraph, HubCachedGraph, ImplicitGraph, Topology};

const SHARDED_PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::Push,
    ProtocolKind::Pull,
    ProtocolKind::PushPull,
    ProtocolKind::VisitExchange,
    ProtocolKind::MeetExchange,
];

const ALL_PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::Push,
    ProtocolKind::Pull,
    ProtocolKind::PushPull,
    ProtocolKind::VisitExchange,
    ProtocolKind::MeetExchange,
    ProtocolKind::PushPullVisitExchange,
];

fn spec_for(kind: ProtocolKind, seed: u64, graph: &impl Topology) -> SimulationSpec {
    // A modest cap: generated instances can be disconnected, and stall
    // detection (this PR) terminates those early anyway. Equivalence is
    // pinned just as hard on truncated runs.
    SimulationSpec::new(kind)
        .with_seed(seed)
        .with_max_rounds(4_000)
        .adapted_to(graph)
}

/// Runs `spec` uninterrupted while collecting every emitted checkpoint.
fn run_collecting<G: Topology>(
    graph: &G,
    source: usize,
    spec: &SimulationSpec,
    every: u64,
) -> (rumor_core::BroadcastOutcome, Vec<SimSnapshot>) {
    let mut snapshots = Vec::new();
    let outcome = simulate_resumable_in(
        graph,
        source,
        spec,
        &mut SimWorkspace::new(),
        CheckpointCadence::every_rounds(every),
        &mut |snap: &SimSnapshot| {
            snapshots.push(snap.clone());
            true
        },
    )
    .finished()
    .expect("sink never suspends");
    (outcome, snapshots)
}

/// Resumes each of `snapshots` under `spec` and asserts each run lands on
/// exactly `reference`.
fn assert_all_resumes_match<G: Topology>(
    graph: &G,
    source: usize,
    spec: &SimulationSpec,
    snapshots: &[SimSnapshot],
    reference: &rumor_core::BroadcastOutcome,
    context: &str,
) {
    for snap in snapshots {
        let resumed = resume_in(
            graph,
            source,
            spec,
            snap,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(u64::MAX),
            &mut |_: &SimSnapshot| true,
        )
        .expect("snapshot accepted")
        .finished()
        .expect("sink never suspends");
        assert_eq!(
            &resumed,
            reference,
            "{context}: resume from round {} diverged",
            snap.round()
        );
    }
}

/// [`assert_all_resumes_match`] through one pooled `workspace`, which runs
/// a sequential decoy before every resume — alternately the same protocol
/// under another seed and `other` under the same seed — so each resume
/// restores over state the workspace left behind for a different run.
#[allow(clippy::too_many_arguments)]
fn assert_all_resumes_match_in<'g, G: Topology>(
    graph: &'g G,
    source: usize,
    spec: &SimulationSpec,
    snapshots: &[SimSnapshot],
    reference: &rumor_core::BroadcastOutcome,
    context: &str,
    other: ProtocolKind,
    workspace: &mut SimWorkspace<'g, G>,
) {
    let sequential = spec.clone().with_engine(Engine::Sequential);
    let decoys = [
        sequential.clone().with_seed(spec.seed + 1),
        SimulationSpec {
            kind: other,
            ..sequential
        }
        .adapted_to(graph),
    ];
    for (i, snap) in snapshots.iter().enumerate() {
        simulate_in(graph, source, &decoys[i % 2], workspace);
        let resumed = resume_in(
            graph,
            source,
            spec,
            snap,
            workspace,
            CheckpointCadence::every_rounds(u64::MAX),
            &mut |_: &SimSnapshot| true,
        )
        .expect("snapshot accepted")
        .finished()
        .expect("sink never suspends");
        assert_eq!(
            &resumed,
            reference,
            "{context}: reused-workspace resume from round {} diverged",
            snap.round()
        );
    }
}

#[test]
fn sequential_resume_is_bit_identical_on_all_backends() {
    let generated = GeneratedGraph::gnp(120, 0.06, 2).unwrap();
    let csr = generated.materialize().unwrap();
    let implicit = ImplicitGraph::cycle_of_stars_of_cliques(4).unwrap();
    // A partial hub cache: the highest-degree rows cached, the rest hashed.
    let hub = HubCachedGraph::with_hub_count(generated.clone(), 8);
    let mut hub_workspace = SimWorkspace::new();

    for (k, kind) in ALL_PROTOCOLS.into_iter().enumerate() {
        for seed in 0..2u64 {
            // CSR and generated backends share a spec (same degrees ⇒ same
            // adaptation); the implicit family gets its own.
            let spec = spec_for(kind, seed, &generated);
            let reference = simulate_on(&csr, 3, &spec);
            let (direct, snapshots) = run_collecting(&csr, 3, &spec, 3);
            assert_eq!(direct, reference, "{kind}: checkpointing changed the run");
            assert!(
                !snapshots.is_empty() || reference.rounds < 3,
                "{kind}: no checkpoint emitted (run took {} rounds)",
                reference.rounds
            );
            assert_all_resumes_match(&csr, 3, &spec, &snapshots, &reference, "csr");

            let (gen_direct, gen_snapshots) = run_collecting(&generated, 3, &spec, 3);
            assert_eq!(gen_direct, reference, "{kind}: generated backend diverged");
            assert_all_resumes_match(
                &generated,
                3,
                &spec,
                &gen_snapshots,
                &reference,
                "generated",
            );

            let (hub_direct, hub_snapshots) = run_collecting(&hub, 3, &spec, 3);
            assert_eq!(hub_direct, reference, "{kind}: hub-cached backend diverged");
            assert_all_resumes_match(&hub, 3, &spec, &hub_snapshots, &reference, "hub-cached");
            assert_all_resumes_match_in(
                &hub,
                3,
                &spec,
                &snapshots,
                &reference,
                "hub-cached",
                ALL_PROTOCOLS[(k + 1) % ALL_PROTOCOLS.len()],
                &mut hub_workspace,
            );

            let ispec = spec_for(kind, seed, &implicit);
            let ireference = simulate_on(&implicit, 0, &ispec);
            let (idirect, isnapshots) = run_collecting(&implicit, 0, &ispec, 3);
            assert_eq!(idirect, ireference, "{kind}: implicit backend diverged");
            assert_all_resumes_match(&implicit, 0, &ispec, &isnapshots, &ireference, "implicit");
        }
    }
}

#[test]
fn sharded_resume_is_bit_identical_at_every_thread_count() {
    let generated = GeneratedGraph::gnp(120, 0.06, 4).unwrap();
    let csr = generated.materialize().unwrap();
    let hub = HubCachedGraph::with_hub_count(generated.clone(), 8);
    let mut hub_workspace = SimWorkspace::new();

    for (k, kind) in SHARDED_PROTOCOLS.into_iter().enumerate() {
        let spec = spec_for(kind, 7, &generated).with_sharded(1);
        let reference = simulate_on(&csr, 5, &spec);
        // Checkpoints written at 2 workers…
        let (direct, snapshots) = run_collecting(&csr, 5, &spec.clone().with_sharded(2), 3);
        assert_eq!(
            direct, reference,
            "{kind}: sharded run not thread-invariant"
        );
        assert!(
            !snapshots.is_empty(),
            "{kind}: no checkpoint emitted (run took {} rounds)",
            reference.rounds
        );
        let (hub_direct, _) = run_collecting(&hub, 5, &spec.clone().with_sharded(2), 3);
        assert_eq!(
            hub_direct, reference,
            "{kind}: hub-cached sharded run diverged"
        );
        // …must resume bit-identically at every worker count (the snapshot
        // stores no generator state; worker count is not in the digest).
        for threads in [1usize, 2, 3, 8] {
            let resume_spec = spec.clone().with_sharded(threads);
            assert_all_resumes_match(
                &csr,
                5,
                &resume_spec,
                &snapshots,
                &reference,
                &format!("sharded t={threads}"),
            );
            assert_all_resumes_match(
                &generated,
                5,
                &resume_spec,
                &snapshots,
                &reference,
                &format!("sharded generated t={threads}"),
            );
            assert_all_resumes_match_in(
                &hub,
                5,
                &resume_spec,
                &snapshots,
                &reference,
                &format!("sharded hub-cached t={threads}"),
                ALL_PROTOCOLS[(k + 1) % ALL_PROTOCOLS.len()],
                &mut hub_workspace,
            );
        }
    }
}

#[test]
fn suspended_run_resumes_to_the_reference_outcome() {
    let graph = ImplicitGraph::double_star(40).unwrap();
    for kind in ALL_PROTOCOLS {
        let spec = spec_for(kind, 11, &graph).with_max_rounds(500_000);
        let reference = simulate_on(&graph, 0, &spec);
        let suspended = simulate_resumable_in(
            &graph,
            0,
            &spec,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(2),
            &mut |_: &SimSnapshot| false, // suspend at the first checkpoint
        );
        let snapshot = match suspended {
            ResumableRun::Suspended(s) => s,
            ResumableRun::Finished(o) => {
                // Degenerate: the run finished before the first checkpoint.
                assert_eq!(o, reference);
                continue;
            }
        };
        assert!(snapshot.round() < reference.rounds);
        let resumed = resume_in(
            &graph,
            0,
            &spec,
            &snapshot,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(u64::MAX),
            &mut |_: &SimSnapshot| true,
        )
        .unwrap()
        .finished()
        .unwrap();
        assert_eq!(resumed, reference, "{kind}: suspended resume diverged");
    }
}

#[test]
fn history_recording_survives_resume() {
    let generated = GeneratedGraph::gnp(90, 0.08, 1).unwrap();
    for kind in [ProtocolKind::Push, ProtocolKind::VisitExchange] {
        for engine_spec in [
            spec_for(kind, 3, &generated),
            spec_for(kind, 3, &generated).with_sharded(3),
        ] {
            let spec = engine_spec.with_options(ProtocolOptions::with_history());
            let reference = simulate_on(&generated, 0, &spec);
            assert_eq!(reference.history.len() as u64, reference.rounds);
            let (_, snapshots) = run_collecting(&generated, 0, &spec, 4);
            for snap in &snapshots {
                let resumed = resume_in(
                    &generated,
                    0,
                    &spec,
                    snap,
                    &mut SimWorkspace::new(),
                    CheckpointCadence::every_rounds(u64::MAX),
                    &mut |_: &SimSnapshot| true,
                )
                .unwrap()
                .finished()
                .unwrap();
                assert_eq!(
                    resumed,
                    reference,
                    "{kind}: resumed history diverged from round {}",
                    snap.round()
                );
            }
        }
    }
}

#[test]
fn cross_engine_and_wrong_spec_resumes_are_rejected() {
    let graph = ImplicitGraph::star(60).unwrap();
    let seq_spec = spec_for(ProtocolKind::Push, 5, &graph);
    let sharded_spec = seq_spec.clone().with_sharded(2);

    let (_, seq_snaps) = run_collecting(&graph, 0, &seq_spec, 2);
    let (_, sharded_snaps) = run_collecting(&graph, 0, &sharded_spec, 2);
    let seq_snap = seq_snaps.first().expect("sequential checkpoint");
    let sharded_snap = sharded_snaps.first().expect("sharded checkpoint");

    let reject = |spec: &SimulationSpec, snap: &SimSnapshot| {
        let err = resume_in(
            &graph,
            0,
            spec,
            snap,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(u64::MAX),
            &mut |_: &SimSnapshot| true,
        )
        .expect_err("mismatched resume must be rejected");
        assert!(
            matches!(err, SnapshotError::SpecMismatch { .. }),
            "unexpected rejection: {err}"
        );
    };
    // Engine contract is part of the digest: snapshots never cross engines.
    reject(&sharded_spec, seq_snap);
    reject(&seq_spec, sharded_snap);
    // So are seed and protocol kind.
    reject(&seq_spec.clone().with_seed(6), seq_snap);
    reject(&spec_for(ProtocolKind::Pull, 5, &graph), seq_snap);

    // Snapshots store no topology, so the digest cannot tell graphs apart:
    // a snapshot whose ids do not fit the graph it is resumed on is
    // rejected before either engine restores it.
    let big = ImplicitGraph::complete(200).unwrap();
    let small = ImplicitGraph::complete(100).unwrap();
    for spec in [
        spec_for(ProtocolKind::Push, 5, &big),
        spec_for(ProtocolKind::Push, 5, &big).with_sharded(2),
        spec_for(ProtocolKind::VisitExchange, 5, &big),
    ] {
        let (_, snaps) = run_collecting(&big, 0, &spec, 1);
        let snap = snaps.last().expect("checkpoint on the larger graph");
        let err = resume_in(
            &small,
            0,
            &spec,
            snap,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(u64::MAX),
            &mut |_: &SimSnapshot| true,
        )
        .expect_err("a snapshot from a larger graph must be rejected");
        assert!(
            matches!(err, SnapshotError::DoesNotFit { .. }),
            "unexpected rejection: {err}"
        );
    }

    // But the round cap is deliberately *not*: a capped run may be resumed
    // with a higher cap, and the sharded worker count may change freely.
    let extended = seq_spec.clone().with_max_rounds(1_000_000);
    assert!(resume_in(
        &graph,
        0,
        &extended,
        seq_snap,
        &mut SimWorkspace::new(),
        CheckpointCadence::every_rounds(u64::MAX),
        &mut |_: &SimSnapshot| true,
    )
    .is_ok());
}

#[test]
fn snapshot_files_round_trip_and_reject_corruption() {
    let graph = ImplicitGraph::complete(40).unwrap();
    let spec = spec_for(ProtocolKind::PushPull, 9, &graph);
    let (_, snapshots) = run_collecting(&graph, 0, &spec, 1);
    let snap = snapshots.first().expect("checkpoint");

    let dir = std::env::temp_dir().join(format!("rumor-ckpt-test-{}", std::process::id()));
    let path = snap.write_atomic(&dir).unwrap();
    assert_eq!(&SimSnapshot::load(&path).unwrap(), snap);
    assert_eq!(SimSnapshot::load_newest(&dir).unwrap().as_ref(), Some(snap));

    // Corrupt one payload byte: the checksum must catch it.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        SimSnapshot::load(&path),
        Err(SnapshotError::ChecksumMismatch | SnapshotError::Truncated)
    ));

    // Truncate: rejected, and `load_newest` skips it in favor of an older
    // valid file (crash-mid-write recovery).
    bytes.truncate(mid);
    bytes[mid - 1] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    assert!(SimSnapshot::load(&path).is_err());
    assert_eq!(SimSnapshot::load_newest(&dir).unwrap(), None);
    std::fs::remove_dir_all(&dir).ok();
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Live mid-run snapshots encode/decode losslessly for every
        /// protocol, and any single flipped payload bit is detected.
        #[test]
        fn live_snapshots_round_trip(
            n in 20usize..80,
            seed in 0u64..200,
            kind_idx in 0usize..ALL_PROTOCOLS.len(),
            flip in 8usize..64,
        ) {
            let graph = GeneratedGraph::gnp(n, 0.15, seed).unwrap();
            let spec = spec_for(ALL_PROTOCOLS[kind_idx], seed, &graph);
            let (_, snapshots) = run_collecting(&graph, n / 2, &spec, 1);
            for snap in snapshots.iter().take(4) {
                let bytes = snap.to_bytes();
                let decoded = SimSnapshot::from_bytes(&bytes).unwrap();
                prop_assert_eq!(&decoded, snap);
                let mut corrupt = bytes.clone();
                let at = flip % corrupt.len().max(1);
                corrupt[at] ^= 0x04;
                prop_assert!(SimSnapshot::from_bytes(&corrupt).is_err());
            }
        }
    }
}
