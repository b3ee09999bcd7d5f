//! Parallel execution of repeated simulation trials.
//!
//! Every trial of every caller — [`run_trials`], [`run_trials_guarded`],
//! both [`ScalingSweep`](crate::ScalingSweep) paths, and the serve
//! scheduler — runs under one policy, defined here: a panicking attempt is
//! replayed with the same seed up to [`TrialPolicy::max_retries`] times
//! before the trial reports [`TrialOutcome::Panicked`], finished and
//! suspended runs map to [`TrialOutcome`]s through one pair of
//! constructors, and a spec-keyed manifest is recovered and rewritten by
//! one type. [`run_trials`] is [`run_trials_guarded`] with no retry, no
//! budget and no manifest.
//!
//! Trials are distributed with a lock-free ticket counter: workers claim the
//! next trial index with a single `fetch_add` and write the outcome into that
//! trial's pre-allocated result slot, so there is no shared queue, no mutex,
//! and no contention beyond the one atomic increment per trial. Results come
//! back ordered by trial index regardless of which worker ran what, which is
//! what makes single- and multi-threaded runs bit-identical.
//!
//! Per-trial heap churn is designed out: the graph (any [`Topology`]
//! backend — the runner is generic) is built once per sweep point by the
//! caller, each worker clones the spec **once** and only rewrites its seed
//! per trial, and each worker owns a pooled
//! [`SimWorkspace`](rumor_core::SimWorkspace) whose protocol state (bitsets,
//! frontiers, occupancy arrays, touched lists) is `reset()` rather than
//! reallocated between trials — reset is pinned bit-identical to fresh
//! construction, so pooling never changes an outcome.
//!
//! Worker counts are budgeted by [`ExperimentConfig::resolved_workers`]
//! (`min(threads, trials, available_parallelism)`), and nested parallelism
//! is budgeted against the same pool: a spec that selects the sharded
//! engine with auto thread count gets `total budget / trial workers` shards
//! per trial, so `trials × shards` never oversubscribes the machine. The
//! sharded engine is thread-invariant, so this budgeting never changes
//! results — only wall-clock.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use rumor_core::{
    simulate_in, simulate_resumable_in, BroadcastOutcome, CheckpointCadence, Engine, ResumableRun,
    SimSnapshot, SimWorkspace, SimulationSpec,
};
use rumor_graphs::{Topology, VertexId};

use crate::config::ExperimentConfig;

/// Runs `trials` independent simulations of `spec` (seeds
/// `spec.seed, spec.seed + 1, …`) on `graph`, distributing them over the
/// configured worker threads, and returns the outcomes ordered by trial index.
///
/// Each trial is a pure function of its derived seed, so the result is
/// independent of the thread count and of scheduling order. This is
/// [`run_trials_guarded`] with no retry, no budget and no manifest.
///
/// # Panics
///
/// Panics if `trials == 0`, if `source` is out of range, or if any trial
/// panics; the panic names the lowest-index panicked trial and carries its
/// message.
///
/// # Examples
///
/// ```
/// use rumor_core::{ProtocolKind, SimulationSpec};
/// use rumor_experiments::{run_trials, ExperimentConfig};
/// use rumor_graphs::generators::complete;
///
/// let g = complete(32)?;
/// let cfg = ExperimentConfig::smoke();
/// let outcomes = run_trials(&g, 0, &SimulationSpec::new(ProtocolKind::Push), 8, &cfg);
/// assert_eq!(outcomes.len(), 8);
/// assert!(outcomes.iter().all(|o| o.completed));
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub fn run_trials<G: Topology>(
    graph: &G,
    source: VertexId,
    spec: &SimulationSpec,
    trials: usize,
    config: &ExperimentConfig,
) -> Vec<BroadcastOutcome> {
    let no_retry = TrialPolicy {
        max_retries: 0,
        ..TrialPolicy::new()
    };
    run_trials_guarded(graph, source, spec, trials, config, &no_retry, None)
        .outcomes
        .into_iter()
        .enumerate()
        .map(|(trial, outcome)| match outcome {
            TrialOutcome::Completed(o) | TrialOutcome::RoundCapped(o) => o,
            TrialOutcome::Panicked { message, .. } => panic!("trial {trial} panicked: {message}"),
            other => unreachable!("trial {trial} ended {other:?} with no budget or stop armed"),
        })
        .collect()
}

/// Convenience wrapper around [`run_trials`] returning only the broadcast
/// times (the round cap is used for runs that did not complete, mirroring the
/// truncated-mean convention of the walk estimators).
pub fn broadcast_times<G: Topology>(
    graph: &G,
    source: VertexId,
    spec: &SimulationSpec,
    trials: usize,
    config: &ExperimentConfig,
) -> Vec<u64> {
    run_trials(graph, source, spec, trials, config)
        .into_iter()
        .map(|o| o.rounds)
        .collect()
}

// ---------------------------------------------------------------------------
// Fault-tolerant trial running
// ---------------------------------------------------------------------------

/// The typed result of one guarded trial (see [`run_trials_guarded`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrialOutcome {
    /// The broadcast completed within every budget.
    Completed(BroadcastOutcome),
    /// The run terminated without completing (round cap, or stall detection
    /// on a disconnected instance).
    RoundCapped(BroadcastOutcome),
    /// The per-trial wall-clock budget expired; the fields report the state
    /// at the suspension checkpoint.
    TimedOut {
        /// Round at which the trial was suspended.
        round: u64,
        /// Informed vertices at suspension.
        informed_vertices: usize,
        /// Informed agents at suspension.
        informed_agents: usize,
        /// Messages sent up to suspension.
        messages: u64,
    },
    /// Every attempt (the original plus the deterministic same-seed
    /// replays) panicked.
    Panicked {
        /// The last panic payload, rendered as text.
        message: String,
        /// Number of attempts made.
        attempts: u32,
    },
    /// The sweep stopped (memory ceiling or injected stop) before this
    /// trial could run.
    NotRun,
}

impl TrialOutcome {
    /// The finished [`BroadcastOutcome`], if the trial produced one.
    pub fn outcome(&self) -> Option<&BroadcastOutcome> {
        match self {
            TrialOutcome::Completed(o) | TrialOutcome::RoundCapped(o) => Some(o),
            _ => None,
        }
    }

    /// The outcome of a run that finished: completed, or round-capped.
    pub(crate) fn finished(outcome: BroadcastOutcome) -> Self {
        if outcome.completed {
            TrialOutcome::Completed(outcome)
        } else {
            TrialOutcome::RoundCapped(outcome)
        }
    }

    /// The outcome of a run whose budget expired, reporting the state at
    /// its suspension `snapshot`.
    pub(crate) fn suspended(snapshot: &SimSnapshot) -> Self {
        TrialOutcome::TimedOut {
            round: snapshot.round(),
            informed_vertices: snapshot.informed_vertex_count(),
            informed_agents: snapshot.informed_agent_count(),
            messages: snapshot.messages_total(),
        }
    }

    /// The status name of this outcome in manifest records and wire trial
    /// lines.
    pub(crate) fn status(&self) -> &'static str {
        match self {
            TrialOutcome::Completed(_) => "completed",
            TrialOutcome::RoundCapped(_) => "round-capped",
            TrialOutcome::TimedOut { .. } => "timed-out",
            TrialOutcome::Panicked { .. } => "panicked",
            TrialOutcome::NotRun => "not-run",
        }
    }

    /// `(rounds, informed vertices, informed agents, messages)` of a trial
    /// that ran to a round: finished, or suspended by its budget.
    pub(crate) fn counts(&self) -> Option<(u64, usize, usize, u64)> {
        match self {
            TrialOutcome::Completed(o) | TrialOutcome::RoundCapped(o) => Some((
                o.rounds,
                o.informed_vertices,
                o.informed_agents,
                o.total_messages,
            )),
            TrialOutcome::TimedOut {
                round,
                informed_vertices,
                informed_agents,
                messages,
            } => Some((*round, *informed_vertices, *informed_agents, *messages)),
            TrialOutcome::Panicked { .. } | TrialOutcome::NotRun => None,
        }
    }
}

/// Runs one trial's `attempt` (called with its 1-based attempt number)
/// inside `catch_unwind`, replaying it after a panic up to `max_retries`
/// times. A trial seed is a pure function of the trial index, so a replay
/// re-runs the identical trajectory: a panic that reproduces is reported
/// as [`TrialOutcome::Panicked`] with the last payload and
/// `max_retries + 1` attempts, one that came from a poisoned workspace is
/// absorbed. `None` from an attempt (a suspension that records nothing)
/// passes through.
pub(crate) fn run_with_retries(
    max_retries: u32,
    mut attempt: impl FnMut(u32) -> Option<TrialOutcome>,
) -> Option<TrialOutcome> {
    let attempts = max_retries.saturating_add(1);
    let mut message = String::new();
    for number in 1..=attempts {
        match catch_unwind(AssertUnwindSafe(|| attempt(number))) {
            Ok(outcome) => return outcome,
            Err(payload) => message = panic_message(payload.as_ref()),
        }
    }
    Some(TrialOutcome::Panicked { message, attempts })
}

/// A panic payload rendered as text.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Per-trial budgets, retry policy, and fault injection for
/// [`run_trials_guarded`].
#[derive(Debug, Clone, Default)]
pub struct TrialPolicy {
    /// Deterministic same-seed replays after a panicked attempt (the trial
    /// seed is a pure function of the trial index, so a replay re-runs the
    /// identical trajectory — a panic that reproduces is reported, one that
    /// came from a poisoned workspace is absorbed). Default 1.
    pub max_retries: u32,
    /// Per-trial wall-clock budget, enforced at checkpoint cadence.
    pub wall_clock: Option<Duration>,
    /// Rounds between budget checks (and checkpoint captures). Default 64.
    pub chunk_rounds: u64,
    /// Sweep-level RSS ceiling: when the process's resident set crosses it,
    /// the running trial checkpoints (into [`TrialPolicy::checkpoint_dir`]
    /// if set) and the sweep stops claiming trials
    /// ([`StopCause::MemoryCeiling`]; unclaimed slots report
    /// [`TrialOutcome::NotRun`]).
    pub memory_ceiling_bytes: Option<u64>,
    /// Where the memory watchdog and the kill hook persist their final
    /// snapshot.
    pub checkpoint_dir: Option<PathBuf>,
    /// Fault injection (tests only in spirit; inert by default).
    pub fault: FaultPlan,
}

impl TrialPolicy {
    /// The default policy: one retry, 64-round chunks, no budgets, no
    /// faults.
    pub fn new() -> Self {
        TrialPolicy {
            max_retries: 1,
            wall_clock: None,
            chunk_rounds: 64,
            memory_ceiling_bytes: None,
            checkpoint_dir: None,
            fault: FaultPlan::none(),
        }
    }

    /// Sets the per-trial wall-clock budget.
    pub fn with_wall_clock(mut self, budget: Duration) -> Self {
        self.wall_clock = Some(budget);
        self
    }

    /// Sets the rounds-between-checks cadence.
    pub fn with_chunk_rounds(mut self, rounds: u64) -> Self {
        assert!(rounds > 0, "chunk cadence must be positive");
        self.chunk_rounds = rounds;
        self
    }

    /// Whether any mid-run hook (budget, watchdog, kill) is armed, i.e.
    /// whether trials must run on the checkpointing path.
    fn needs_resumable_path(&self) -> bool {
        self.wall_clock.is_some()
            || self.memory_ceiling_bytes.is_some()
            || self.fault.kill_at_round.is_some()
    }
}

/// Deterministic fault injection for the robustness test-suite: each field
/// is inert when `None`, so [`FaultPlan::none`] makes [`TrialPolicy`]
/// production-shaped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic at the start of this trial index — on the **first** attempt
    /// only, so the retry's same-seed replay succeeds and the sweep result
    /// is unchanged.
    pub panic_at_trial: Option<usize>,
    /// Hard-kill the process (`std::process::abort`) when any trial crosses
    /// this round, after persisting a snapshot to
    /// [`TrialPolicy::checkpoint_dir`] — the crash half of the
    /// kill-and-resume integration test.
    pub kill_at_round: Option<u64>,
    /// Stop the sweep ([`StopCause::InjectedStop`]) once this many trials
    /// have finished — simulates a mid-sweep crash for manifest-resume
    /// tests without killing the test process.
    pub stop_after_trials: Option<usize>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Arms `kill_at_round` from the `RUMOR_KILL_AT_ROUND` environment
    /// variable (the hook the kill-and-resume test drives through a child
    /// process).
    pub fn from_env() -> Self {
        FaultPlan {
            kill_at_round: std::env::var("RUMOR_KILL_AT_ROUND")
                .ok()
                .and_then(|v| v.parse().ok()),
            ..FaultPlan::none()
        }
    }

    /// Corrupts a checkpoint file in place by flipping one payload byte —
    /// the recovery path must detect it via the snapshot checksum and fall
    /// back to an older checkpoint.
    pub fn corrupt_checkpoint(path: &Path) -> std::io::Result<()> {
        let mut bytes = std::fs::read(path)?;
        let at = bytes.len() / 2;
        bytes[at] ^= 0x20;
        std::fs::write(path, bytes)
    }
}

/// Why a guarded sweep stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopCause {
    /// The RSS watchdog tripped [`TrialPolicy::memory_ceiling_bytes`].
    MemoryCeiling,
    /// [`FaultPlan::stop_after_trials`] fired.
    InjectedStop,
}

/// Counts of each [`TrialOutcome`] variant across a sweep — the taxonomy
/// line reported in sweep summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialTaxonomy {
    /// Trials that completed their broadcast.
    pub completed: usize,
    /// Trials truncated by the round cap or stall detection.
    pub round_capped: usize,
    /// Trials that exhausted their wall-clock budget.
    pub timed_out: usize,
    /// Trials whose every attempt panicked.
    pub panicked: usize,
    /// Trials never run because the sweep stopped.
    pub not_run: usize,
}

impl TrialTaxonomy {
    /// Tallies a slice of trial outcomes.
    pub fn of(outcomes: &[TrialOutcome]) -> Self {
        let mut t = TrialTaxonomy::default();
        for outcome in outcomes {
            match outcome {
                TrialOutcome::Completed(_) => t.completed += 1,
                TrialOutcome::RoundCapped(_) => t.round_capped += 1,
                TrialOutcome::TimedOut { .. } => t.timed_out += 1,
                TrialOutcome::Panicked { .. } => t.panicked += 1,
                TrialOutcome::NotRun => t.not_run += 1,
            }
        }
        t
    }
}

impl std::fmt::Display for TrialTaxonomy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} completed", self.completed)?;
        for (count, label) in [
            (self.round_capped, "round-capped"),
            (self.timed_out, "timed-out"),
            (self.panicked, "panicked"),
            (self.not_run, "not-run"),
        ] {
            if count > 0 {
                write!(f, ", {count} {label}")?;
            }
        }
        Ok(())
    }
}

/// The result of [`run_trials_guarded`]: one typed outcome per trial plus
/// sweep-level bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedSweep {
    /// Outcomes ordered by trial index.
    pub outcomes: Vec<TrialOutcome>,
    /// Trials skipped because a checkpoint manifest already recorded them
    /// (the recovered work of a resumed sweep).
    pub reused_trials: usize,
    /// Why the sweep stopped early, if it did.
    pub stopped: Option<StopCause>,
}

impl GuardedSweep {
    /// The outcome taxonomy for sweep summaries.
    pub fn taxonomy(&self) -> TrialTaxonomy {
        TrialTaxonomy::of(&self.outcomes)
    }

    /// Fraction of trials recovered from the manifest instead of re-run.
    pub fn recovered_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.reused_trials as f64 / self.outcomes.len() as f64
        }
    }
}

/// One parsed (or pending) manifest record per trial, plus the rewrite
/// machinery. The manifest is a line-oriented text file —
///
/// ```text
/// RMAN 1
/// digest <spec digest, 16 hex chars>
/// trial <idx> <status> rounds=<r> iv=<n> ia=<n> msgs=<m>
/// ```
///
/// — rewritten whole through a temp-file + atomic rename on every record,
/// so a reader never observes a half-written file and a crash loses at most
/// the in-flight trial. Shared with the serve scheduler (`pub(crate)`),
/// which records trials one at a time instead of through
/// [`run_trials_guarded`].
#[derive(Debug)]
pub(crate) struct Manifest {
    pub(crate) path: PathBuf,
    pub(crate) digest: u64,
    pub(crate) lines: Vec<Option<String>>,
}

impl Manifest {
    pub(crate) fn status_line(index: usize, outcome: &TrialOutcome) -> Option<String> {
        let status = outcome.status();
        match outcome {
            TrialOutcome::Panicked { attempts, .. } => {
                Some(format!("trial {index} {status} attempts={attempts}"))
            }
            _ => {
                let (rounds, iv, ia, msgs) = outcome.counts()?;
                Some(format!(
                    "trial {index} {status} rounds={rounds} iv={iv} ia={ia} msgs={msgs}"
                ))
            }
        }
    }

    /// Opens the manifest at `path` for a run of `trials` trials of the
    /// spec named by `digest`, creating its directory, and returns it with
    /// the outcomes a previous run of the same digest recorded there. The
    /// recovered records stay in the manifest, so later rewrites keep them.
    pub(crate) fn recover(
        path: &Path,
        digest: u64,
        trials: usize,
        protocol: &str,
    ) -> (Manifest, Vec<Option<TrialOutcome>>) {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let recovered = Manifest::load(path, digest, trials, protocol);
        let lines = recovered
            .iter()
            .enumerate()
            .map(|(index, outcome)| Manifest::status_line(index, outcome.as_ref()?))
            .collect();
        let manifest = Manifest {
            path: path.to_path_buf(),
            digest,
            lines,
        };
        (manifest, recovered)
    }

    /// Parses an existing manifest into reusable outcomes. Only
    /// `completed` / `round-capped` records are reusable (they are full
    /// summaries of deterministic runs); stale manifests (digest mismatch)
    /// and malformed or truncated lines are ignored rather than fatal.
    fn load(path: &Path, digest: u64, trials: usize, protocol: &str) -> Vec<Option<TrialOutcome>> {
        let mut reused = vec![None; trials];
        let Ok(text) = std::fs::read_to_string(path) else {
            return reused;
        };
        let mut lines = text.lines();
        if lines.next() != Some("RMAN 1") {
            return reused;
        }
        if lines.next() != Some(format!("digest {digest:016x}").as_str()) {
            return reused;
        }
        for line in lines {
            let mut parts = line.split_whitespace();
            if parts.next() != Some("trial") {
                continue;
            }
            let Some(index) = parts.next().and_then(|v| v.parse::<usize>().ok()) else {
                continue;
            };
            if index >= trials {
                continue;
            }
            let Some(status) = parts.next() else { continue };
            let mut field = |key: &str| -> Option<u64> {
                parts
                    .next()
                    .and_then(|kv| kv.strip_prefix(key))
                    .and_then(|v| v.parse().ok())
            };
            let (Some(rounds), Some(iv), Some(ia), Some(msgs)) =
                (field("rounds="), field("iv="), field("ia="), field("msgs="))
            else {
                continue;
            };
            let outcome = TrialOutcome::finished(BroadcastOutcome {
                protocol: protocol.to_string(),
                rounds,
                completed: status == "completed",
                informed_vertices: iv as usize,
                informed_agents: ia as usize,
                total_messages: msgs,
                history: Vec::new(),
                edge_traffic: None,
            });
            // Any other status (timed-out, panicked) is not reusable.
            if outcome.status() == status {
                reused[index] = Some(outcome);
            }
        }
        reused
    }

    /// Records one trial outcome and atomically rewrites the file.
    pub(crate) fn record(&mut self, index: usize, outcome: &TrialOutcome) {
        self.lines[index] = Manifest::status_line(index, outcome);
        let mut text = format!("RMAN 1\ndigest {:016x}\n", self.digest);
        for line in self.lines.iter().flatten() {
            text.push_str(line);
            text.push('\n');
        }
        let tmp = self.path.with_extension("tmp");
        if std::fs::write(&tmp, &text).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

/// Current resident set size from `/proc/self/status` (Linux); `None` where
/// unavailable, which disarms the watchdog rather than failing the sweep.
fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Fault-tolerant variant of [`run_trials`]: same trial grid, same seeds,
/// same bit-identical outcomes for trials that finish — but each trial runs
/// inside `catch_unwind` with bounded deterministic retry, optional
/// wall-clock and memory budgets enforced at checkpoint cadence, and an
/// optional sweep manifest so a killed sweep resumes from its completed
/// trials instead of from scratch.
///
/// * A panicking trial is retried up to `policy.max_retries` times with the
///   **same seed** (trials are pure functions of their seed, so a surviving
///   retry yields the exact outcome the trial would have produced); if every
///   attempt panics the trial reports [`TrialOutcome::Panicked`] and the
///   sweep continues.
/// * With `policy.wall_clock` set, a trial whose budget expires suspends at
///   its latest checkpoint and reports [`TrialOutcome::TimedOut`].
/// * With `policy.memory_ceiling_bytes` set, a watchdog reads the resident
///   set at every checkpoint; past the ceiling the running trial persists a
///   snapshot (if `policy.checkpoint_dir` is set), the sweep stops claiming
///   trials, and unclaimed slots report [`TrialOutcome::NotRun`].
/// * With `manifest` set, every finished trial is recorded through an
///   atomic rewrite; re-running the same call against an existing manifest
///   skips the recorded trials ([`GuardedSweep::reused_trials`]). Manifest
///   reuse is disabled when the spec records history or edge traffic (the
///   manifest stores summaries, not curves).
///
/// Budget enforcement needs the checkpointing path, which does not support
/// edge-traffic recording; such specs run unguarded inside `catch_unwind`
/// only.
///
/// # Panics
///
/// Panics if `trials == 0` or `source` is out of range.
pub fn run_trials_guarded<G: Topology>(
    graph: &G,
    source: VertexId,
    spec: &SimulationSpec,
    trials: usize,
    config: &ExperimentConfig,
    policy: &TrialPolicy,
    manifest: Option<&Path>,
) -> GuardedSweep {
    assert!(trials > 0, "a trial run requires at least one trial");
    assert!(source < graph.num_vertices(), "source out of range");

    let workers = config.resolved_workers(trials);

    // Nested-parallelism budget: an auto-threaded sharded spec splits the
    // total thread budget (`RUMOR_THREADS` if the operator set one, else
    // the host's parallelism) across the trial workers, so trials × shards
    // stays within that budget. Explicit shard counts are respected as-is.
    // Thread-invariance of the sharded engine guarantees this cannot
    // change any outcome.
    let spec_storage;
    let spec = if spec.engine == (Engine::Sharded { threads: 0 }) {
        let budget = (rumor_core::resolve_threads(0) / workers).max(1);
        spec_storage = spec.clone().with_sharded(budget);
        &spec_storage
    } else {
        spec
    };

    // One write-once slot per trial, pre-partitioned so workers never touch
    // each other's results; a ticket counter hands out trial indices.
    let slots: Vec<OnceLock<TrialOutcome>> = (0..trials).map(|_| OnceLock::new()).collect();
    let mut reused_trials = 0usize;
    let manifest = manifest.map(|path| {
        let digest = spec.digest();
        if spec.options.record_history || spec.options.record_edge_traffic {
            // The manifest stores summaries, not curves: record, never reuse.
            return Mutex::new(Manifest {
                path: path.to_path_buf(),
                digest,
                lines: vec![None; trials],
            });
        }
        let (manifest, recovered) = Manifest::recover(path, digest, trials, spec.kind.name());
        for (slot, outcome) in slots.iter().zip(recovered) {
            if let Some(outcome) = outcome {
                slot.set(outcome).ok();
                reused_trials += 1;
            }
        }
        Mutex::new(manifest)
    });

    let ticket = AtomicUsize::new(0);
    let finished = AtomicUsize::new(reused_trials);
    let stop = AtomicBool::new(false);
    let stop_cause: Mutex<Option<StopCause>> = Mutex::new(None);
    if let Some(limit) = policy.fault.stop_after_trials {
        if reused_trials >= limit {
            stop.store(true, Ordering::Relaxed);
            *stop_cause.lock().unwrap() = Some(StopCause::InjectedStop);
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One spec clone and one pooled workspace per *worker* (not
                // per trial): the loop only rewrites the seed, and the
                // workspace's protocol state is reset — not reallocated —
                // between the trials this worker claims.
                let mut trial_spec = spec.clone();
                let mut workspace = SimWorkspace::new();
                let mut poisoned = false;
                while !stop.load(Ordering::Relaxed) {
                    let trial = ticket.fetch_add(1, Ordering::Relaxed);
                    if trial >= trials {
                        break;
                    }
                    if slots[trial].get().is_some() {
                        continue; // recovered from the manifest
                    }
                    trial_spec.seed = spec.seed.wrapping_add(trial as u64);

                    let outcome = run_with_retries(policy.max_retries, |attempt| {
                        // A panicked attempt may have left mid-round protocol
                        // state behind; a fresh workspace restores the
                        // clean-slate invariant for whatever runs next.
                        if poisoned {
                            workspace = SimWorkspace::new();
                        }
                        poisoned = true;
                        if attempt == 1 && policy.fault.panic_at_trial == Some(trial) {
                            panic!("injected fault: trial {trial}");
                        }
                        let outcome = run_guarded_trial(
                            graph,
                            &trial_spec,
                            source,
                            &mut workspace,
                            policy,
                            &stop,
                            &stop_cause,
                        );
                        poisoned = false;
                        outcome
                    });
                    // `None`: the memory watchdog suspended this trial; its
                    // slot stays empty and the sweep stops.
                    let Some(outcome) = outcome else { continue };
                    if let Some(manifest) = &manifest {
                        manifest.lock().unwrap().record(trial, &outcome);
                    }
                    slots[trial]
                        .set(outcome)
                        .unwrap_or_else(|_| unreachable!("trial {trial} claimed twice"));
                    if let Some(limit) = policy.fault.stop_after_trials {
                        let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
                        if done >= limit && !stop.swap(true, Ordering::Relaxed) {
                            *stop_cause.lock().unwrap() = Some(StopCause::InjectedStop);
                        }
                    }
                }
            });
        }
    });

    let outcomes = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or(TrialOutcome::NotRun))
        .collect();
    let stopped = *stop_cause.lock().unwrap();
    GuardedSweep {
        outcomes,
        reused_trials,
        stopped,
    }
}

/// Runs one guarded trial attempt. Returns `None` when the memory watchdog
/// suspended the trial (the sweep-stop flags are already set).
fn run_guarded_trial<'g, G: Topology>(
    graph: &'g G,
    trial_spec: &SimulationSpec,
    source: VertexId,
    workspace: &mut SimWorkspace<'g, G>,
    policy: &TrialPolicy,
    stop: &AtomicBool,
    stop_cause: &Mutex<Option<StopCause>>,
) -> Option<TrialOutcome> {
    if !policy.needs_resumable_path() || trial_spec.options.record_edge_traffic {
        // No mid-run hooks armed (or the spec cannot checkpoint): plain
        // fast path, still panic-isolated by the caller.
        let outcome = simulate_in(graph, source, trial_spec, workspace);
        return Some(TrialOutcome::finished(outcome));
    }
    let deadline = policy.wall_clock.map(|budget| Instant::now() + budget);
    let mut memory_tripped = false;
    let run = simulate_resumable_in(
        graph,
        source,
        trial_spec,
        workspace,
        CheckpointCadence::every_rounds(policy.chunk_rounds),
        &mut |snapshot: &SimSnapshot| {
            if let Some(kill_round) = policy.fault.kill_at_round {
                if snapshot.round() >= kill_round {
                    if let Some(dir) = &policy.checkpoint_dir {
                        let _ = snapshot.write_atomic(dir);
                    }
                    std::process::abort();
                }
            }
            if let Some(ceiling) = policy.memory_ceiling_bytes {
                if current_rss_bytes().is_some_and(|rss| rss >= ceiling) {
                    // Checkpoint, then stop the sweep: the snapshot is the
                    // recoverable half of "abort near the ceiling".
                    if let Some(dir) = &policy.checkpoint_dir {
                        let _ = snapshot.write_atomic(dir);
                    }
                    if !stop.swap(true, Ordering::Relaxed) {
                        *stop_cause.lock().unwrap() = Some(StopCause::MemoryCeiling);
                    }
                    memory_tripped = true;
                    return false;
                }
            }
            deadline.is_none_or(|deadline| Instant::now() < deadline)
        },
    );
    match run {
        ResumableRun::Finished(outcome) => Some(TrialOutcome::finished(outcome)),
        ResumableRun::Suspended(_) if memory_tripped => None,
        ResumableRun::Suspended(snapshot) => Some(TrialOutcome::suspended(&snapshot)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::ProtocolKind;
    use rumor_graphs::generators::{complete, star};
    use rumor_graphs::Graph;

    #[test]
    fn trials_are_reproducible_and_ordered() {
        let g = complete(24).unwrap();
        let cfg = ExperimentConfig::smoke();
        let spec = SimulationSpec::new(ProtocolKind::Push).with_seed(100);
        let a = run_trials(&g, 0, &spec, 6, &cfg);
        let b = run_trials(&g, 0, &spec, 6, &cfg);
        assert_eq!(
            a, b,
            "same seeds must give the same outcomes in the same order"
        );
        // Different trials use different seeds, so not all outcomes are equal.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn single_threaded_matches_multi_threaded() {
        let g = star(60).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_seed(3);
        let seq = run_trials(&g, 0, &spec, 5, &ExperimentConfig::smoke().with_threads(1));
        let par = run_trials(&g, 0, &spec, 5, &ExperimentConfig::smoke().with_threads(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let g = complete(12).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::PushPull).with_seed(1);
        let out = run_trials(&g, 0, &spec, 2, &ExperimentConfig::smoke().with_threads(16));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn broadcast_times_length_and_positivity() {
        let g = complete(16).unwrap();
        let times = broadcast_times(
            &g,
            0,
            &SimulationSpec::new(ProtocolKind::PushPull),
            4,
            &ExperimentConfig::smoke(),
        );
        assert_eq!(times.len(), 4);
        assert!(times.iter().all(|&t| t > 0));
    }

    #[test]
    fn sharded_specs_budget_nested_parallelism_without_changing_results() {
        let g = star(50).unwrap();
        // Auto shard count: run_trials resolves it against the worker
        // budget; thread-invariance means the outcomes must equal an
        // explicit 1-shard run regardless of what the budget resolves to.
        let auto = SimulationSpec::new(ProtocolKind::VisitExchange)
            .with_seed(8)
            .with_sharded(0);
        let explicit = auto.clone().with_sharded(1);
        let cfg = ExperimentConfig::smoke().with_threads(2);
        let from_auto = run_trials(&g, 0, &auto, 4, &cfg);
        let from_explicit = run_trials(&g, 0, &explicit, 4, &cfg);
        assert_eq!(from_auto.len(), 4);
        for (a, b) in from_auto.iter().zip(&from_explicit) {
            assert_eq!(a, b, "nested budget changed a sharded outcome");
        }
    }

    #[test]
    fn pooled_workspace_matches_fresh_simulations() {
        // The workspace reuse inside run_trials must be invisible: every
        // trial's outcome equals a fresh standalone simulate_on() of its seed.
        let g = star(40).unwrap();
        let cfg = ExperimentConfig::smoke().with_threads(2);
        for kind in [
            ProtocolKind::Push,
            ProtocolKind::Pull,
            ProtocolKind::PushPull,
            ProtocolKind::VisitExchange,
            ProtocolKind::MeetExchange,
            ProtocolKind::PushPullVisitExchange,
        ] {
            // Full broadcasts (refill reset) and a 3-round window (undo
            // reset) both must be invisible.
            for max_rounds in [10_000_000u64, 3] {
                let spec = SimulationSpec::new(kind)
                    .with_seed(31)
                    .with_max_rounds(max_rounds)
                    .adapted_to(&g);
                let pooled = run_trials(&g, 0, &spec, 6, &cfg);
                for (trial, outcome) in pooled.iter().enumerate() {
                    let fresh =
                        rumor_core::simulate_on(&g, 0, &spec.clone().with_seed(31 + trial as u64));
                    assert_eq!(
                        outcome, &fresh,
                        "{kind} trial {trial} (cap {max_rounds}) diverged under pooling"
                    );
                }
            }
        }
    }

    #[test]
    fn run_trials_accepts_the_implicit_backend() {
        use rumor_graphs::ImplicitGraph;
        let csr = star(40).unwrap();
        let implicit = ImplicitGraph::star(40).unwrap();
        let cfg = ExperimentConfig::smoke().with_threads(2);
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_seed(4);
        let a = run_trials(&csr, 0, &spec, 5, &cfg);
        let b = run_trials(&implicit, 0, &spec, 5, &cfg);
        assert_eq!(a, b, "backends must agree bit-for-bit");
    }

    #[test]
    fn run_trials_accepts_the_generated_backend() {
        use rumor_graphs::GeneratedGraph;
        let generated = GeneratedGraph::gnp(70, 0.1, 3).unwrap();
        let csr = generated.materialize().unwrap();
        let cfg = ExperimentConfig::smoke().with_threads(2);
        let spec = SimulationSpec::new(ProtocolKind::Push)
            .with_seed(4)
            .with_max_rounds(2_000);
        let a = run_trials(&csr, 0, &spec, 5, &cfg);
        let b = run_trials(&generated, 0, &spec, 5, &cfg);
        assert_eq!(a, b, "backends must agree bit-for-bit");
    }

    #[test]
    #[should_panic(
        expected = "trial 0 panicked: invalid simulation spec: agent protocol visit-exchange"
    )]
    fn run_trials_panics_with_the_trial_message() {
        // Agents cannot walk on an edgeless graph, so every trial panics;
        // the caller must see the trial's own message, not only that a
        // worker thread died.
        let g = Graph::from_edges(4, &[]).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_seed(2);
        let _ = run_trials(&g, 0, &spec, 3, &ExperimentConfig::smoke().with_threads(2));
    }

    #[test]
    fn a_first_attempt_panic_is_absorbed_by_the_retry() {
        let mut calls = Vec::new();
        let outcome = run_with_retries(1, |attempt| {
            calls.push(attempt);
            if attempt == 1 {
                panic!("transient");
            }
            Some(TrialOutcome::NotRun)
        });
        assert_eq!(outcome, Some(TrialOutcome::NotRun));
        assert_eq!(calls, [1, 2]);
    }

    #[test]
    fn a_persistent_panic_reports_every_attempt() {
        for max_retries in [0, 1, 3] {
            let outcome = run_with_retries(max_retries, |attempt| panic!("attempt {attempt}"));
            assert_eq!(
                outcome,
                Some(TrialOutcome::Panicked {
                    message: format!("attempt {}", max_retries + 1),
                    attempts: max_retries + 1,
                })
            );
        }
    }

    #[test]
    fn a_non_string_panic_payload_is_rendered() {
        let outcome = run_with_retries(0, |_| std::panic::panic_any(7u8));
        assert_eq!(
            outcome,
            Some(TrialOutcome::Panicked {
                message: "non-string panic payload".to_string(),
                attempts: 1,
            })
        );
        let outcome = run_with_retries(0, |_| std::panic::panic_any("static text"));
        assert!(
            matches!(outcome, Some(TrialOutcome::Panicked { message, .. }) if message == "static text")
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let g = complete(8).unwrap();
        let _ = run_trials(
            &g,
            0,
            &SimulationSpec::new(ProtocolKind::Push),
            0,
            &ExperimentConfig::smoke(),
        );
    }
}
