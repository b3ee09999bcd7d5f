//! The serve scheduler: a shared worker pool with per-client fair
//! round-robin, digest-keyed result caching, manifest-backed crash
//! recovery, and checkpoint-draining shutdown.
//!
//! ## Fairness
//!
//! Jobs queue per client name, and workers claim **one trial at a time**
//! from the client queues in rotating round-robin order. A client
//! submitting a 1000-trial sweep therefore cannot starve a client with a
//! 4-trial smoke job: even with a single worker, the small job's trials
//! interleave 1:1 with the big job's.
//!
//! ## Durability
//!
//! With a state directory configured, every finished trial is recorded in a
//! digest-keyed manifest (`job-<digest>.rman`, the PR 6 `RMAN` format)
//! through an atomic temp-file rewrite, and long-running trials checkpoint
//! at chunk cadence into per-trial snapshot directories. A killed server
//! therefore loses **no completed trial**: resubmitting the same spec after
//! a restart reuses every recorded trial and resumes suspended ones from
//! their newest valid snapshot.
//!
//! ## Determinism
//!
//! Trials are pure functions of their derived seed, trial lines are emitted
//! in trial-index order, and the line format uses exactly the fields that
//! survive a manifest round-trip — so live, recovered, duplicate-attached,
//! and cached response streams are byte-identical.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rumor_core::{
    resume_in, simulate_resumable_in, CheckpointCadence, ResumableRun, SimSnapshot, SimWorkspace,
    SimulationSpec,
};
use rumor_graphs::{AnyTopology, Topology, VertexId};

use crate::runner::{Manifest, TrialOutcome, TrialTaxonomy};
use crate::serve::protocol::{
    done_line, draining_line, trial_line, with_session, SubmitRequest, MAX_LINE_BYTES,
};
use crate::serve::shed::{admit, AdmissionLimits, Verdict};
use crate::serve::store::{ContentStore, UploadError};
use crate::serve::sync::{lock_recover, wait_recover, Outbox};

/// Configuration of a serve instance (scheduler + server).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (`0` = one per logical core).
    pub workers: usize,
    /// Admission bounds (queue depth / open jobs).
    pub limits: AdmissionLimits,
    /// Durability root: manifests (`job-*.rman`) and per-trial checkpoint
    /// directories live here. `None` disables crash recovery (results are
    /// still cached in memory).
    pub state_dir: Option<PathBuf>,
    /// Rounds between deadline/drain checks (and checkpoint captures) on
    /// the resumable path.
    pub chunk_rounds: u64,
    /// Test hook: sleep this long before each trial, so kill/overload tests
    /// can reliably interrupt a run mid-job. `0` in production.
    pub throttle_ms: u64,
    /// How long a drain waits for in-flight work before forcing shutdown.
    pub grace: Duration,
    /// Close a connection that has sent nothing (not even a heartbeat) for
    /// this long — reclaims the session thread behind a half-open TCP peer.
    pub idle_timeout: Duration,
    /// Upper bound on one NDJSON line, both directions (default
    /// [`MAX_LINE_BYTES`]). Upload chunk sizes derive from this bound.
    pub max_line_bytes: usize,
    /// LRU byte quota for the topology content store (`None` = unbounded).
    /// Only unreferenced committed graphs are ever evicted.
    pub store_quota_bytes: Option<u64>,
}

impl ServeConfig {
    /// Production-shaped defaults: per-core workers, default admission
    /// bounds, 64-round chunks, 30 s drain grace, no state directory.
    pub fn new() -> Self {
        ServeConfig {
            workers: 0,
            limits: AdmissionLimits::new(),
            state_dir: None,
            chunk_rounds: 64,
            throttle_ms: 0,
            grace: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: MAX_LINE_BYTES,
            store_quota_bytes: None,
        }
    }

    /// Sets the durability root.
    pub fn with_state_dir(mut self, dir: PathBuf) -> Self {
        self.state_dir = Some(dir);
        self
    }

    /// Sets the half-open connection reclaim timeout.
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the NDJSON line bound (and thereby the upload chunk size).
    pub fn with_max_line_bytes(mut self, max_line_bytes: usize) -> Self {
        self.max_line_bytes = max_line_bytes;
        self
    }

    /// Sets the content store's LRU byte quota.
    pub fn with_store_quota_bytes(mut self, quota: u64) -> Self {
        self.store_quota_bytes = Some(quota);
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time snapshot of the scheduler's counters (the scheduler half of
/// the `status` verb).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Trials actually executed (excludes manifest/cache reuse).
    pub trials_executed: usize,
    /// Submissions rejected by admission control.
    pub shed: usize,
    /// Submissions answered from the in-memory result cache.
    pub cache_hits: usize,
    /// Submissions attached to an identical in-flight job.
    pub duplicate_hits: usize,
    /// Trials currently queued or running.
    pub pending_trials: usize,
    /// Jobs currently open.
    pub pending_jobs: usize,
}

/// A finished job's replayable result: trial lines in index order plus the
/// outcome taxonomy. Only fully deterministic jobs (every trial completed
/// or round-capped) are cached.
#[derive(Debug)]
pub(crate) struct CachedJob {
    pub(crate) digest: u64,
    pub(crate) trial_lines: Vec<String>,
    pub(crate) taxonomy: TrialTaxonomy,
}

impl CachedJob {
    /// Streams the whole cached result into `subscriber`: the trial lines
    /// past its cursor, then a `done` line marked `cached`.
    pub(crate) fn subscribe(&self, mut subscriber: Subscriber) {
        let total = self.trial_lines.len();
        let done = stream_done_line(self.digest, total, &self.taxonomy, total, true);
        subscriber.catch_up(self.digest, &self.trial_lines, Some(&done));
    }
}

/// One session's stream of one job: the outbox it lands in, the index of
/// the next trial line it owes (trial `i` carries `seq == i + 1`), and —
/// for a `resume` — the counter its trial lines are charged to.
#[derive(Debug)]
pub(crate) struct Subscriber {
    outbox: Arc<Outbox>,
    next: usize,
    replayed: Option<Arc<AtomicU64>>,
}

impl Subscriber {
    /// A stream into `outbox` that has already seen every line up to
    /// `last_seq` (`0` for a fresh stream). A cursor past the lines emitted
    /// so far skips the lines below it as they arrive.
    pub(crate) fn new(
        outbox: Arc<Outbox>,
        last_seq: u64,
        replayed: Option<Arc<AtomicU64>>,
    ) -> Subscriber {
        Subscriber {
            outbox,
            next: last_seq as usize,
            replayed,
        }
    }

    /// The one emission path of every job stream — live, duplicate,
    /// resumed, or cached: pushes `lines[next..]` framed with
    /// `(job, seq)`, then `end` if the stream is over. Framing is a pure
    /// function of `(job, seq)`, so every path sends the same bytes.
    /// Returns `false` once the outbox is closed; the caller drops the
    /// subscriber.
    fn catch_up(&mut self, digest: u64, lines: &[String], end: Option<&str>) -> bool {
        for (index, line) in lines.iter().enumerate().skip(self.next) {
            if !self
                .outbox
                .push(with_session(line, digest, index as u64 + 1))
            {
                return false;
            }
            self.next = index + 1;
            if let Some(replayed) = &self.replayed {
                replayed.fetch_add(1, Ordering::Relaxed);
            }
        }
        end.is_none_or(|line| self.outbox.push(line.to_string()))
    }
}

/// The `done` line ending a stream of `trials` trial lines.
fn stream_done_line(
    digest: u64,
    trials: usize,
    taxonomy: &TrialTaxonomy,
    reused: usize,
    cached: bool,
) -> String {
    done_line(
        digest,
        trials as u64 + 1,
        taxonomy.completed,
        taxonomy.round_capped,
        taxonomy.timed_out,
        taxonomy.panicked,
        taxonomy.not_run,
        reused,
        cached,
    )
}

/// The scheduler's answer to one submission.
pub(crate) enum Submission {
    /// Answered from the result cache — O(1), no execution.
    Cached(Arc<CachedJob>),
    /// Attached to a (possibly brand-new) job; `duplicate` marks attachment
    /// to an identical job that was already in flight.
    Attached { job: Arc<Job>, duplicate: bool },
    /// Shed by admission control.
    Overloaded { retry_after_ms: u64 },
    /// The server is draining and admits nothing new.
    Draining,
    /// Validation failed (unknown family/protocol, out-of-range spec, …).
    Rejected(String),
    /// The submission named an uploaded topology the content store does not
    /// hold (never uploaded, evicted by quota, or corrupt at rest) — the
    /// typed cue for the client to re-upload and resubmit idempotently.
    UnknownTopology {
        /// The missing topology's content digest.
        topology: u64,
    },
}

/// The scheduler's answer to a `resume` lookup by digest.
pub(crate) enum Lookup {
    /// The job is in flight: subscribe to its live stream.
    Running(Arc<Job>),
    /// The job finished deterministically: replay from the result cache.
    Cached(Arc<CachedJob>),
    /// Nothing under that digest (never submitted, or lost to a restart).
    Unknown,
}

/// One admitted sweep job.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) digest: u64,
    pub(crate) trials: usize,
    pub(crate) reused: usize,
    topology: AnyTopology,
    /// The content-store pin held for an uploaded topology: released when
    /// the job leaves the pending/running set, so quota eviction can never
    /// remove a graph a live job references.
    upload_pin: Option<u64>,
    base_spec: SimulationSpec,
    source: VertexId,
    deadline: Option<Instant>,
    /// Trials recovered from the manifest at admission (never re-claimed).
    prefilled: Vec<bool>,
    next_trial: AtomicUsize,
    state: Mutex<JobState>,
}

#[derive(Debug)]
struct JobState {
    outcomes: Vec<Option<TrialOutcome>>,
    recorded: usize,
    next_emit: usize,
    lines: Vec<String>,
    /// Open session streams; each has been pushed every emitted line.
    subscribers: Vec<Subscriber>,
    finished: bool,
    drained: bool,
    manifest: Option<Manifest>,
}

impl Job {
    /// Records one trial outcome: manifest write, then in-order line
    /// emission into every subscribed outbox. Returns `true` when this was
    /// the job's last outcome; the caller then owes a [`retire`] under the
    /// scheduler lock, which is what marks the job finished.
    fn record(&self, trial: usize, outcome: TrialOutcome) -> bool {
        // Poison-tolerant throughout `Job` and `Scheduler`: a worker or
        // session thread that panics while holding a lock must cost only
        // its own trial/session, never wedge the job for every other
        // subscriber (see `serve::sync`).
        let mut state = lock_recover(&self.state);
        if state.outcomes[trial].is_some() || state.finished {
            return false; // drain raced a duplicate record; keep the first
        }
        if let Some(manifest) = &mut state.manifest {
            manifest.record(trial, &outcome);
        }
        state.outcomes[trial] = Some(outcome);
        state.recorded += 1;
        advance_emit(&mut state, self.digest);
        state.recorded == self.trials
    }

    /// Attaches a session stream. Runs under the job lock, so no line is
    /// lost or duplicated between catch-up and registration: the stream
    /// gets the lines past its cursor, then the terminal line if the job
    /// has already ended, and otherwise every later line as it is emitted.
    pub(crate) fn subscribe(&self, mut subscriber: Subscriber) {
        let mut state = lock_recover(&self.state);
        let end = self.end_line(&state);
        if subscriber.catch_up(self.digest, &state.lines, end.as_deref()) && end.is_none() {
            state.subscribers.push(subscriber);
        }
    }

    /// The line ending a live stream — job-tagged `draining` or `done` —
    /// once the job has ended.
    fn end_line(&self, state: &JobState) -> Option<String> {
        if state.drained {
            return Some(draining_line(Some(self.digest)));
        }
        if !state.finished {
            return None;
        }
        let outcomes: Vec<TrialOutcome> = state
            .outcomes
            .iter()
            .map(|o| o.clone().unwrap_or(TrialOutcome::NotRun))
            .collect();
        let taxonomy = TrialTaxonomy::of(&outcomes);
        Some(stream_done_line(
            self.digest,
            self.trials,
            &taxonomy,
            self.reused,
            false,
        ))
    }

    /// Ends every subscribed stream with the terminal line. Subscribers
    /// already hold every emitted line, so only the end is pushed.
    fn end_streams(&self, state: &mut JobState) {
        if let Some(end) = self.end_line(state) {
            for subscriber in state.subscribers.drain(..) {
                subscriber.outbox.push(end.clone());
            }
        }
    }

    fn cacheable(state: &JobState) -> bool {
        state.outcomes.iter().all(|o| {
            matches!(
                o,
                Some(TrialOutcome::Completed(_)) | Some(TrialOutcome::RoundCapped(_))
            )
        })
    }
}

/// Emits trial lines for every contiguous recorded outcome past the cursor
/// — the in-order guarantee behind byte-identical streams — and pushes them
/// to every subscriber, dropping those whose outbox has closed.
fn advance_emit(state: &mut JobState, digest: u64) {
    while state.next_emit < state.outcomes.len() {
        match &state.outcomes[state.next_emit] {
            Some(outcome) => {
                let line = trial_line(state.next_emit, outcome);
                state.lines.push(line);
                state.next_emit += 1;
            }
            None => break,
        }
    }
    let JobState {
        subscribers, lines, ..
    } = state;
    subscribers.retain_mut(|subscriber| subscriber.catch_up(digest, lines, None));
}

struct SchedState {
    /// Per-client FIFO queues; the fairness unit.
    queues: Vec<(String, VecDeque<Arc<Job>>)>,
    /// Next client queue to serve.
    cursor: usize,
    pending_trials: usize,
    running: HashMap<u64, Arc<Job>>,
    cache: HashMap<u64, Arc<CachedJob>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    draining: AtomicBool,
    /// Set once [`Scheduler::finish_drain`] has ended every unfinished
    /// job's streams: sessions may close after that and lose no line.
    drained: AtomicBool,
    executed: AtomicUsize,
    shed: AtomicUsize,
    cache_hits: AtomicUsize,
    duplicate_hits: AtomicUsize,
    config: ServeConfig,
    store: ContentStore,
}

/// Releases a finished/retired job's content-store pin, if it holds one.
fn release_upload_pin(shared: &Shared, job: &Job) {
    if let Some(digest) = job.upload_pin {
        shared.store.unpin(digest);
    }
}

/// The worker pool + queue state. One per server; shared with connection
/// handler threads.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Starts the worker pool and opens the topology content store (under
    /// `<state-dir>/store` when durable, in memory otherwise).
    pub(crate) fn start(config: ServeConfig) -> std::io::Result<Scheduler> {
        let store = ContentStore::open(
            config.state_dir.as_ref().map(|dir| dir.join("store")),
            config.store_quota_bytes,
        )
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queues: Vec::new(),
                cursor: 0,
                pending_trials: 0,
                running: HashMap::new(),
                cache: HashMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            executed: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            duplicate_hits: AtomicUsize::new(0),
            config,
            store,
        });
        let workers = (0..shared.config.resolved_workers())
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Scheduler {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The topology content store (upload verbs and status counters).
    pub(crate) fn store(&self) -> &ContentStore {
        &self.shared.store
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> ServeStats {
        let state = lock_recover(&self.shared.state);
        ServeStats {
            trials_executed: self.shared.executed.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            duplicate_hits: self.shared.duplicate_hits.load(Ordering::Relaxed),
            pending_trials: state.pending_trials,
            pending_jobs: state.running.len(),
        }
    }

    /// Whether a drain has been requested.
    pub(crate) fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Whether a drain has finished: every unfinished job's `draining`
    /// line is already in its subscribers' outboxes.
    pub(crate) fn drained(&self) -> bool {
        self.shared.drained.load(Ordering::SeqCst)
    }

    /// Admits, deduplicates, or sheds one submission.
    pub(crate) fn submit(&self, request: SubmitRequest) -> Submission {
        if self.draining() {
            return Submission::Draining;
        }
        let digest = request.digest();
        // Uploaded topologies resolve through the content store; resolving
        // pins the entry, and the pin follows the job (or is released on any
        // path that does not create one), so eviction can never race a live
        // submission.
        let mut upload_pin: Option<u64> = None;
        let unpin_on_exit = |pin: Option<u64>| {
            if let Some(digest) = pin {
                self.shared.store.unpin(digest);
            }
        };
        let topology = match request.topology.uploaded_digest() {
            Some(topology_digest) => match self.shared.store.resolve_pinned(topology_digest) {
                Ok(graph) => {
                    upload_pin = Some(topology_digest);
                    AnyTopology::from(graph)
                }
                // Never uploaded, evicted, or corrupt at rest (the store
                // already dropped a corrupt entry): re-upload is the cure.
                Err(
                    UploadError::UnknownTopology { .. }
                    | UploadError::DigestMismatch { .. }
                    | UploadError::Invalid { .. },
                ) => {
                    return Submission::UnknownTopology {
                        topology: topology_digest,
                    }
                }
                Err(e) => return Submission::Rejected(e.to_string()),
            },
            None => match request.topology.build() {
                Ok(t) => t,
                Err(e) => return Submission::Rejected(e),
            },
        };
        let base = match request.to_spec() {
            Ok(s) => s,
            Err(e) => {
                unpin_on_exit(upload_pin);
                return Submission::Rejected(e);
            }
        };
        let source: VertexId = 0;
        // One match at admission: adapt (the paper's bipartite remedy) and
        // validate against the actual graph, so workers only ever see
        // well-formed jobs.
        let spec = {
            let adapted = match &topology {
                AnyTopology::Csr(g) => base.adapted_to(g),
                AnyTopology::Implicit(g) => base.adapted_to(g),
                AnyTopology::Generated(g) => base.adapted_to(g),
                AnyTopology::HubCached(g) => base.adapted_to(g),
            };
            let check = match &topology {
                AnyTopology::Csr(g) => adapted.validate(g, source),
                AnyTopology::Implicit(g) => adapted.validate(g, source),
                AnyTopology::Generated(g) => adapted.validate(g, source),
                AnyTopology::HubCached(g) => adapted.validate(g, source),
            };
            if let Err(e) = check {
                unpin_on_exit(upload_pin);
                return Submission::Rejected(e.to_string());
            }
            adapted
        };

        let mut state = lock_recover(&self.shared.state);
        if state.shutdown || self.draining() {
            unpin_on_exit(upload_pin);
            return Submission::Draining;
        }
        if let Some(cached) = state.cache.get(&digest) {
            self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            unpin_on_exit(upload_pin);
            return Submission::Cached(Arc::clone(cached));
        }
        if let Some(job) = state.running.get(&digest) {
            self.shared.duplicate_hits.fetch_add(1, Ordering::Relaxed);
            unpin_on_exit(upload_pin);
            return Submission::Attached {
                job: Arc::clone(job),
                duplicate: true,
            };
        }
        match admit(
            &self.shared.config.limits,
            state.pending_trials,
            state.running.len(),
            request.trials,
        ) {
            Verdict::Overloaded { retry_after_ms } => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                unpin_on_exit(upload_pin);
                return Submission::Overloaded { retry_after_ms };
            }
            Verdict::Admit => {}
        }

        // Manifest recovery: completed trials recorded by a previous run of
        // this digest (possibly by a server that was killed) are reused.
        let trials = request.trials;
        let manifest_path = self
            .shared
            .config
            .state_dir
            .as_ref()
            .map(|dir| dir.join(format!("job-{digest:016x}.rman")));
        let mut outcomes: Vec<Option<TrialOutcome>> = vec![None; trials];
        let mut manifest_lines: Vec<Option<String>> = vec![None; trials];
        if let Some(path) = &manifest_path {
            for (index, outcome) in Manifest::load(path, digest, trials, spec.kind.name())
                .into_iter()
                .enumerate()
            {
                if let Some(outcome) = outcome {
                    manifest_lines[index] = Manifest::status_line(index, &outcome);
                    outcomes[index] = Some(outcome);
                }
            }
        }
        let reused = outcomes.iter().filter(|o| o.is_some()).count();
        let prefilled: Vec<bool> = outcomes.iter().map(|o| o.is_some()).collect();
        let manifest = manifest_path.map(|path| {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            Manifest {
                path,
                digest,
                lines: manifest_lines,
            }
        });
        let mut job_state = JobState {
            outcomes,
            recorded: reused,
            next_emit: 0,
            lines: Vec::new(),
            subscribers: Vec::new(),
            finished: false,
            drained: false,
            manifest,
        };
        advance_emit(&mut job_state, digest);
        let finished_at_admission = reused == trials;
        if finished_at_admission {
            job_state.finished = true;
        }
        let job = Arc::new(Job {
            digest,
            trials,
            reused,
            topology,
            upload_pin,
            base_spec: spec,
            source,
            deadline: request
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            prefilled,
            next_trial: AtomicUsize::new(0),
            state: Mutex::new(job_state),
        });
        if finished_at_admission {
            // Everything came back from the manifest: publish to the cache
            // and answer without touching the queues (no running job, so no
            // pin to carry).
            cache_if_deterministic(&mut state, &job);
            unpin_on_exit(upload_pin);
            return Submission::Attached {
                job,
                duplicate: false,
            };
        }
        state.pending_trials += trials - reused;
        state.running.insert(digest, Arc::clone(&job));
        match state.queues.iter_mut().find(|(c, _)| *c == request.client) {
            Some((_, queue)) => queue.push_back(Arc::clone(&job)),
            None => {
                let mut queue = VecDeque::new();
                queue.push_back(Arc::clone(&job));
                state.queues.push((request.client, queue));
            }
        }
        self.shared.work_ready.notify_all();
        Submission::Attached {
            job,
            duplicate: false,
        }
    }

    /// Looks a job up by digest for a `resume`: in-flight jobs re-attach to
    /// the live stream, finished deterministic jobs replay from the result
    /// cache. `Unknown` covers everything else (never submitted, evicted by
    /// a restart, or finished non-deterministically) — the client's
    /// fallback is an idempotent resubmission, which replays recorded
    /// trials from the on-disk manifest instead.
    pub(crate) fn lookup(&self, digest: u64) -> Lookup {
        let state = lock_recover(&self.shared.state);
        if let Some(job) = state.running.get(&digest) {
            return Lookup::Running(Arc::clone(job));
        }
        if let Some(cached) = state.cache.get(&digest) {
            return Lookup::Cached(Arc::clone(cached));
        }
        Lookup::Unknown
    }

    /// Stops admission and wakes every worker; workers exit after their
    /// current trial (checkpointing it if it is long-running).
    pub(crate) fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let state = lock_recover(&self.shared.state);
        self.shared.work_ready.notify_all();
        drop(state);
    }

    /// Completes a drain: waits up to `grace` for in-flight trials, joins
    /// the workers, and ends every unfinished job's streams with a
    /// job-tagged `draining` line so no subscriber hangs. Completed trials
    /// are already on disk.
    pub(crate) fn finish_drain(&self) {
        let grace = self.shared.config.grace;
        let deadline = Instant::now() + grace;
        let workers: Vec<_> = std::mem::take(&mut *lock_recover(&self.workers));
        for worker in workers {
            // Workers exit after at most one chunk past the drain flag;
            // join unconditionally (bounded by chunk cadence, not grace).
            let _ = worker.join();
            if Instant::now() > deadline {
                // Grace expired: remaining workers are between chunks and
                // will exit momentarily; keep joining — bounded wait.
                continue;
            }
        }
        let mut state = lock_recover(&self.shared.state);
        state.shutdown = true;
        for (_, job) in state.running.drain() {
            let mut job_state = lock_recover(&job.state);
            if !job_state.finished {
                job_state.drained = true;
                job.end_streams(&mut job_state);
            }
            drop(job_state);
            release_upload_pin(&self.shared, &job);
        }
        state.queues.clear();
        state.pending_trials = 0;
        drop(state);
        self.shared.drained.store(true, Ordering::SeqCst);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.begin_drain();
        self.finish_drain();
    }
}

/// Retires a job whose every trial is recorded: removes it from `running`,
/// publishes it to the result cache, and only then marks it finished and
/// pushes `done` to its subscribers — so a client that has seen `done` and
/// resubmits always hits the cache. Runs under the scheduler lock (lock
/// order scheduler → job → outbox); the manifest writes already happened
/// in [`Job::record`], outside it.
fn retire(state: &mut SchedState, job: &Job) {
    state.running.remove(&job.digest);
    cache_if_deterministic(state, job);
    let mut job_state = lock_recover(&job.state);
    job_state.finished = true;
    job.end_streams(&mut job_state);
}

/// Publishes a finished job to the result cache if every trial is
/// deterministic (completed/round-capped); jobs with timed-out, panicked,
/// or skipped trials must re-run on resubmission.
fn cache_if_deterministic(state: &mut SchedState, job: &Job) {
    let job_state = lock_recover(&job.state);
    if Job::cacheable(&job_state) {
        state.cache.insert(
            job.digest,
            Arc::new(CachedJob {
                digest: job.digest,
                trial_lines: job_state.lines.clone(),
                taxonomy: TrialTaxonomy::of(
                    &job_state
                        .outcomes
                        .iter()
                        .map(|o| o.clone().expect("cacheable ⇒ all recorded"))
                        .collect::<Vec<_>>(),
                ),
            }),
        );
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let claim = {
            let mut state = lock_recover(&shared.state);
            loop {
                if state.shutdown || shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(claim) = claim_next(shared, &mut state) {
                    break claim;
                }
                state = wait_recover(&shared.work_ready, state);
            }
        };
        let (job, trial) = claim;
        match execute_trial(shared, &job, trial) {
            Some(outcome) => {
                shared.executed.fetch_add(1, Ordering::Relaxed);
                if job.record(trial, outcome) {
                    retire(&mut lock_recover(&shared.state), &job);
                    release_upload_pin(shared, &job);
                }
            }
            None => {
                // Drain suspended the trial after checkpointing it; nothing
                // is recorded, so a restarted server re-claims it and
                // resumes from the snapshot.
            }
        }
    }
}

/// Claims the next trial ticket in client round-robin order. Runs under the
/// scheduler lock. Also retires deadline-expired jobs (their unclaimed
/// trials become `NotRun`).
fn claim_next(shared: &Shared, state: &mut SchedState) -> Option<(Arc<Job>, usize)> {
    let queues = state.queues.len();
    if queues == 0 {
        return None;
    }
    let mut expired: Vec<Arc<Job>> = Vec::new();
    let mut claim = None;
    'scan: for step in 0..queues {
        let qi = (state.cursor + step) % queues;
        loop {
            let Some(job) = state.queues[qi].1.front().cloned() else {
                break; // empty client queue
            };
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                state.queues[qi].1.pop_front();
                expired.push(job);
                continue;
            }
            match claim_ticket(&job) {
                Some(trial) => {
                    state.pending_trials = state.pending_trials.saturating_sub(1);
                    state.cursor = (qi + 1) % queues;
                    claim = Some((job, trial));
                    break 'scan;
                }
                None => {
                    // Fully claimed; running trials will finish it.
                    state.queues[qi].1.pop_front();
                }
            }
        }
    }
    // Retire expired jobs: mark every unclaimed trial NotRun so their
    // subscribers get a terminal taxonomy instead of a hung connection.
    for job in expired {
        let mut marked = 0usize;
        while let Some(trial) = claim_ticket(&job) {
            marked += 1;
            if job.record(trial, TrialOutcome::NotRun) {
                retire(state, &job);
                release_upload_pin(shared, &job);
            }
        }
        state.pending_trials = state.pending_trials.saturating_sub(marked);
    }
    claim
}

/// Claims this job's next unclaimed, non-prefilled trial index.
fn claim_ticket(job: &Job) -> Option<usize> {
    loop {
        let trial = job.next_trial.fetch_add(1, Ordering::Relaxed);
        if trial >= job.trials {
            return None;
        }
        if !job.prefilled[trial] {
            return Some(trial);
        }
    }
}

/// Runs one trial. `None` means a drain suspended it mid-flight (after
/// persisting a checkpoint); anything else is a recordable outcome.
fn execute_trial(shared: &Shared, job: &Job, trial: usize) -> Option<TrialOutcome> {
    if shared.config.throttle_ms > 0 {
        std::thread::sleep(Duration::from_millis(shared.config.throttle_ms));
    }
    let mut spec = job.base_spec.clone();
    spec.seed = job.base_spec.seed.wrapping_add(trial as u64);
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return Some(TrialOutcome::NotRun);
    }
    let ckpt_dir = shared.config.state_dir.as_ref().map(|dir| {
        dir.join(format!("ckpt-{:016x}", job.digest))
            .join(format!("t{trial}"))
    });
    match &job.topology {
        AnyTopology::Csr(g) => run_one(shared, g, job, &spec, ckpt_dir),
        AnyTopology::Implicit(g) => run_one(shared, g, job, &spec, ckpt_dir),
        AnyTopology::Generated(g) => run_one(shared, g, job, &spec, ckpt_dir),
        AnyTopology::HubCached(g) => run_one(shared, g, job, &spec, ckpt_dir),
    }
}

fn run_one<G: Topology>(
    shared: &Shared,
    graph: &G,
    job: &Job,
    spec: &SimulationSpec,
    ckpt_dir: Option<PathBuf>,
) -> Option<TrialOutcome> {
    // One deterministic same-seed replay after a panic, mirroring
    // `run_trials_guarded`: a panic that reproduces is reported with its
    // payload, one left by a poisoned workspace is absorbed.
    let mut last_panic = String::new();
    for attempt in 1..=2u32 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_one_attempt(shared, graph, job, spec, ckpt_dir.as_deref())
        }));
        match result {
            Ok(outcome) => return outcome,
            Err(payload) => {
                last_panic = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                if attempt == 2 {
                    return Some(TrialOutcome::Panicked {
                        message: last_panic,
                        attempts: attempt,
                    });
                }
            }
        }
    }
    Some(TrialOutcome::Panicked {
        message: last_panic,
        attempts: 2,
    })
}

fn run_one_attempt<G: Topology>(
    shared: &Shared,
    graph: &G,
    job: &Job,
    spec: &SimulationSpec,
    ckpt_dir: Option<&std::path::Path>,
) -> Option<TrialOutcome> {
    let mut workspace = SimWorkspace::new();
    let cadence = CheckpointCadence::every_rounds(shared.config.chunk_rounds);
    let mut drained = false;
    let mut sink = |snapshot: &SimSnapshot| {
        if shared.draining.load(Ordering::Relaxed) {
            if let Some(dir) = ckpt_dir {
                // Keep the two newest snapshots: one survivor plus a
                // fallback if the newest write raced the kill.
                let _ = snapshot.write_atomic_retained(dir, 2);
            }
            drained = true;
            return false;
        }
        job.deadline.is_none_or(|d| Instant::now() < d)
    };
    // Resume from a prior run's suspension checkpoint when one exists (a
    // drained server's long trial picks up mid-broadcast, not from round 0).
    let resumed = ckpt_dir
        .and_then(|dir| SimSnapshot::load_newest(dir).ok().flatten())
        .and_then(|snapshot| {
            resume_in(
                graph,
                job.source,
                spec,
                &snapshot,
                &mut workspace,
                cadence,
                &mut sink,
            )
            .ok()
        });
    let run = match resumed {
        Some(run) => run,
        None => simulate_resumable_in(graph, job.source, spec, &mut workspace, cadence, &mut sink),
    };
    match run {
        ResumableRun::Finished(outcome) => {
            if let Some(dir) = ckpt_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            Some(if outcome.completed {
                TrialOutcome::Completed(outcome)
            } else {
                TrialOutcome::RoundCapped(outcome)
            })
        }
        ResumableRun::Suspended(_) if drained => None,
        ResumableRun::Suspended(snapshot) => Some(TrialOutcome::TimedOut {
            round: snapshot.round(),
            informed_vertices: snapshot.informed_vertex_count(),
            informed_agents: snapshot.informed_agent_count(),
            messages: snapshot.messages_total(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::TopologySpec;

    fn smoke_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            ..ServeConfig::new()
        }
    }

    /// Reads one subscribed stream to its end: the framed trial lines and
    /// the terminal (`done` or `draining`) line.
    fn collect(subscribe: impl FnOnce(Subscriber)) -> (Vec<String>, String) {
        let outbox = Arc::new(Outbox::default());
        subscribe(Subscriber::new(Arc::clone(&outbox), 0, None));
        let mut lines = Vec::new();
        loop {
            let line = outbox.pop().expect("nothing closes the outbox");
            if !line.starts_with("{\"type\":\"trial\"") {
                return (lines, line);
            }
            lines.push(line);
        }
    }

    #[test]
    fn executes_a_job_and_caches_the_result() {
        let scheduler = Scheduler::start(smoke_config()).expect("scheduler");
        let request = SubmitRequest::new("t", TopologySpec::new("complete", 32), "push", 4);
        let Submission::Attached { job, duplicate } = scheduler.submit(request.clone()) else {
            panic!("expected attachment");
        };
        assert!(!duplicate);
        let (lines, end) = collect(|subscriber| job.subscribe(subscriber));
        assert!(end.starts_with("{\"type\":\"done\""), "end: {end}");
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"index\":0"));
        assert!(end.contains("\"completed\":4,"), "end: {end}");
        assert_eq!(scheduler.stats().trials_executed, 4);
        // Resubmission is a cache hit with byte-identical lines.
        let Submission::Cached(cached) = scheduler.submit(request) else {
            panic!("expected cache hit");
        };
        assert_eq!(collect(|subscriber| cached.subscribe(subscriber)).0, lines);
        assert_eq!(scheduler.stats().trials_executed, 4);
        assert_eq!(scheduler.stats().cache_hits, 1);
    }

    #[test]
    fn a_finished_feed_is_always_a_cache_hit_on_resubmission() {
        // Regression: the job used to be marked finished (ending `collect`)
        // before the worker published it to the cache, so a resubmission
        // racing that window attached as a duplicate instead.
        let scheduler = Scheduler::start(smoke_config()).expect("scheduler");
        for seed in 0..500u64 {
            let mut request = SubmitRequest::new("t", TopologySpec::new("complete", 16), "push", 2);
            request.seed = seed;
            let Submission::Attached { job, .. } = scheduler.submit(request.clone()) else {
                panic!("seed {seed}: expected attachment");
            };
            let (lines, end) = collect(|subscriber| job.subscribe(subscriber));
            assert!(end.starts_with("{\"type\":\"done\""), "end: {end}");
            let Submission::Cached(cached) = scheduler.submit(request) else {
                panic!("seed {seed}: expected cache hit");
            };
            assert_eq!(collect(|subscriber| cached.subscribe(subscriber)).0, lines);
        }
        assert_eq!(scheduler.stats().cache_hits, 500);
        assert_eq!(scheduler.stats().duplicate_hits, 0);
    }

    #[test]
    fn rejects_invalid_specs_with_the_cause() {
        let scheduler = Scheduler::start(smoke_config()).expect("scheduler");
        let bad_family = scheduler.submit(SubmitRequest::new(
            "t",
            TopologySpec::new("torus", 8),
            "push",
            1,
        ));
        assert!(matches!(bad_family, Submission::Rejected(_)));
        let bad_proto = scheduler.submit(SubmitRequest::new(
            "t",
            TopologySpec::new("complete", 8),
            "smoke-signals",
            1,
        ));
        let Submission::Rejected(message) = bad_proto else {
            panic!("expected rejection");
        };
        assert!(message.contains("smoke-signals"), "message: {message}");
    }

    #[test]
    fn draining_scheduler_admits_nothing() {
        let scheduler = Scheduler::start(smoke_config()).expect("scheduler");
        scheduler.begin_drain();
        let verdict = scheduler.submit(SubmitRequest::new(
            "t",
            TopologySpec::new("star", 8),
            "push",
            1,
        ));
        assert!(matches!(verdict, Submission::Draining));
        scheduler.finish_drain();
    }

    #[test]
    fn overload_sheds_with_typed_verdict() {
        let config = ServeConfig {
            workers: 1,
            throttle_ms: 50,
            limits: AdmissionLimits {
                max_pending_trials: 4,
                max_pending_jobs: 64,
            },
            ..ServeConfig::new()
        };
        let scheduler = Scheduler::start(config).expect("scheduler");
        let first = SubmitRequest::new("hog", TopologySpec::new("complete", 16), "push", 4);
        assert!(matches!(
            scheduler.submit(first),
            Submission::Attached { .. }
        ));
        let second = SubmitRequest::new("hog", TopologySpec::new("complete", 16), "pull", 4);
        assert!(matches!(
            scheduler.submit(second),
            Submission::Overloaded { .. }
        ));
        assert_eq!(scheduler.stats().shed, 1);
    }
}
