//! The `rumor-serve` client library: multiplexed sessions with transparent
//! reconnect/resume, typed errors, bounded retry, and deterministic jitter.
//!
//! One connection carries any number of concurrent jobs; every job-scoped
//! line is `(job, seq)`-tagged, so the client demultiplexes by digest and
//! deduplicates by sequence number. When the connection dies mid-stream the
//! client reconnects and sends `resume {job, last_seq}` per unfinished job:
//! the server replays exactly the missing suffix, and any overlap (e.g.
//! after a fallback resubmission to a restarted server) is dropped by the
//! seq filter — zero lost and zero duplicated trial lines, byte-identical
//! to an uninterrupted stream.
//!
//! Retrying a submission is always safe: the job digest excludes the client
//! name and deadline, so a retry (or a second client running the same
//! study) lands on the server's manifest/cache and costs no duplicate
//! work. Backoff doubles per attempt from [`RetryPolicy::base_delay`] and
//! adds jitter derived from FNV-1a over `(digest, attempt)` — deterministic
//! per request, decorrelated across concurrent clients.
//!
//! Liveness is symmetric: the client sends `heartbeat` verbs at a fixed
//! interval (keeping the server's idle timer at bay during long quiet
//! stretches) and declares the connection dead when heartbeats go
//! unanswered for three intervals.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::runner::TrialTaxonomy;
use crate::serve::protocol::{
    fnv1a64, parse_json, read_bounded_line, resume_request_line, upload_begin_line,
    upload_chunk_line, upload_commit_line, Json, LineEvent, ServerStatus, SubmitRequest,
    MAX_LINE_BYTES,
};
use crate::serve::store::manifest_for;

/// A typed client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The server shed the submission (still overloaded after every retry).
    Overloaded {
        /// The server's last retry hint.
        retry_after_ms: u64,
    },
    /// The server is draining for shutdown (still draining after every
    /// retry — retry against the restarted server).
    Draining,
    /// The server rejected the spec (not retryable; the message names the
    /// cause, including panic payloads from failed trials).
    Rejected(String),
    /// Transport failure after every retry (connection refused, reset, …).
    Io(String),
    /// The server answered with something the protocol does not allow.
    Protocol(String),
    /// The submission's deadline expired server-side: `timed_out` trials
    /// suspended mid-run, `not_run` never started. Returned by
    /// [`JobResult::ensure_complete`], never by `submit` itself.
    DeadlineExceeded {
        /// Trials suspended at their deadline checkpoint.
        timed_out: usize,
        /// Trials that never started.
        not_run: usize,
    },
    /// The submission named an uploaded topology the server's content store
    /// no longer holds (evicted under quota, or never uploaded). Re-upload
    /// with [`ServeClient::upload_bytes`] and resubmit — both are
    /// idempotent; [`ServeClient::submit_uploaded`] does the round-trip.
    UnknownTopology {
        /// The missing content digest.
        digest: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded (retry after {retry_after_ms} ms)")
            }
            ClientError::Draining => write!(f, "server draining"),
            ClientError::Rejected(m) => write!(f, "submission rejected: {m}"),
            ClientError::Io(m) => write!(f, "transport failure: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::DeadlineExceeded { timed_out, not_run } => {
                write!(
                    f,
                    "deadline exceeded: {timed_out} timed out, {not_run} not run"
                )
            }
            ClientError::UnknownTopology { digest } => {
                write!(
                    f,
                    "topology {digest:016x} not in the server's content store (re-upload and resubmit)"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Retry schedule for [`ServeClient::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// Five attempts, 50 ms base, 2 s ceiling.
    pub fn new() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }

    /// No retries: one attempt, fail fast.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Self::new()
        }
    }

    /// The wait before `attempt` (0-based) retries a request with this
    /// digest: `base · 2^attempt + jitter`, capped at `max_delay`. Jitter
    /// is deterministic in `(digest, attempt)` so tests are reproducible
    /// while concurrent clients (different digests... or the same digest at
    /// different attempt counts) stay decorrelated.
    pub fn backoff(&self, attempt: u32, digest: u64) -> Duration {
        let base = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let jitter_key =
            fnv1a64(&[digest.to_le_bytes(), u64::from(attempt).to_le_bytes()].concat());
        let jitter =
            Duration::from_millis(jitter_key % (self.base_delay.as_millis().max(1) as u64));
        (base + jitter).min(self.max_delay)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// The parsed result of one accepted submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job digest (hex) echoed by the server.
    pub job: String,
    /// Raw per-trial result lines, in trial-index order — byte-identical
    /// across live, recovered, duplicate, resumed, and cached streams.
    pub trial_lines: Vec<String>,
    /// Outcome taxonomy from the `done` line.
    pub taxonomy: TrialTaxonomy,
    /// Trials recovered from a manifest (or the whole sweep, when cached).
    pub reused: usize,
    /// Whether the server answered from its result cache.
    pub cached: bool,
    /// Whether the server attached this submission to an identical job
    /// already in flight.
    pub duplicate: bool,
}

impl JobResult {
    /// Fraction of trials the server reused instead of re-running.
    pub fn recovered_fraction(&self) -> f64 {
        let total = self.taxonomy.completed
            + self.taxonomy.round_capped
            + self.taxonomy.timed_out
            + self.taxonomy.panicked
            + self.taxonomy.not_run;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }

    /// Errors with the typed deadline taxonomy if any trial timed out or
    /// never ran.
    pub fn ensure_complete(&self) -> Result<&Self, ClientError> {
        if self.taxonomy.timed_out > 0 || self.taxonomy.not_run > 0 {
            return Err(ClientError::DeadlineExceeded {
                timed_out: self.taxonomy.timed_out,
                not_run: self.taxonomy.not_run,
            });
        }
        Ok(self)
    }
}

/// Transport-level accounting for one client session (reconnects are
/// otherwise invisible — results come back as if nothing happened).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Successful connections (1 for an undisturbed session).
    pub connects: u64,
    /// Mid-session reconnect cycles survived.
    pub reconnects: u64,
    /// Replayed lines dropped by the per-job `seq` filter (overlap after a
    /// resume or fallback resubmission).
    pub duplicate_lines_dropped: u64,
    /// Heartbeat verbs sent.
    pub heartbeats_sent: u64,
    /// Per-reconnect recovery latency, in milliseconds: from failure
    /// detection to the first line received on the replacement connection.
    pub recovery_ms: Vec<u64>,
}

/// Transfer accounting for one [`ServeClient::upload_bytes`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadReport {
    /// FNV-1a-64 content digest addressing the graph in the store.
    pub digest: u64,
    /// Canonical encoding size in bytes.
    pub bytes: u64,
    /// Total chunk count at the negotiated chunk size.
    pub chunks: u64,
    /// Chunks transmitted by this call (0 when the digest was already
    /// committed; less than `chunks` when a prior attempt's partial
    /// survived on the server).
    pub chunks_sent: u64,
    /// The server's durable high-water mark at first contact: chunks a
    /// previous (killed or disconnected) attempt already landed.
    pub resumed_from: u64,
    /// Mid-upload reconnect cycles survived.
    pub reconnects: u64,
}

/// A blocking client for one `rumor-serve` endpoint.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
    retry: RetryPolicy,
    heartbeat: Duration,
    max_reconnects: u32,
    max_line_bytes: usize,
}

impl ServeClient {
    /// A client with the default retry policy, a 2 s heartbeat interval,
    /// and up to 32 mid-session reconnects.
    pub fn new(addr: &str) -> Self {
        ServeClient {
            addr: addr.to_string(),
            retry: RetryPolicy::new(),
            heartbeat: Duration::from_secs(2),
            max_reconnects: 32,
            max_line_bytes: MAX_LINE_BYTES,
        }
    }

    /// Replaces the wire-line byte bound (must match the server's
    /// `--max-line-bytes`); upload chunk sizes derive from it.
    pub fn with_max_line_bytes(mut self, max_line_bytes: usize) -> Self {
        self.max_line_bytes = max_line_bytes;
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the heartbeat interval (liveness declares the connection
    /// dead after three unanswered intervals).
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Replaces the mid-session reconnect budget.
    pub fn with_max_reconnects(mut self, max_reconnects: u32) -> Self {
        self.max_reconnects = max_reconnects;
        self
    }

    /// Submits one sweep and blocks until its result stream completes,
    /// surviving connection death by reconnect + `resume` and retrying
    /// shed/draining/connect failures with exponential backoff and
    /// deterministic jitter. Duplicate submissions are free server-side
    /// (digest-keyed cache/manifest), so retries never duplicate work.
    pub fn submit(&self, request: &SubmitRequest) -> Result<JobResult, ClientError> {
        let (mut results, _) = self.run_session(
            std::slice::from_ref(request),
            self.retry,
            self.max_reconnects,
        );
        results.remove(0)
    }

    /// One submission attempt on one connection: no retries, no reconnect.
    pub fn submit_once(&self, request: &SubmitRequest) -> Result<JobResult, ClientError> {
        let (mut results, _) =
            self.run_session(std::slice::from_ref(request), RetryPolicy::none(), 0);
        results.remove(0)
    }

    /// Submits many sweeps over **one** multiplexed session; results come
    /// back in request order. See [`ServeClient::submit_session`] for the
    /// transport accounting.
    pub fn submit_many(&self, requests: &[SubmitRequest]) -> Vec<Result<JobResult, ClientError>> {
        self.submit_session(requests).0
    }

    /// [`ServeClient::submit_many`] plus the session's transport stats
    /// (reconnects survived, duplicate lines dropped, recovery latencies).
    pub fn submit_session(
        &self,
        requests: &[SubmitRequest],
    ) -> (Vec<Result<JobResult, ClientError>>, SessionStats) {
        self.run_session(requests, self.retry, self.max_reconnects)
    }

    /// Sends a `drain` request; `Ok` once the server acknowledges.
    pub fn drain(&self) -> Result<(), ClientError> {
        let value = self.roundtrip("{\"verb\":\"drain\"}")?;
        match value.get("type").and_then(Json::as_str) {
            Some("draining") => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected draining, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ClientError> {
        let value = self.roundtrip("{\"verb\":\"ping\"}")?;
        match value.get("type").and_then(Json::as_str) {
            Some("pong") => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the extended `status` report: scheduler load plus
    /// session-layer counters.
    pub fn status(&self) -> Result<ServerStatus, ClientError> {
        let value = self.roundtrip("{\"verb\":\"status\"}")?;
        if value.get("type").and_then(Json::as_str) != Some("status") {
            return Err(ClientError::Protocol("expected status".to_string()));
        }
        ServerStatus::from_json(&value)
            .ok_or_else(|| ClientError::Protocol("malformed status line".to_string()))
    }

    /// Uploads a graph's canonical CSR encoding into the server's content
    /// store. See [`ServeClient::upload_bytes`] for the transfer contract.
    pub fn upload(&self, graph: &rumor_graphs::Graph) -> Result<UploadReport, ClientError> {
        self.upload_bytes(&rumor_graphs::codec::encode_csr(graph))
    }

    /// Uploads an already-encoded canonical CSR byte string, chunked to fit
    /// the wire-line bound, and blocks until the server commits it.
    ///
    /// The transfer is crash-safe end to end: every chunk carries a CRC and
    /// is acknowledged only once durable, so when the connection dies the
    /// client reconnects, reopens the transfer, and the server's `begin`
    /// ack names the durable high-water mark — the upload resumes exactly
    /// there, never retransmitting landed chunks. Uploading a digest the
    /// store already holds is a no-op answered idempotently.
    pub fn upload_bytes(&self, bytes: &[u8]) -> Result<UploadReport, ClientError> {
        let manifest = manifest_for(bytes, self.max_line_bytes)
            .map_err(|e| ClientError::Rejected(e.to_string()))?;
        let chunks = manifest.chunks();
        let mut report = UploadReport {
            digest: manifest.digest,
            bytes: manifest.bytes,
            chunks,
            chunks_sent: 0,
            resumed_from: 0,
            reconnects: 0,
        };
        let mut first_contact = true;
        let mut reconnects_used = 0u32;
        'session: loop {
            // One closure per connection loss: spend a reconnect or fail.
            let stream = connect_with_retry(&self.addr, manifest.digest, self.retry)?;
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .ok();
            let mut writer = stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?;
            let mut reader = BufReader::new(stream);
            let mut buf: Vec<u8> = Vec::new();

            // (Re)open the transfer. The ack names the durable high-water
            // mark — the only state the resume needs.
            let mut acked = match upload_roundtrip(
                &mut writer,
                &mut reader,
                &mut buf,
                &upload_begin_line(&manifest),
                manifest.digest,
            ) {
                Ok(value) => match upload_answer(&value)? {
                    UploadAnswer::Done => return Ok(report),
                    UploadAnswer::Acked(acked) => acked,
                },
                Err(message) => {
                    if reconnects_used >= self.max_reconnects {
                        return Err(ClientError::Io(message));
                    }
                    reconnects_used += 1;
                    report.reconnects += 1;
                    continue 'session;
                }
            };
            if first_contact {
                report.resumed_from = acked;
                first_contact = false;
            }

            // Lockstep chunk/ack past the high-water mark, then commit.
            while acked < chunks {
                let start = (acked * manifest.chunk_bytes) as usize;
                let end = (start + manifest.chunk_bytes as usize).min(bytes.len());
                let line = upload_chunk_line(manifest.digest, acked, &bytes[start..end]);
                match upload_roundtrip(&mut writer, &mut reader, &mut buf, &line, manifest.digest) {
                    Ok(value) => match upload_answer(&value)? {
                        UploadAnswer::Done => return Ok(report),
                        UploadAnswer::Acked(now) => {
                            report.chunks_sent += 1;
                            acked = now.max(acked + 1);
                        }
                    },
                    Err(message) => {
                        if reconnects_used >= self.max_reconnects {
                            return Err(ClientError::Io(message));
                        }
                        reconnects_used += 1;
                        report.reconnects += 1;
                        continue 'session;
                    }
                }
            }
            match upload_roundtrip(
                &mut writer,
                &mut reader,
                &mut buf,
                &upload_commit_line(manifest.digest),
                manifest.digest,
            ) {
                Ok(value) => match upload_answer(&value)? {
                    UploadAnswer::Done => return Ok(report),
                    UploadAnswer::Acked(_) => {
                        return Err(ClientError::Protocol(
                            "commit answered with an ack".to_string(),
                        ))
                    }
                },
                Err(message) => {
                    if reconnects_used >= self.max_reconnects {
                        return Err(ClientError::Io(message));
                    }
                    reconnects_used += 1;
                    report.reconnects += 1;
                    continue 'session;
                }
            }
        }
    }

    /// Submits a sweep over an uploaded topology, transparently
    /// (re)uploading `encoded` when the server answers `unknown_topology`
    /// (fresh server, or the digest was evicted under quota) — upload and
    /// resubmission are both idempotent, so the round-trip is always safe.
    pub fn submit_uploaded(
        &self,
        request: &SubmitRequest,
        encoded: &[u8],
    ) -> Result<JobResult, ClientError> {
        match self.submit(request) {
            Err(ClientError::UnknownTopology { .. }) => {
                self.upload_bytes(encoded)?;
                self.submit(request)
            }
            other => other,
        }
    }

    fn roundtrip(&self, line: &str) -> Result<Json, ClientError> {
        let io = |e: std::io::Error| ClientError::Io(e.to_string());
        let stream = TcpStream::connect(&self.addr).map_err(io)?;
        let mut writer = stream.try_clone().map_err(io)?;
        writeln!(writer, "{line}").map_err(io)?;
        let mut line = String::new();
        let mut reader = BufReader::new(stream);
        let n = reader.read_line(&mut line).map_err(io)?;
        if n == 0 {
            return Err(ClientError::Io("connection closed".to_string()));
        }
        parse_json(line.trim_end()).map_err(ClientError::Protocol)
    }

    // -- session engine ----------------------------------------------------

    /// Runs one session to completion: dedupes identical digests, drives
    /// every job over a shared connection, reconnects and resumes on
    /// transport death, and maps results back to request order.
    fn run_session(
        &self,
        requests: &[SubmitRequest],
        retry: RetryPolicy,
        max_reconnects: u32,
    ) -> (Vec<Result<JobResult, ClientError>>, SessionStats) {
        let mut stats = SessionStats::default();
        if requests.is_empty() {
            return (Vec::new(), stats);
        }
        // Identical digests share one slot: the server would stream them
        // indistinguishably anyway, and the result is cloned per request.
        let mut slots: Vec<Slot> = Vec::new();
        let mut index_of: Vec<usize> = Vec::with_capacity(requests.len());
        for request in requests {
            let digest = request.digest();
            match slots.iter().position(|slot| slot.digest == digest) {
                Some(i) => index_of.push(i),
                None => {
                    slots.push(Slot::new(request.clone()));
                    index_of.push(slots.len() - 1);
                }
            }
        }
        let first_digest = slots[0].digest;
        let mut reconnects_used = 0u32;
        let mut failure_at: Option<Instant> = None;

        loop {
            match connect_with_retry(&self.addr, first_digest, retry) {
                Err(error) => {
                    fail_open_slots(&mut slots, &error);
                    break;
                }
                Ok(stream) => {
                    stats.connects += 1;
                    match self.drive_connection(
                        stream,
                        &mut slots,
                        retry,
                        &mut stats,
                        &mut failure_at,
                    ) {
                        ConnOutcome::Done => break,
                        ConnOutcome::Lost(error) => {
                            if reconnects_used >= max_reconnects {
                                fail_open_slots(&mut slots, &error);
                                break;
                            }
                            reconnects_used += 1;
                            stats.reconnects += 1;
                            for slot in slots.iter_mut().filter(|s| s.result.is_none()) {
                                slot.active = false;
                                if slot.accepted_once {
                                    slot.resume_next = true;
                                }
                            }
                        }
                    }
                }
            }
        }
        let results = index_of
            .into_iter()
            .map(|i| {
                slots[i].result.clone().unwrap_or_else(|| {
                    Err(ClientError::Io("session ended without result".to_string()))
                })
            })
            .collect();
        (results, stats)
    }

    /// Drives one connection until every slot is terminal or the transport
    /// dies: issues submit/resume lines, demultiplexes responses by job
    /// tag, sends heartbeats, and declares half-open connections dead.
    fn drive_connection(
        &self,
        stream: TcpStream,
        slots: &mut [Slot],
        retry: RetryPolicy,
        stats: &mut SessionStats,
        failure_at: &mut Option<Instant>,
    ) -> ConnOutcome {
        let poll =
            (self.heartbeat / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
        stream.set_read_timeout(Some(poll)).ok();
        let mut writer = match stream.try_clone() {
            Ok(writer) => writer,
            Err(e) => return lost(failure_at, ClientError::Io(e.to_string())),
        };
        let mut reader = BufReader::new(stream);
        let mut buf: Vec<u8> = Vec::new();
        let mut heartbeat_due = Instant::now() + self.heartbeat;
        let mut last_rx = Instant::now();
        let mut heartbeat_outstanding = false;

        loop {
            // (Re)issue requests for every idle, non-terminal slot whose
            // backoff has elapsed.
            let now = Instant::now();
            for slot in slots.iter_mut() {
                if slot.result.is_some() || slot.active || slot.retry_at.is_some_and(|at| now < at)
                {
                    continue;
                }
                slot.retry_at = None;
                let line = if slot.resume_next {
                    resume_request_line(slot.digest, slot.trial_lines.len() as u64)
                } else {
                    slot.request.to_line()
                };
                if writeln!(writer, "{line}").is_err() {
                    return lost(
                        failure_at,
                        ClientError::Io("request write failed".to_string()),
                    );
                }
                slot.active = true;
            }
            if slots.iter().all(|slot| slot.result.is_some()) {
                return ConnOutcome::Done;
            }

            match read_bounded_line(&mut reader, &mut buf, MAX_LINE_BYTES) {
                LineEvent::Line(raw) => {
                    last_rx = Instant::now();
                    heartbeat_outstanding = false;
                    if let Some(at) = failure_at.take() {
                        stats.recovery_ms.push(at.elapsed().as_millis() as u64);
                    }
                    dispatch_line(&raw, slots, retry, stats);
                }
                LineEvent::Tick => {
                    let now = Instant::now();
                    if now >= heartbeat_due {
                        if writeln!(writer, "{{\"verb\":\"heartbeat\"}}").is_err() {
                            return lost(
                                failure_at,
                                ClientError::Io("heartbeat write failed".to_string()),
                            );
                        }
                        stats.heartbeats_sent += 1;
                        heartbeat_outstanding = true;
                        heartbeat_due = now + self.heartbeat;
                    }
                    if heartbeat_outstanding && now.duration_since(last_rx) > self.heartbeat * 3 {
                        return lost(
                            failure_at,
                            ClientError::Io(
                                "connection unresponsive (heartbeats unanswered)".to_string(),
                            ),
                        );
                    }
                }
                LineEvent::Eof => {
                    return lost(
                        failure_at,
                        ClientError::Io("connection closed mid-session".to_string()),
                    )
                }
                LineEvent::TooLong => {
                    return lost(
                        failure_at,
                        ClientError::Protocol("oversized response line".to_string()),
                    )
                }
                LineEvent::Failed(message) => return lost(failure_at, ClientError::Io(message)),
            }
        }
    }
}

/// One deduplicated job inside a session.
#[derive(Debug)]
struct Slot {
    request: SubmitRequest,
    digest: u64,
    job_hex: String,
    /// Framed trial lines as received, in index order — `seq == len + 1` is
    /// the only accepted next line, everything at or below `len` is a
    /// replay duplicate, anything beyond is a gap.
    trial_lines: Vec<String>,
    cached: bool,
    duplicate: bool,
    /// Shed/drain retries consumed.
    attempts: u32,
    /// The server has seen this job on some connection.
    accepted_once: bool,
    /// Re-attach with `resume` (instead of an idempotent resubmit) on the
    /// next issue pass.
    resume_next: bool,
    /// A submit/resume is outstanding on the current connection.
    active: bool,
    retry_at: Option<Instant>,
    result: Option<Result<JobResult, ClientError>>,
}

impl Slot {
    fn new(request: SubmitRequest) -> Slot {
        let digest = request.digest();
        Slot {
            request,
            digest,
            job_hex: format!("{digest:016x}"),
            trial_lines: Vec::new(),
            cached: false,
            duplicate: false,
            attempts: 0,
            accepted_once: false,
            resume_next: false,
            active: false,
            retry_at: None,
            result: None,
        }
    }
}

enum ConnOutcome {
    Done,
    Lost(ClientError),
}

/// Marks the failure-detection instant (for recovery-latency accounting)
/// and wraps the error.
fn lost(failure_at: &mut Option<Instant>, error: ClientError) -> ConnOutcome {
    if failure_at.is_none() {
        *failure_at = Some(Instant::now());
    }
    ConnOutcome::Lost(error)
}

fn fail_open_slots(slots: &mut [Slot], error: &ClientError) {
    for slot in slots.iter_mut().filter(|s| s.result.is_none()) {
        slot.result = Some(Err(error.clone()));
    }
}

fn connect_with_retry(
    addr: &str,
    digest: u64,
    retry: RetryPolicy,
) -> Result<TcpStream, ClientError> {
    let mut last = ClientError::Io("no attempt made".to_string());
    for attempt in 0..retry.max_attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => {
                last = ClientError::Io(e.to_string());
                if attempt + 1 < retry.max_attempts {
                    std::thread::sleep(retry.backoff(attempt, digest));
                }
            }
        }
    }
    Err(last)
}

/// How long an upload waits for its lockstep answer before declaring the
/// connection dead and reconnecting.
const UPLOAD_RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// A terminal-or-progress upload answer (errors already mapped).
enum UploadAnswer {
    /// `upload_done`: the digest is committed.
    Done,
    /// `upload_ack {acked}`: the durable high-water mark.
    Acked(u64),
}

/// Maps one upload-tagged response line to progress, completion, or a typed
/// rejection (`upload_error` is never retryable transport-side: the server
/// names a protocol or validation cause).
fn upload_answer(value: &Json) -> Result<UploadAnswer, ClientError> {
    match value.get("type").and_then(Json::as_str) {
        Some("upload_done") => Ok(UploadAnswer::Done),
        Some("upload_ack") => Ok(UploadAnswer::Acked(
            value.get("acked").and_then(Json::as_u64).unwrap_or(0),
        )),
        Some("upload_error") => Err(ClientError::Rejected(
            value
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified upload error")
                .to_string(),
        )),
        other => Err(ClientError::Protocol(format!(
            "unexpected upload answer {other:?}"
        ))),
    }
}

/// Sends one upload line and blocks for the matching `upload_*` answer
/// (heartbeats and unrelated lines are skipped). `Err` is a transport-level
/// loss: the caller reconnects and resumes.
fn upload_roundtrip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    line: &str,
    digest: u64,
) -> Result<Json, String> {
    if writeln!(writer, "{line}").is_err() {
        return Err("upload write failed".to_string());
    }
    let hex = format!("{digest:016x}");
    let deadline = Instant::now() + UPLOAD_RESPONSE_TIMEOUT;
    loop {
        match read_bounded_line(reader, buf, MAX_LINE_BYTES) {
            LineEvent::Line(raw) => {
                let Ok(value) = parse_json(&raw) else {
                    continue;
                };
                let kind = value.get("type").and_then(Json::as_str).unwrap_or("");
                if !kind.starts_with("upload_") {
                    continue;
                }
                if value.get("digest").and_then(Json::as_str) == Some(&hex) {
                    return Ok(value);
                }
            }
            LineEvent::Tick => {
                if Instant::now() >= deadline {
                    return Err("upload answer timed out".to_string());
                }
            }
            LineEvent::Eof => return Err("connection closed mid-upload".to_string()),
            LineEvent::TooLong => return Err("oversized response line".to_string()),
            LineEvent::Failed(message) => return Err(message),
        }
    }
}

/// Applies one response line to the session's slots.
fn dispatch_line(raw: &str, slots: &mut [Slot], retry: RetryPolicy, stats: &mut SessionStats) {
    let Ok(value) = parse_json(raw) else {
        let message = format!("unparseable response line: {raw}");
        for slot in slots.iter_mut().filter(|s| s.result.is_none() && s.active) {
            slot.result = Some(Err(ClientError::Protocol(message.clone())));
        }
        return;
    };
    let kind = value.get("type").and_then(Json::as_str).unwrap_or("");
    let tag = value.get("job").and_then(Json::as_str);
    let slot_index = tag.and_then(|hex| slots.iter().position(|s| s.job_hex == hex));
    match kind {
        "heartbeat" | "pong" => {}
        "protocol_error" => {
            // The server is about to close the connection; the reader will
            // see EOF and the reconnect path takes over.
        }
        "accepted" => {
            if let Some(slot) = slot_index.map(|i| &mut slots[i]) {
                slot.accepted_once = true;
                slot.resume_next = false;
                slot.cached |= value.get("cached").and_then(Json::as_bool).unwrap_or(false);
                slot.duplicate |= value
                    .get("duplicate")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
            }
        }
        "resumed" => {
            if let Some(slot) = slot_index.map(|i| &mut slots[i]) {
                slot.accepted_once = true;
            }
        }
        "unknown_topology" => {
            // The content store no longer holds this submission's uploaded
            // topology: terminal for this session, typed so the caller can
            // re-upload and resubmit (both idempotent).
            let digest = value
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .unwrap_or(0);
            if let Some(slot) = slot_index.map(|i| &mut slots[i]) {
                if slot.result.is_none() {
                    slot.result = Some(Err(ClientError::UnknownTopology { digest }));
                }
            }
        }
        "unknown_job" => {
            // The server no longer knows this digest (restart): fall back
            // to an idempotent resubmission — the manifest replays recorded
            // trials from seq 1 and the seq filter drops our held prefix.
            if let Some(slot) = slot_index.map(|i| &mut slots[i]) {
                slot.resume_next = false;
                slot.active = false;
            }
        }
        "trial" => {
            let Some(slot) = slot_index.map(|i| &mut slots[i]) else {
                return;
            };
            if slot.result.is_some() {
                return;
            }
            let expected = slot.trial_lines.len() as u64 + 1;
            match value.get("seq").and_then(Json::as_u64) {
                Some(seq) if seq < expected => stats.duplicate_lines_dropped += 1,
                Some(seq) if seq == expected => slot.trial_lines.push(raw.to_string()),
                Some(seq) => {
                    slot.result = Some(Err(ClientError::Protocol(format!(
                        "sequence gap: got seq {seq}, expected {expected}"
                    ))));
                }
                None => {
                    slot.result = Some(Err(ClientError::Protocol(
                        "trial line without seq".to_string(),
                    )));
                }
            }
        }
        "done" => {
            let Some(slot) = slot_index.map(|i| &mut slots[i]) else {
                return;
            };
            if slot.result.is_some() {
                return;
            }
            let count = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0) as usize;
            let taxonomy = TrialTaxonomy {
                completed: count("completed"),
                round_capped: count("round_capped"),
                timed_out: count("timed_out"),
                panicked: count("panicked"),
                not_run: count("not_run"),
            };
            let trials = taxonomy.completed
                + taxonomy.round_capped
                + taxonomy.timed_out
                + taxonomy.panicked
                + taxonomy.not_run;
            if slot.trial_lines.len() != trials {
                slot.result = Some(Err(ClientError::Protocol(format!(
                    "done after {} of {trials} trial lines",
                    slot.trial_lines.len()
                ))));
                return;
            }
            slot.cached |= value.get("cached").and_then(Json::as_bool).unwrap_or(false);
            slot.result = Some(Ok(JobResult {
                job: slot.job_hex.clone(),
                trial_lines: slot.trial_lines.clone(),
                taxonomy,
                reused: count("reused"),
                cached: slot.cached,
                duplicate: slot.duplicate,
            }));
        }
        "overloaded" => {
            let retry_after_ms = value
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(100);
            let error = ClientError::Overloaded { retry_after_ms };
            match slot_index {
                Some(i) => retry_or_fail(&mut slots[i], error, Some(retry_after_ms), retry),
                None => {
                    for slot in slots.iter_mut().filter(|s| s.result.is_none() && s.active) {
                        retry_or_fail(slot, error.clone(), Some(retry_after_ms), retry);
                    }
                }
            }
        }
        "draining" => match slot_index {
            Some(i) => retry_or_fail(&mut slots[i], ClientError::Draining, None, retry),
            None => {
                for slot in slots.iter_mut().filter(|s| s.result.is_none() && s.active) {
                    retry_or_fail(slot, ClientError::Draining, None, retry);
                }
            }
        },
        "error" => {
            let message = value
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string();
            match slot_index {
                Some(i) => slots[i].result = Some(Err(ClientError::Rejected(message))),
                None => {
                    for slot in slots.iter_mut().filter(|s| s.result.is_none() && s.active) {
                        slot.result = Some(Err(ClientError::Rejected(message.clone())));
                    }
                }
            }
        }
        // Unknown line types are skipped (forward compatibility), matching
        // the parser's tolerance for unknown fields.
        _ => {}
    }
}

/// Consumes one shed/drain answer: schedule a retry on this session (the
/// server hint and the backoff schedule both respected) or, with the retry
/// budget exhausted, make the typed error terminal.
fn retry_or_fail(
    slot: &mut Slot,
    error: ClientError,
    wait_hint_ms: Option<u64>,
    retry: RetryPolicy,
) {
    if slot.result.is_some() {
        return;
    }
    slot.active = false;
    slot.attempts += 1;
    if slot.attempts >= retry.max_attempts {
        slot.result = Some(Err(error));
        return;
    }
    let mut wait = retry.backoff(slot.attempts - 1, slot.digest);
    if let Some(ms) = wait_hint_ms {
        wait = wait.max(Duration::from_millis(ms));
    }
    slot.retry_at = Some(Instant::now() + wait);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_jittered_and_caps() {
        let policy = RetryPolicy::new();
        let a0 = policy.backoff(0, 7);
        let a1 = policy.backoff(1, 7);
        let a5 = policy.backoff(10, 7);
        assert!(a1 > a0, "backoff must grow: {a0:?} vs {a1:?}");
        assert_eq!(a5, policy.max_delay, "backoff must cap");
        // Deterministic…
        assert_eq!(policy.backoff(0, 7), a0);
        // …but decorrelated across digests.
        assert_ne!(policy.backoff(0, 7), policy.backoff(0, 8));
        // Attempt counts beyond the shift width saturate instead of
        // wrapping.
        assert_eq!(policy.backoff(40, 7), policy.max_delay);
    }

    #[test]
    fn deadline_taxonomy_is_a_typed_error() {
        let result = JobResult {
            job: "0".to_string(),
            trial_lines: Vec::new(),
            taxonomy: TrialTaxonomy {
                completed: 2,
                timed_out: 1,
                not_run: 1,
                ..TrialTaxonomy::default()
            },
            reused: 1,
            cached: false,
            duplicate: false,
        };
        assert_eq!(
            result.ensure_complete(),
            Err(ClientError::DeadlineExceeded {
                timed_out: 1,
                not_run: 1
            })
        );
        assert!((result.recovered_fraction() - 0.25).abs() < 1e-12);
        let clean = JobResult {
            taxonomy: TrialTaxonomy {
                completed: 4,
                ..TrialTaxonomy::default()
            },
            ..result
        };
        assert!(clean.ensure_complete().is_ok());
    }

    #[test]
    fn connection_refused_is_a_typed_io_error_after_retries() {
        // Port 1 on localhost: reliably refused, so the retry loop runs to
        // exhaustion and surfaces Io — quickly, with a fail-fast policy.
        let client = ServeClient::new("127.0.0.1:1").with_retry(RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        });
        let request = SubmitRequest::new(
            "t",
            crate::serve::protocol::TopologySpec::new("star", 8),
            "push",
            1,
        );
        match client.submit(&request) {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn seq_filter_drops_replays_and_rejects_gaps() {
        let request = SubmitRequest::new(
            "t",
            crate::serve::protocol::TopologySpec::new("star", 8),
            "push",
            2,
        );
        let digest = request.digest();
        let mut slots = vec![Slot::new(request)];
        slots[0].active = true;
        let mut stats = SessionStats::default();
        let frame = |seq: u64, index: usize| {
            format!(
                "{{\"type\":\"trial\",\"job\":\"{digest:016x}\",\"seq\":{seq},\"index\":{index},\"status\":\"not-run\"}}"
            )
        };
        let retry = RetryPolicy::none();
        dispatch_line(&frame(1, 0), &mut slots, retry, &mut stats);
        // A replayed seq 1 is dropped, not duplicated.
        dispatch_line(&frame(1, 0), &mut slots, retry, &mut stats);
        dispatch_line(&frame(2, 1), &mut slots, retry, &mut stats);
        assert_eq!(slots[0].trial_lines.len(), 2);
        assert_eq!(stats.duplicate_lines_dropped, 1);
        // A gap is a protocol violation, never a silent loss.
        dispatch_line(&frame(9, 5), &mut slots, retry, &mut stats);
        assert!(matches!(
            slots[0].result,
            Some(Err(ClientError::Protocol(_)))
        ));
    }
}
