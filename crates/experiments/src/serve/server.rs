//! The blocking TCP front of `rumor-serve`: one blocking accept loop, one
//! session per connection, no async runtime (vendored-deps constraint —
//! std only).
//!
//! ## Sessions
//!
//! A connection is a multiplexed **session** of exactly two threads: a
//! reader that parses any number of request lines, and a writer that drains
//! the session's outbox to the socket. Every accepted job streams without a
//! thread of its own: the session subscribes its outbox to the job, and the
//! worker that emits a trial line frames it with `"job"`/`"seq"` tags (see
//! [`crate::serve::protocol`]) and pushes it straight into every subscribed
//! outbox. Many jobs therefore stream concurrently over one connection,
//! and a `resume` re-attaches to a live or cached job replaying exactly
//! the suffix past the client's `last_seq`.
//!
//! ## Liveness
//!
//! The reader is bounded in both dimensions: a line longer than the
//! configured bound ([`crate::serve::protocol::MAX_LINE_BYTES`] by default,
//! [`ServeConfig::with_max_line_bytes`] to change it) answers with a typed
//! `protocol_error` and closes (a
//! hostile client cannot grow buffers without limit), and a connection that
//! sends nothing — not even a heartbeat — for the configured idle timeout
//! is reclaimed, so half-open TCP peers cannot leak session threads.
//!
//! The accept loop blocks in `accept`. A drain — the `drain` verb or
//! [`ServerHandle::drain`] — stops admission and then opens one loopback
//! connection to wake it; a connection accepted while draining is dropped
//! and the loop exits. Once the scheduler has finished the drain, every
//! session reader closes at its next read timeout, quiet or not, so the
//! process can stop without signal handling
//! (the crate forbids `unsafe`, so `SIGTERM` cannot be trapped in-process;
//! kill-safety comes from the scheduler's atomic manifests and checkpoints
//! instead — see the module docs of [`crate::serve`]).

use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::serve::protocol::{
    accepted_line, draining_line, error_line, heartbeat_line, overloaded_line, parse_request,
    protocol_error_line, read_bounded_line, resumed_line, status_line, unknown_job_line,
    unknown_topology_line, upload_ack_line, upload_done_line, upload_error_line,
    upload_status_line, LineEvent, Request, ServerStatus,
};
use crate::serve::scheduler::{Lookup, Scheduler, ServeConfig, ServeStats, Submission, Subscriber};
use crate::serve::store::UploadState;
use crate::serve::sync::Outbox;

/// Session-layer counters (the non-scheduler half of the `status` verb).
#[derive(Debug, Default)]
struct SessionCounters {
    opened: AtomicU64,
    open: AtomicU64,
    resumes: AtomicU64,
    /// Charged by the jobs that stream into resumed sessions.
    replayed_lines: Arc<AtomicU64>,
    heartbeats: AtomicU64,
    protocol_errors: AtomicU64,
    idle_reaped: AtomicU64,
}

/// A running serve instance: listener + scheduler + session counters.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    handle: ServerHandle,
    connections: Arc<AtomicUsize>,
    idle_timeout: Duration,
    max_line_bytes: usize,
}

/// A cheap handle onto a running [`Server`] for in-process control
/// (tests, benches): counters and programmatic drain.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    scheduler: Arc<Scheduler>,
    counters: Arc<SessionCounters>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> ServeStats {
        self.scheduler.stats()
    }

    /// Current scheduler load plus session-layer counters (the `status`
    /// verb, without the round-trip).
    pub fn status(&self) -> ServerStatus {
        let stats = self.scheduler.stats();
        let store = self.scheduler.store().counters();
        let counters = &self.counters;
        ServerStatus {
            queue_depth: stats.pending_trials,
            active_jobs: stats.pending_jobs,
            executed: stats.trials_executed,
            shed: stats.shed,
            cache_hits: stats.cache_hits,
            duplicate_hits: stats.duplicate_hits,
            open_sessions: counters.open.load(Ordering::Relaxed),
            sessions_opened: counters.opened.load(Ordering::Relaxed),
            resumes: counters.resumes.load(Ordering::Relaxed),
            replayed_lines: counters.replayed_lines.load(Ordering::Relaxed),
            heartbeats: counters.heartbeats.load(Ordering::Relaxed),
            protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
            idle_reaped: counters.idle_reaped.load(Ordering::Relaxed),
            graphs_stored: store.graphs_stored,
            store_bytes: store.store_bytes,
            evictions: store.evictions,
            partial_uploads: store.partial_uploads,
            failed_validations: store.failed_validations,
        }
    }

    /// Requests a graceful drain, as if a `drain` verb had arrived: stops
    /// admission, then wakes the blocking accept loop with one loopback
    /// connection (connect errors are ignored — a listener that is gone
    /// needs no waking).
    pub fn drain(&self) {
        self.scheduler.begin_drain();
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
    }
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port) and starts the
    /// worker pool.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let idle_timeout = config.idle_timeout;
        let max_line_bytes = config.max_line_bytes;
        Ok(Server {
            listener,
            handle: ServerHandle {
                scheduler: Arc::new(Scheduler::start(config)?),
                counters: Arc::new(SessionCounters::default()),
                addr,
            },
            connections: Arc::new(AtomicUsize::new(0)),
            idle_timeout,
            max_line_bytes,
        })
    }

    /// The bound address (after an ephemeral-port bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A control handle that outlives `run`.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Serves until drained: accepts connections, spawning one session per
    /// connection, and returns once a drain request has stopped admission,
    /// in-flight work has finished or checkpointed, and open connections
    /// have unwound (bounded by the configured grace).
    pub fn run(self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.handle.scheduler.draining() {
                break; // the drain's wake-up connection, or a late client
            }
            let handle = self.handle.clone();
            let connections = Arc::clone(&self.connections);
            let idle_timeout = self.idle_timeout;
            let max_line_bytes = self.max_line_bytes;
            connections.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &handle, idle_timeout, max_line_bytes);
                connections.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // Drain: workers finish or checkpoint their current trial, every
        // unfinished job ends its streams with a job-tagged `draining`
        // line, then sessions unwind: each reader sees the finished drain
        // at its next read timeout, so an idle client delays the exit by
        // at most one poll interval.
        self.handle.scheduler.finish_drain();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Session plumbing
// ---------------------------------------------------------------------------

fn writer_loop(outbox: &Outbox, stream: TcpStream) {
    let mut writer = std::io::BufWriter::new(stream);
    while let Some(line) = outbox.pop() {
        if writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            // A dead peer: close the outbox so every pusher — the reader
            // and the jobs streaming here — stops producing.
            outbox.close();
            return;
        }
    }
}

/// The read-timeout granularity: fine enough to honor small (test-sized)
/// idle timeouts, coarse enough not to spin.
fn poll_interval(idle_timeout: Duration) -> Duration {
    (idle_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(500))
}

fn handle_connection(
    stream: TcpStream,
    handle: &ServerHandle,
    idle_timeout: Duration,
    max_line_bytes: usize,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(poll_interval(idle_timeout)))
        .ok();
    // A write stalled this long means a dead or wedged peer; the writer
    // closes the outbox and the session unwinds instead of blocking forever.
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok();
    let counters = &handle.counters;
    counters.opened.fetch_add(1, Ordering::Relaxed);
    counters.open.fetch_add(1, Ordering::Relaxed);

    let outbox = Arc::new(Outbox::default());
    let writer = {
        let outbox = Arc::clone(&outbox);
        let stream = stream.try_clone()?;
        std::thread::spawn(move || writer_loop(&outbox, stream))
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut idle_deadline = Instant::now() + idle_timeout;

    // A closed outbox here means the writer died.
    while !outbox.is_closed() {
        match read_bounded_line(&mut reader, &mut buf, max_line_bytes) {
            LineEvent::Tick => {
                // A finished drain has queued every line this session is
                // owed; a quiet client must not hold the shutdown open.
                if handle.scheduler.drained() {
                    break;
                }
                if Instant::now() >= idle_deadline {
                    counters.idle_reaped.fetch_add(1, Ordering::Relaxed);
                    outbox.push(protocol_error_line("idle timeout: no request or heartbeat"));
                    break;
                }
            }
            LineEvent::Eof | LineEvent::Failed(_) => break,
            LineEvent::TooLong => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                outbox.push(protocol_error_line(&format!(
                    "line exceeds {max_line_bytes} bytes"
                )));
                break;
            }
            LineEvent::Line(line) => {
                idle_deadline = Instant::now() + idle_timeout;
                if line.is_empty() {
                    continue;
                }
                match parse_request(&line) {
                    Err(message) => {
                        // An unparseable line cannot be correlated to a job;
                        // answer and close, like the pre-session server.
                        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        outbox.push(error_line(None, &message));
                        break;
                    }
                    Ok(request) => {
                        if !handle_request(request, handle, &outbox) {
                            break;
                        }
                    }
                }
            }
        }
    }

    // Seal the outbox: the jobs streaming here drop their subscriptions on
    // their next push, and the writer flushes whatever is queued and exits.
    outbox.close();
    let _ = writer.join();
    counters.open.fetch_sub(1, Ordering::Relaxed);
    Ok(())
}

/// Dispatches one parsed request inside a session. Returns `false` when the
/// session should close (the `drain` verb: answer, then disconnect).
fn handle_request(request: Request, handle: &ServerHandle, outbox: &Arc<Outbox>) -> bool {
    let scheduler = &handle.scheduler;
    let subscriber = |last_seq: u64, replayed: Option<Arc<AtomicU64>>| {
        Subscriber::new(Arc::clone(outbox), last_seq, replayed)
    };
    match request {
        Request::Ping => {
            outbox.push("{\"type\":\"pong\"}".to_string());
        }
        Request::Heartbeat => {
            handle.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
            outbox.push(heartbeat_line());
        }
        Request::Drain => {
            handle.drain();
            outbox.push(draining_line(None));
            return false;
        }
        Request::Status => {
            outbox.push(status_line(&handle.status()));
        }
        Request::Submit(request) => {
            let digest = request.digest();
            let trials = request.trials;
            match scheduler.submit(request) {
                Submission::Rejected(message) => {
                    outbox.push(error_line(Some(digest), &message));
                }
                Submission::Draining => {
                    outbox.push(draining_line(Some(digest)));
                }
                Submission::Overloaded { retry_after_ms } => {
                    outbox.push(overloaded_line(Some(digest), retry_after_ms));
                }
                Submission::Cached(cached) => {
                    outbox.push(accepted_line(digest, trials, true, false));
                    cached.subscribe(subscriber(0, None));
                }
                Submission::Attached { job, duplicate } => {
                    outbox.push(accepted_line(digest, trials, false, duplicate));
                    job.subscribe(subscriber(0, None));
                }
                Submission::UnknownTopology { topology } => {
                    outbox.push(unknown_topology_line(digest, topology));
                }
            }
        }
        Request::UploadBegin(manifest) => {
            let digest = manifest.digest;
            match scheduler.store().begin(manifest) {
                Ok(UploadState::Committed { bytes }) => {
                    outbox.push(upload_done_line(digest, bytes));
                }
                Ok(UploadState::Partial { acked, .. }) => {
                    outbox.push(upload_ack_line(digest, acked));
                }
                // `begin` never answers Unknown (it creates the partial);
                // ack from zero for exhaustiveness.
                Ok(UploadState::Unknown) => {
                    outbox.push(upload_ack_line(digest, 0));
                }
                Err(e) => {
                    outbox.push(upload_error_line(digest, &e.to_string()));
                }
            }
        }
        Request::UploadChunk {
            digest,
            index,
            payload,
            crc,
        } => match scheduler.store().chunk(digest, index, &payload, crc) {
            Ok(acked) => {
                outbox.push(upload_ack_line(digest, acked));
            }
            Err(e) => {
                outbox.push(upload_error_line(digest, &e.to_string()));
            }
        },
        Request::UploadCommit { digest } => match scheduler.store().commit(digest) {
            Ok(bytes) => {
                outbox.push(upload_done_line(digest, bytes));
            }
            Err(e) => {
                outbox.push(upload_error_line(digest, &e.to_string()));
            }
        },
        Request::UploadStatus { digest } => {
            // For a committed entry "resume progress" is moot; acked and
            // chunks both carry the stored byte size.
            let (state, acked, chunks) = match scheduler.store().status(digest) {
                UploadState::Committed { bytes } => ("committed", bytes, bytes),
                UploadState::Partial { acked, chunks } => ("partial", acked, chunks),
                UploadState::Unknown => ("unknown", 0, 0),
            };
            outbox.push(upload_status_line(digest, state, acked, chunks));
        }
        Request::Resume { job, last_seq } => {
            handle.counters.resumes.fetch_add(1, Ordering::Relaxed);
            let replayed = Some(Arc::clone(&handle.counters.replayed_lines));
            match scheduler.lookup(job) {
                Lookup::Running(running) => {
                    outbox.push(resumed_line(job, running.trials, last_seq));
                    running.subscribe(subscriber(last_seq, replayed));
                }
                Lookup::Cached(cached) => {
                    outbox.push(resumed_line(job, cached.trial_lines.len(), last_seq));
                    cached.subscribe(subscriber(last_seq, replayed));
                }
                Lookup::Unknown => {
                    outbox.push(unknown_job_line(job));
                }
            }
        }
    }
    true
}
