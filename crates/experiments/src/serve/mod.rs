//! Simulation-as-a-service: the `rumor-serve` server and client library.
//!
//! A std-only (blocking TCP, thread-per-core — the vendored-deps rule
//! forbids an async runtime) long-running server that accepts
//! newline-delimited JSON sweep submissions, validates them through
//! [`rumor_core::SimulationSpec::validate`], runs them on a shared worker
//! pool with **per-client round-robin fairness**, and streams one result
//! line per trial back. Robustness is mechanical, not best-effort:
//!
//! * **Admission control + load shedding** — a bounded submission queue
//!   ([`AdmissionLimits`]); past it, submissions get a typed
//!   `overloaded {retry_after_ms}` rejection instead of queueing without
//!   bound ([`shed`]).
//! * **Per-request deadlines** — a submission's optional `deadline_ms` is
//!   enforced at chunk cadence: running trials suspend into the existing
//!   `TrialOutcome::TimedOut` taxonomy, unclaimed ones report `NotRun`, and
//!   the connection always terminates with a typed line — never a hang.
//! * **Graceful degradation + shutdown** — a `drain` request stops
//!   admission, lets in-flight trials finish or checkpoint (PR 6 snapshot
//!   sink), and exits. Hard kills (`SIGKILL`/`SIGTERM` — this crate forbids
//!   `unsafe`, so no in-process signal handler) are crash-equivalent by
//!   design: every finished trial is already in a digest-keyed manifest
//!   written through atomic renames, so a restarted server loses **zero
//!   completed trials**.
//! * **Multiplexed sessions** — a connection carries any number of
//!   concurrent jobs on two threads (reader and writer): workers push each
//!   job's `(job, seq)`-tagged lines straight into the outbox of every
//!   session subscribed to it, and a `resume {job, last_seq}` verb
//!   re-attaches a client to an in-flight or cached job replaying exactly
//!   the missing suffix, byte-identical to an uninterrupted stream
//!   ([`protocol`], [`Server`]).
//! * **Liveness** — `heartbeat` keepalives plus a server-side idle read
//!   timeout reclaim the threads behind half-open connections; the reader
//!   is byte-bounded ([`protocol::MAX_LINE_BYTES`]), so hostile framing
//!   gets a typed `protocol_error` instead of unbounded buffers.
//! * **Client-side resilience** — [`ServeClient`] survives connection
//!   death by transparent reconnect + resume (the per-job `seq` filter
//!   drops replayed overlap — zero lost, zero duplicated lines) and
//!   retries shed, draining, and connect failures with exponential backoff
//!   plus deterministic jitter; submissions are idempotent (digest-keyed),
//!   so retries are free cache/manifest hits.
//! * **Result cache** — a spec-digest → result cache answers duplicate
//!   submissions in O(1) with byte-identical trial lines.
//! * **Deterministic network chaos** — [`FaultNet`] is an in-process TCP
//!   proxy injecting drops, resets, truncations, and stalls on a seed-keyed
//!   (Philox) schedule — optionally on the client→server pump too
//!   ([`FaultSpec::fault_upstream`]) — so the `serve_chaos` suite pins the
//!   zero-loss guarantees under reproducible network failure.
//! * **Crash-safe remote topologies** — chunked, resumable CSR uploads land
//!   in a digest-addressed [`ContentStore`] under `--state-dir`: per-chunk
//!   CRC plus a whole-graph digest check before an atomic tmp+rename
//!   publish, partial uploads persisted so a killed client resumes from the
//!   ack'd high-water mark, structural validation at commit (typed
//!   [`UploadError`], never a panic), and an LRU byte quota that evicts
//!   only unreferenced graphs — submissions naming an evicted digest get a
//!   typed `unknown_topology` cue to re-upload idempotently ([`store`]).
//!
//! See the README's *Serving* section for the wire protocol and
//! operational guarantees, and `rumor-serve --help` for the binary.

pub mod client;
pub mod faultnet;
pub mod protocol;
mod scheduler;
mod server;
pub mod shed;
pub mod store;
mod sync;

pub use client::{ClientError, JobResult, RetryPolicy, ServeClient, SessionStats, UploadReport};
pub use faultnet::{FaultKind, FaultNet, FaultReport, FaultSpec};
pub use protocol::{ServerStatus, SubmitRequest, TopologySpec, UploadManifest, MAX_LINE_BYTES};
pub use scheduler::{ServeConfig, ServeStats};
pub use server::{Server, ServerHandle};
pub use shed::AdmissionLimits;
pub use store::{ContentStore, StoreCounters, UploadError, UploadState};
