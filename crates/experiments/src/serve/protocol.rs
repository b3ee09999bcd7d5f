//! The `rumor-serve` wire protocol: newline-delimited JSON over TCP, with
//! multiplexed sessions.
//!
//! The workspace's `serde` is a vendored no-op facade (marker traits only),
//! so the wire layer is hand-rolled: a strict parser for a small JSON value
//! type ([`Json`]) plus line builders with **fixed field order**, which is
//! what makes result lines byte-identical across live execution, manifest
//! recovery, resume replay, and cache replay.
//!
//! A connection is a **session**: the client may send any number of request
//! lines, and every job-scoped response line carries the job digest plus a
//! monotone per-job sequence number, so one connection can carry many
//! concurrent jobs and a re-attached connection can name exactly where the
//! previous one died:
//!
//! ```text
//! → {"verb":"submit","client":"alice","topology":{"family":"complete","n":64},
//!    "protocol":"push","trials":8,"seed":1,"max_rounds":100000}
//! ← {"type":"accepted","job":"a1b2c3d4e5f60718","seq":0,"trials":8,"cached":false,"duplicate":false}
//! ← {"type":"trial","job":"a1b2c3d4e5f60718","seq":1,"index":0,"status":"completed",
//!    "rounds":9,"iv":64,"ia":0,"msgs":230}
//! ← …one line per trial, in trial-index order; trial i carries seq i+1…
//! ← {"type":"done","job":"a1b2c3d4e5f60718","seq":9,"completed":8,"round_capped":0,
//!    "timed_out":0,"panicked":0,"not_run":0,"reused":0,"cached":false}
//!
//! → {"verb":"resume","job":"a1b2c3d4e5f60718","last_seq":3}
//! ← {"type":"resumed","job":"a1b2c3d4e5f60718","seq":3,"trials":8}
//! ← …trial lines with seq 4.. — exactly the missing suffix, byte-identical…
//!
//! → {"verb":"heartbeat"}        ← {"type":"heartbeat"}
//!
//! → {"verb":"upload_begin","digest":"9f8e…","n":1002,"m":1001,"bytes":12060,
//!    "chunk_bytes":4096,"chunks":3}
//! ← {"type":"upload_ack","digest":"9f8e…","acked":0}
//! → {"verb":"upload_chunk","digest":"9f8e…","index":0,"payload":"5243…","crc":1234567}
//! ← {"type":"upload_ack","digest":"9f8e…","acked":1}
//! → …chunks strictly in order; a reconnecting client asks
//!    {"verb":"upload_status"} and restarts at the ack'd high-water mark…
//! → {"verb":"upload_commit","digest":"9f8e…"}
//! ← {"type":"upload_done","digest":"9f8e…","bytes":12060}
//! ```
//!
//! Overload, drain, and validation failures answer with a single typed line
//! (`overloaded`, `draining`, `error`) — tagged with the job digest when
//! they answer a `submit`/`resume` inside a session — so a request never
//! hangs. A request line longer than [`MAX_LINE_BYTES`] is answered with a
//! typed `protocol_error` line and the connection closes (bounded reader;
//! a hostile client cannot grow server buffers without limit).

use std::collections::BTreeMap;
use std::io::{BufRead, Read};

use rumor_core::{ProtocolKind, SimulationSpec};
use rumor_graphs::{AnyTopology, GeneratedGraph, HubCachedGraph, ImplicitGraph};

use crate::runner::TrialOutcome;

/// Default upper bound on one NDJSON line, both directions. The server's
/// bounded reader answers anything longer with a typed `protocol_error`
/// line and closes the connection instead of growing `read_line` buffers
/// without limit; the client applies the same bound to response lines.
/// Configurable per server via `ServeConfig::with_max_line_bytes` (CLI
/// `--max-line-bytes`); upload chunk sizes derive from the configured bound
/// through [`chunk_payload_bytes`].
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// One step of the bounded line reader.
pub(crate) enum LineEvent {
    /// A complete line (newline and trailing whitespace stripped).
    Line(String),
    /// The peer closed the connection.
    Eof,
    /// The line exceeded the byte bound — protocol violation.
    TooLong,
    /// The read timeout elapsed with no complete line; the caller checks
    /// its deadlines, then reads again.
    Tick,
    /// A non-retryable I/O error, with its message.
    Failed(String),
}

/// Reads the next line of either end of a connection without ever growing
/// `buf` past `max_line_bytes`: each read is capped at the remaining
/// budget, partial lines accumulate across timeout ticks, and a line that
/// fills the budget without a newline is a [`LineEvent::TooLong`]
/// violation.
pub(crate) fn read_bounded_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max_line_bytes: usize,
) -> LineEvent {
    loop {
        let remaining = (max_line_bytes + 1).saturating_sub(buf.len());
        if remaining == 0 {
            return LineEvent::TooLong;
        }
        match (&mut *reader).take(remaining as u64).read_until(b'\n', buf) {
            Ok(0) => return LineEvent::Eof,
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    if buf.len() > max_line_bytes {
                        return LineEvent::TooLong;
                    }
                    let line = String::from_utf8_lossy(buf).trim_end().to_string();
                    buf.clear();
                    return LineEvent::Line(line);
                }
                // No newline yet: either the take-cap was exhausted (the
                // next iteration reports TooLong) or the peer paused
                // mid-line; keep accumulating.
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return LineEvent::Tick
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return LineEvent::Failed(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------------

/// A parsed JSON value (the subset the protocol uses; no exponent-heavy
/// float edge cases beyond what `f64::from_str` accepts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (kept exact so `u64` seeds survive the wire).
    Int(i128),
    /// A non-integer number literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (sorted keys; duplicate keys keep the last value).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed by this protocol;
                        // lone surrogates map to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run up to the next quote or escape and
                // validate it once: both are ASCII, so the run ends on a
                // scalar boundary of the `&str` input, and each byte is
                // looked at a bounded number of times however long the line.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |k| *pos + k);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err("expected ',' or ']'".to_string()),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err("expected object key".to_string());
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err("expected ':'".to_string());
        }
        *pos += 1;
        map.insert(key, parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err("expected ',' or '}'".to_string()),
        }
    }
}

/// Escapes a string for embedding in a JSON line.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The topology half of a submission: a named family plus its parameters,
/// or a reference to a previously uploaded graph.
///
/// Families map onto the workspace's cheap backends — implicit graphs for
/// the paper's structured families, the seed-keyed generated backend for
/// random ones — so a family submission never ships an edge list over the
/// wire. Measured graphs go the other way: the client uploads a canonical
/// CSR encoding once (`upload_begin`/`upload_chunk`/`upload_commit`), then
/// submits [`TopologySpec::Uploaded`] naming its content digest; the server
/// resolves the digest through its content store.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// A parameterized family built server-side.
    Family {
        /// Family name: `complete`, `star`, `double-star`, `path`, `cycle`,
        /// `hypercube` (where `n` is the dimension), `gnp`, or `chung-lu`.
        family: String,
        /// Vertex-count parameter (leaves for the star families, dimension
        /// for `hypercube`).
        n: usize,
        /// Target mean degree (`gnp`, `chung-lu` only).
        degree: f64,
        /// Power-law exponent (`chung-lu` only).
        exponent: f64,
        /// Topology seed (`gnp`, `chung-lu` only).
        seed: u64,
    },
    /// A graph uploaded ahead of time, named by the FNV-1a-64 digest of its
    /// canonical CSR encoding. Resolved through the server's content store;
    /// an evicted or never-uploaded digest answers with a typed
    /// `unknown_topology` line so the client can re-upload idempotently.
    Uploaded {
        /// FNV-1a-64 over the canonical CSR encoding
        /// ([`rumor_graphs::codec::encode_csr`]).
        digest: u64,
    },
}

impl TopologySpec {
    /// A spec for one of the parameter-free families.
    pub fn new(family: &str, n: usize) -> Self {
        TopologySpec::Family {
            family: family.to_string(),
            n,
            degree: 8.0,
            exponent: 2.5,
            seed: 1,
        }
    }

    /// A spec naming an uploaded graph by content digest.
    pub fn uploaded(digest: u64) -> Self {
        TopologySpec::Uploaded { digest }
    }

    /// Sets the target mean degree (`gnp`, `chung-lu`); no-op for uploads.
    pub fn with_degree(mut self, value: f64) -> Self {
        if let TopologySpec::Family { degree, .. } = &mut self {
            *degree = value;
        }
        self
    }

    /// Sets the power-law exponent (`chung-lu`); no-op for uploads.
    pub fn with_exponent(mut self, value: f64) -> Self {
        if let TopologySpec::Family { exponent, .. } = &mut self {
            *exponent = value;
        }
        self
    }

    /// Sets the topology seed (`gnp`, `chung-lu`); no-op for uploads.
    pub fn with_topology_seed(mut self, value: u64) -> Self {
        if let TopologySpec::Family { seed, .. } = &mut self {
            *seed = value;
        }
        self
    }

    /// The uploaded content digest, if this spec references one.
    pub fn uploaded_digest(&self) -> Option<u64> {
        match self {
            TopologySpec::Uploaded { digest } => Some(*digest),
            TopologySpec::Family { .. } => None,
        }
    }

    /// Builds the topology, choosing the cheapest backend for the family.
    ///
    /// [`TopologySpec::Uploaded`] cannot be built standalone — it resolves
    /// through the server's content store — so it answers with an error
    /// here; the scheduler intercepts it before calling `build`.
    pub fn build(&self) -> Result<AnyTopology, String> {
        let (family, n, degree, exponent, seed) = match self {
            TopologySpec::Family {
                family,
                n,
                degree,
                exponent,
                seed,
            } => (family.as_str(), *n, *degree, *exponent, *seed),
            TopologySpec::Uploaded { digest } => {
                return Err(format!(
                    "uploaded topology {digest:016x} must be resolved through the content store"
                ))
            }
        };
        let fail = |e: rumor_graphs::GraphError| format!("topology {family}: {e}");
        match family {
            "complete" => ImplicitGraph::complete(n)
                .map(AnyTopology::from)
                .map_err(fail),
            "star" => ImplicitGraph::star(n).map(AnyTopology::from).map_err(fail),
            "double-star" => ImplicitGraph::double_star(n)
                .map(AnyTopology::from)
                .map_err(fail),
            "path" => ImplicitGraph::path(n).map(AnyTopology::from).map_err(fail),
            "cycle" => ImplicitGraph::cycle(n).map(AnyTopology::from).map_err(fail),
            "hypercube" => u32::try_from(n)
                .map_err(|_| "hypercube dimension out of range".to_string())
                .and_then(|dim| ImplicitGraph::hypercube(dim).map_err(fail))
                .map(AnyTopology::from),
            "gnp" => GeneratedGraph::gnp_with_mean_degree(n, degree, seed)
                .map(AnyTopology::from)
                .map_err(fail),
            "chung-lu" => GeneratedGraph::chung_lu(n, exponent, degree, seed)
                .map(AnyTopology::from)
                .map_err(fail),
            // The same Chung–Lu instance behind the hub-cached hybrid:
            // exact adjacency for the default top n/64 vertices by degree,
            // which absorbs most agent-walk draws. Bit-identical results to
            // "chung-lu" at the same parameters (distinct job digests — the
            // family name is part of the canonical string — but identical
            // trial lines).
            "chung_lu_hub_cached" => GeneratedGraph::chung_lu(n, exponent, degree, seed)
                .map(|inner| AnyTopology::from(HubCachedGraph::over(inner)))
                .map_err(fail),
            other => Err(format!("unknown topology family {other:?}")),
        }
    }

    fn canonical(&self) -> String {
        match self {
            TopologySpec::Family {
                family,
                n,
                degree,
                exponent,
                seed,
            } => format!("{family}:{n}:{degree}:{exponent}:{seed}"),
            TopologySpec::Uploaded { digest } => format!("uploaded:{digest:016x}"),
        }
    }
}

/// One sweep submission: what to run, how many trials, and under which
/// budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client name — the fairness unit for the scheduler's round-robin.
    /// Excluded from the job digest, so identical specs from different
    /// clients share one execution.
    pub client: String,
    /// The graph to run on.
    pub topology: TopologySpec,
    /// Protocol name (see [`ProtocolKind::from_name`]).
    pub protocol: String,
    /// Lazy agent walks (the paper's bipartite remedy); `adapted_to` is
    /// applied server-side regardless.
    pub lazy: bool,
    /// Number of trials (seeds `seed, seed+1, …`).
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Round cap per trial.
    pub max_rounds: u64,
    /// Optional wall-clock budget for the whole submission, enforced at
    /// chunk cadence: expired mid-trial suspends into
    /// [`TrialOutcome::TimedOut`], unclaimed trials report
    /// [`TrialOutcome::NotRun`]. Excluded from the job digest.
    pub deadline_ms: Option<u64>,
}

impl SubmitRequest {
    /// A submission with the default budgets: no deadline, 100k-round cap.
    pub fn new(client: &str, topology: TopologySpec, protocol: &str, trials: usize) -> Self {
        SubmitRequest {
            client: client.to_string(),
            topology,
            protocol: protocol.to_string(),
            lazy: false,
            trials,
            seed: 1,
            max_rounds: 100_000,
            deadline_ms: None,
        }
    }

    /// The idempotency key: FNV-1a-64 over the canonical job description,
    /// **excluding** the client name and the deadline — so a retry, or the
    /// same study submitted by a second client, is a cache or manifest hit
    /// rather than a re-execution.
    pub fn digest(&self) -> u64 {
        fnv1a64(
            format!(
                "serve1:{}:{}:{}:{}:{}:{}",
                self.topology.canonical(),
                self.protocol,
                self.lazy,
                self.trials,
                self.seed,
                self.max_rounds
            )
            .as_bytes(),
        )
    }

    /// Builds the validated simulation spec for this request (topology must
    /// be built by the caller; validation needs the graph).
    pub fn to_spec(&self) -> Result<SimulationSpec, String> {
        let kind = ProtocolKind::from_name(&self.protocol)
            .ok_or_else(|| format!("unknown protocol {:?}", self.protocol))?;
        let mut spec = SimulationSpec::new(kind)
            .with_seed(self.seed)
            .with_max_rounds(self.max_rounds);
        if self.lazy {
            spec = spec.with_agents(rumor_core::AgentConfig::default().lazy());
        }
        Ok(spec)
    }

    /// Renders the request as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let topology = match &self.topology {
            TopologySpec::Family {
                family,
                n,
                degree,
                exponent,
                seed,
            } => format!(
                "{{\"family\":\"{}\",\"n\":{n},\"degree\":{degree},\"exponent\":{exponent},\"seed\":{seed}}}",
                escape_json(family)
            ),
            TopologySpec::Uploaded { digest } => {
                format!("{{\"family\":\"uploaded\",\"digest\":\"{digest:016x}\"}}")
            }
        };
        let mut line = format!(
            "{{\"verb\":\"submit\",\"client\":\"{}\",\"topology\":{topology},\"protocol\":\"{}\",\"lazy\":{},\"trials\":{},\"seed\":{},\"max_rounds\":{}",
            escape_json(&self.client),
            escape_json(&self.protocol),
            self.lazy,
            self.trials,
            self.seed,
            self.max_rounds,
        );
        if let Some(deadline) = self.deadline_ms {
            line.push_str(&format!(",\"deadline_ms\":{deadline}"));
        }
        line.push('}');
        line
    }
}

/// The fixed header of a chunked topology upload: what `upload_begin`
/// declares and what every subsequent chunk is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadManifest {
    /// FNV-1a-64 over the full canonical CSR encoding — the content
    /// address the committed graph is stored and later submitted under.
    pub digest: u64,
    /// Declared vertex count (cross-checked against the decoded graph at
    /// commit).
    pub n: u64,
    /// Declared undirected edge count (cross-checked at commit).
    pub m: u64,
    /// Total canonical encoding length in bytes.
    pub bytes: u64,
    /// Payload bytes per chunk (the last chunk may be shorter). Derived
    /// from the client's line bound via [`chunk_payload_bytes`].
    pub chunk_bytes: u64,
}

impl UploadManifest {
    /// Number of chunks this manifest transfers.
    pub fn chunks(&self) -> u64 {
        if self.chunk_bytes == 0 {
            0
        } else {
            self.bytes.div_ceil(self.chunk_bytes)
        }
    }

    /// Payload length of chunk `index` (the last chunk carries the
    /// remainder).
    pub fn chunk_len(&self, index: u64) -> usize {
        let start = index.saturating_mul(self.chunk_bytes).min(self.bytes);
        let end = start.saturating_add(self.chunk_bytes).min(self.bytes);
        (end - start) as usize
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep.
    Submit(SubmitRequest),
    /// Open (or re-open) a chunked topology upload. Idempotent: repeating
    /// `upload_begin` for a known partial acks its high-water mark, and for
    /// a committed digest answers `upload_done` immediately.
    UploadBegin(UploadManifest),
    /// One bounded chunk of the canonical CSR encoding. Chunks are applied
    /// strictly in order; a replayed (already-acked) index re-acks without
    /// rewriting, an out-of-order future index is a typed `upload_error`.
    UploadChunk {
        /// The upload's content digest (from `upload_begin`).
        digest: u64,
        /// Zero-based chunk index.
        index: u64,
        /// Raw payload bytes (hex on the wire).
        payload: Vec<u8>,
        /// CRC-32 (IEEE) over the payload bytes, checked before the chunk
        /// is accepted.
        crc: u32,
    },
    /// Verify and publish a fully transferred upload into the content
    /// store (whole-encoding digest check, structural validation, atomic
    /// tmp+rename).
    UploadCommit {
        /// The upload's content digest.
        digest: u64,
    },
    /// Query an upload's state: committed, partial (with the ack'd
    /// high-water chunk), or unknown. The reconnect-resume entry point.
    UploadStatus {
        /// The upload's content digest.
        digest: u64,
    },
    /// Re-attach to an in-flight or completed job by digest: the server
    /// replays exactly the job-scoped lines with `seq > last_seq`.
    Resume {
        /// The job digest (the `job` field of every job-scoped line).
        job: u64,
        /// The highest sequence number the client already holds (`0` for
        /// none — trial `i` carries `seq == i + 1`).
        last_seq: u64,
    },
    /// Session keepalive: answered with a `heartbeat` line, resets the
    /// server's idle read timeout.
    Heartbeat,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain: stop admission, finish or checkpoint
    /// in-flight work, then exit.
    Drain,
    /// Extended observability: queue depth, active jobs, open sessions,
    /// cache/shed/resume/heartbeat counters.
    Status,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = parse_json(line)?;
    let verb = value
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing \"verb\"")?;
    let digest_field = |value: &Json| -> Result<u64, String> {
        let digest = value
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("missing \"digest\"")?;
        u64::from_str_radix(digest, 16).map_err(|_| format!("bad digest {digest:?}"))
    };
    match verb {
        "ping" => Ok(Request::Ping),
        "drain" => Ok(Request::Drain),
        "status" => Ok(Request::Status),
        "heartbeat" => Ok(Request::Heartbeat),
        "upload_begin" => {
            let manifest = UploadManifest {
                digest: digest_field(&value)?,
                n: value
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or("missing \"n\"")?,
                m: value
                    .get("m")
                    .and_then(Json::as_u64)
                    .ok_or("missing \"m\"")?,
                bytes: value
                    .get("bytes")
                    .and_then(Json::as_u64)
                    .ok_or("missing \"bytes\"")?,
                chunk_bytes: value
                    .get("chunk_bytes")
                    .and_then(Json::as_u64)
                    .ok_or("missing \"chunk_bytes\"")?,
            };
            if manifest.bytes == 0 || manifest.chunk_bytes == 0 {
                return Err("upload must carry at least one byte per chunk".to_string());
            }
            let declared = value
                .get("chunks")
                .and_then(Json::as_u64)
                .ok_or("missing \"chunks\"")?;
            if declared != manifest.chunks() {
                return Err(format!(
                    "chunks {declared} inconsistent with bytes {} / chunk_bytes {}",
                    manifest.bytes, manifest.chunk_bytes
                ));
            }
            Ok(Request::UploadBegin(manifest))
        }
        "upload_chunk" => {
            let payload = value
                .get("payload")
                .and_then(Json::as_str)
                .ok_or("missing \"payload\"")?;
            Ok(Request::UploadChunk {
                digest: digest_field(&value)?,
                index: value
                    .get("index")
                    .and_then(Json::as_u64)
                    .ok_or("missing \"index\"")?,
                payload: decode_hex(payload)?,
                crc: value
                    .get("crc")
                    .and_then(Json::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or("missing \"crc\"")?,
            })
        }
        "upload_commit" => Ok(Request::UploadCommit {
            digest: digest_field(&value)?,
        }),
        "upload_status" => Ok(Request::UploadStatus {
            digest: digest_field(&value)?,
        }),
        "resume" => {
            let job = value
                .get("job")
                .and_then(Json::as_str)
                .ok_or("missing \"job\"")?;
            let job = u64::from_str_radix(job, 16).map_err(|_| format!("bad job id {job:?}"))?;
            Ok(Request::Resume {
                job,
                last_seq: value.get("last_seq").and_then(Json::as_u64).unwrap_or(0),
            })
        }
        "submit" => {
            let topo = value.get("topology").ok_or("missing \"topology\"")?;
            let family = topo
                .get("family")
                .and_then(Json::as_str)
                .ok_or("missing topology family")?;
            let topology = if family == "uploaded" {
                let digest = topo
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or("missing upload digest")?;
                TopologySpec::Uploaded {
                    digest: u64::from_str_radix(digest, 16)
                        .map_err(|_| format!("bad upload digest {digest:?}"))?,
                }
            } else {
                TopologySpec::Family {
                    family: family.to_string(),
                    n: topo
                        .get("n")
                        .and_then(Json::as_u64)
                        .ok_or("missing topology n")? as usize,
                    degree: topo.get("degree").and_then(Json::as_f64).unwrap_or(8.0),
                    exponent: topo.get("exponent").and_then(Json::as_f64).unwrap_or(2.5),
                    seed: topo.get("seed").and_then(Json::as_u64).unwrap_or(1),
                }
            };
            let trials = value
                .get("trials")
                .and_then(Json::as_u64)
                .ok_or("missing \"trials\"")? as usize;
            if trials == 0 {
                return Err("trials must be positive".to_string());
            }
            Ok(Request::Submit(SubmitRequest {
                client: value
                    .get("client")
                    .and_then(Json::as_str)
                    .unwrap_or("anonymous")
                    .to_string(),
                topology,
                protocol: value
                    .get("protocol")
                    .and_then(Json::as_str)
                    .ok_or("missing \"protocol\"")?
                    .to_string(),
                lazy: value.get("lazy").and_then(Json::as_bool).unwrap_or(false),
                trials,
                seed: value.get("seed").and_then(Json::as_u64).unwrap_or(1),
                max_rounds: value
                    .get("max_rounds")
                    .and_then(Json::as_u64)
                    .unwrap_or(100_000),
                deadline_ms: value.get("deadline_ms").and_then(Json::as_u64),
            }))
        }
        other => Err(format!("unknown verb {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Response lines
// ---------------------------------------------------------------------------

/// The `accepted` line opening a submission's response stream (`seq` 0 —
/// trial `i` follows with `seq == i + 1`).
pub fn accepted_line(digest: u64, trials: usize, cached: bool, duplicate: bool) -> String {
    format!(
        "{{\"type\":\"accepted\",\"job\":\"{digest:016x}\",\"seq\":0,\"trials\":{trials},\"cached\":{cached},\"duplicate\":{duplicate}}}"
    )
}

/// The `resumed` line opening a `resume` verb's replay stream: `seq` echoes
/// the resume point, so the next line on the wire carries `seq + 1`.
pub fn resumed_line(digest: u64, trials: usize, last_seq: u64) -> String {
    format!(
        "{{\"type\":\"resumed\",\"job\":\"{digest:016x}\",\"seq\":{last_seq},\"trials\":{trials}}}"
    )
}

/// The typed answer to a `resume` naming a digest this server has neither
/// in flight, in cache, nor fully recorded — the client falls back to an
/// idempotent resubmission.
pub fn unknown_job_line(digest: u64) -> String {
    format!("{{\"type\":\"unknown_job\",\"job\":\"{digest:016x}\"}}")
}

/// Session keepalive answer (and the client's request is
/// `{"verb":"heartbeat"}`).
pub fn heartbeat_line() -> String {
    "{\"type\":\"heartbeat\"}".to_string()
}

/// The `resume` request line.
pub fn resume_request_line(job: u64, last_seq: u64) -> String {
    format!("{{\"verb\":\"resume\",\"job\":\"{job:016x}\",\"last_seq\":{last_seq}}}")
}

/// The typed violation line the bounded reader answers before closing a
/// connection (oversized line, hostile framing).
pub fn protocol_error_line(message: &str) -> String {
    format!(
        "{{\"type\":\"protocol_error\",\"message\":\"{}\"}}",
        escape_json(message)
    )
}

/// Frames one stored job line for a session stream: splices
/// `"job":…,"seq":…` into the line right after its `type` field. Stored
/// trial lines stay unframed (manifest/cache compatible); framing is a pure
/// function of `(job, seq)`, so live, resumed, and cached replays of the
/// same line are byte-identical on the wire.
pub fn with_session(line: &str, job: u64, seq: u64) -> String {
    const TRIAL_PREFIX: &str = "{\"type\":\"trial\",";
    if let Some(rest) = line.strip_prefix(TRIAL_PREFIX) {
        format!("{{\"type\":\"trial\",\"job\":\"{job:016x}\",\"seq\":{seq},{rest}")
    } else {
        // Any other stored line: tag after the opening brace.
        format!(
            "{{\"job\":\"{job:016x}\",\"seq\":{seq},{}",
            line.strip_prefix('{').unwrap_or(line)
        )
    }
}

/// One trial's result line. Field order is fixed and the fields are exactly
/// those that survive a manifest round-trip, so live, recovered, and cached
/// streams are byte-identical.
pub fn trial_line(index: usize, outcome: &TrialOutcome) -> String {
    match outcome {
        TrialOutcome::Completed(o) => format!(
            "{{\"type\":\"trial\",\"index\":{index},\"status\":\"completed\",\"rounds\":{},\"iv\":{},\"ia\":{},\"msgs\":{}}}",
            o.rounds, o.informed_vertices, o.informed_agents, o.total_messages
        ),
        TrialOutcome::RoundCapped(o) => format!(
            "{{\"type\":\"trial\",\"index\":{index},\"status\":\"round-capped\",\"rounds\":{},\"iv\":{},\"ia\":{},\"msgs\":{}}}",
            o.rounds, o.informed_vertices, o.informed_agents, o.total_messages
        ),
        TrialOutcome::TimedOut {
            round,
            informed_vertices,
            informed_agents,
            messages,
        } => format!(
            "{{\"type\":\"trial\",\"index\":{index},\"status\":\"timed-out\",\"rounds\":{round},\"iv\":{informed_vertices},\"ia\":{informed_agents},\"msgs\":{messages}}}"
        ),
        TrialOutcome::Panicked { message, attempts } => format!(
            "{{\"type\":\"trial\",\"index\":{index},\"status\":\"panicked\",\"attempts\":{attempts},\"message\":\"{}\"}}",
            escape_json(message)
        ),
        TrialOutcome::NotRun => {
            format!("{{\"type\":\"trial\",\"index\":{index},\"status\":\"not-run\"}}")
        }
    }
}

/// The terminal `done` line of a job's response stream (`seq` is
/// `trials + 1`, the line after the last trial).
#[allow(clippy::too_many_arguments)]
pub fn done_line(
    digest: u64,
    seq: u64,
    completed: usize,
    round_capped: usize,
    timed_out: usize,
    panicked: usize,
    not_run: usize,
    reused: usize,
    cached: bool,
) -> String {
    format!(
        "{{\"type\":\"done\",\"job\":\"{digest:016x}\",\"seq\":{seq},\"completed\":{completed},\"round_capped\":{round_capped},\"timed_out\":{timed_out},\"panicked\":{panicked},\"not_run\":{not_run},\"reused\":{reused},\"cached\":{cached}}}"
    )
}

/// The typed load-shed rejection line. With `job` set the line answers a
/// specific in-session submission (the multi-job client correlates by it).
pub fn overloaded_line(job: Option<u64>, retry_after_ms: u64) -> String {
    match job {
        Some(job) => format!(
            "{{\"type\":\"overloaded\",\"job\":\"{job:016x}\",\"retry_after_ms\":{retry_after_ms}}}"
        ),
        None => format!("{{\"type\":\"overloaded\",\"retry_after_ms\":{retry_after_ms}}}"),
    }
}

/// The drain notification line: untagged as the answer to a `drain` verb,
/// job-tagged when it ends one job's stream inside a session.
pub fn draining_line(job: Option<u64>) -> String {
    match job {
        Some(job) => format!("{{\"type\":\"draining\",\"job\":\"{job:016x}\"}}"),
        None => "{\"type\":\"draining\"}".to_string(),
    }
}

/// A fatal per-request error line (validation failure, bad verb, …);
/// job-tagged when rejecting one submission inside a session.
pub fn error_line(job: Option<u64>, message: &str) -> String {
    match job {
        Some(job) => format!(
            "{{\"type\":\"error\",\"job\":\"{job:016x}\",\"message\":\"{}\"}}",
            escape_json(message)
        ),
        None => format!(
            "{{\"type\":\"error\",\"message\":\"{}\"}}",
            escape_json(message)
        ),
    }
}

// ---------------------------------------------------------------------------
// Upload wire lines
// ---------------------------------------------------------------------------

/// JSON overhead budget reserved on an `upload_chunk` line: verb, digest,
/// a 20-digit index, a 10-digit CRC, braces, quotes, and the newline.
const UPLOAD_LINE_OVERHEAD: usize = 128;

/// The upload chunk payload size derived from a line bound: hex encoding
/// doubles the payload, and a 128-byte JSON framing budget (verb, digest,
/// index, CRC, braces, quotes, newline) rides along, so every
/// `upload_chunk` line stays under `max_line_bytes`.
pub fn chunk_payload_bytes(max_line_bytes: usize) -> usize {
    (max_line_bytes.saturating_sub(UPLOAD_LINE_OVERHEAD) / 2).max(1)
}

/// Lowercase hex encoding for binary chunk payloads: every byte maps to two
/// ASCII hex digits, which survive JSON string escaping untouched.
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    out
}

/// Strict inverse of [`encode_hex`]: even length, hex digits only.
pub fn decode_hex(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_string());
    }
    let digit = |b: u8| -> Result<u8, String> {
        (b as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| format!("bad hex digit {:?}", b as char))
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xedb88320`) — the per-chunk
/// integrity check on upload payloads.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// The `upload_begin` request line.
pub fn upload_begin_line(manifest: &UploadManifest) -> String {
    format!(
        "{{\"verb\":\"upload_begin\",\"digest\":\"{:016x}\",\"n\":{},\"m\":{},\"bytes\":{},\"chunk_bytes\":{},\"chunks\":{}}}",
        manifest.digest,
        manifest.n,
        manifest.m,
        manifest.bytes,
        manifest.chunk_bytes,
        manifest.chunks(),
    )
}

/// The `upload_chunk` request line with an explicit CRC (tests use this to
/// forge corrupt chunks; [`upload_chunk_line`] computes the honest one).
pub fn upload_chunk_line_with_crc(digest: u64, index: u64, payload: &[u8], crc: u32) -> String {
    format!(
        "{{\"verb\":\"upload_chunk\",\"digest\":\"{digest:016x}\",\"index\":{index},\"payload\":\"{}\",\"crc\":{crc}}}",
        encode_hex(payload)
    )
}

/// The `upload_chunk` request line, CRC computed over the payload.
pub fn upload_chunk_line(digest: u64, index: u64, payload: &[u8]) -> String {
    upload_chunk_line_with_crc(digest, index, payload, crc32(payload))
}

/// The `upload_commit` request line.
pub fn upload_commit_line(digest: u64) -> String {
    format!("{{\"verb\":\"upload_commit\",\"digest\":\"{digest:016x}\"}}")
}

/// The `upload_status` request line.
pub fn upload_status_request_line(digest: u64) -> String {
    format!("{{\"verb\":\"upload_status\",\"digest\":\"{digest:016x}\"}}")
}

/// Chunk acknowledgment: `acked` is the high-water mark — every chunk with
/// index `< acked` is durably applied, so a resuming client starts there.
pub fn upload_ack_line(digest: u64, acked: u64) -> String {
    format!("{{\"type\":\"upload_ack\",\"digest\":\"{digest:016x}\",\"acked\":{acked}}}")
}

/// Commit confirmation: the upload verified, validated, and published
/// atomically into the content store. Also the idempotent answer to
/// `upload_begin`/`upload_commit` on an already-committed digest.
pub fn upload_done_line(digest: u64, bytes: u64) -> String {
    format!("{{\"type\":\"upload_done\",\"digest\":\"{digest:016x}\",\"bytes\":{bytes}}}")
}

/// The `upload_status` answer: `state` is `committed`, `partial`, or
/// `unknown`; `acked`/`chunks` report resume progress for partials.
pub fn upload_status_line(digest: u64, state: &str, acked: u64, chunks: u64) -> String {
    format!(
        "{{\"type\":\"upload_status\",\"digest\":\"{digest:016x}\",\"state\":\"{}\",\"acked\":{acked},\"chunks\":{chunks}}}",
        escape_json(state)
    )
}

/// A typed upload failure (CRC mismatch, out-of-order chunk, digest or
/// validation failure at commit, quota) — never a panic, never a hang.
pub fn upload_error_line(digest: u64, message: &str) -> String {
    format!(
        "{{\"type\":\"upload_error\",\"digest\":\"{digest:016x}\",\"message\":\"{}\"}}",
        escape_json(message)
    )
}

/// The typed answer to a submission naming an uploaded digest the content
/// store no longer holds (evicted, or never uploaded): the client's cue to
/// re-upload and resubmit idempotently. `job` tags the rejected submission;
/// `digest` names the missing topology.
pub fn unknown_topology_line(job: u64, digest: u64) -> String {
    format!("{{\"type\":\"unknown_topology\",\"job\":\"{job:016x}\",\"digest\":\"{digest:016x}\"}}")
}

/// The `status` verb's answer: scheduler load plus session-layer counters.
/// One struct both ends share — the server renders it with [`status_line`],
/// the client parses it back with [`ServerStatus::from_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatus {
    /// Trials currently queued or running.
    pub queue_depth: usize,
    /// Jobs currently open.
    pub active_jobs: usize,
    /// Trials actually executed (excludes manifest/cache reuse).
    pub executed: usize,
    /// Submissions rejected by admission control.
    pub shed: usize,
    /// Submissions answered from the result cache.
    pub cache_hits: usize,
    /// Submissions attached to an identical in-flight job.
    pub duplicate_hits: usize,
    /// Connections currently open.
    pub open_sessions: u64,
    /// Connections accepted over the server's lifetime.
    pub sessions_opened: u64,
    /// `resume` verbs served.
    pub resumes: u64,
    /// Lines replayed onto re-attached streams.
    pub replayed_lines: u64,
    /// Heartbeat verbs answered.
    pub heartbeats: u64,
    /// Violations answered with a typed `protocol_error`/`error` line.
    pub protocol_errors: u64,
    /// Half-open connections reclaimed by the idle timeout.
    pub idle_reaped: u64,
    /// Committed graphs currently in the content store.
    pub graphs_stored: usize,
    /// Bytes of committed canonical encodings currently stored.
    pub store_bytes: u64,
    /// Committed graphs evicted by the byte quota over the server's
    /// lifetime.
    pub evictions: u64,
    /// Partial (begun, uncommitted) uploads currently held.
    pub partial_uploads: usize,
    /// Uploads rejected at commit (digest mismatch, CRC, structural
    /// validation) over the server's lifetime.
    pub failed_validations: u64,
}

impl ServerStatus {
    /// Parses a `status` line's JSON object back into the struct.
    pub fn from_json(value: &Json) -> Option<ServerStatus> {
        let field = |key: &str| value.get(key).and_then(Json::as_u64);
        Some(ServerStatus {
            queue_depth: field("queue_depth")? as usize,
            active_jobs: field("active_jobs")? as usize,
            executed: field("executed")? as usize,
            shed: field("shed")? as usize,
            cache_hits: field("cache_hits")? as usize,
            duplicate_hits: field("duplicate_hits")? as usize,
            open_sessions: field("open_sessions")?,
            sessions_opened: field("sessions_opened")?,
            resumes: field("resumes")?,
            replayed_lines: field("replayed_lines")?,
            heartbeats: field("heartbeats")?,
            protocol_errors: field("protocol_errors")?,
            idle_reaped: field("idle_reaped")?,
            graphs_stored: field("graphs_stored")? as usize,
            store_bytes: field("store_bytes")?,
            evictions: field("evictions")?,
            partial_uploads: field("partial_uploads")? as usize,
            failed_validations: field("failed_validations")?,
        })
    }
}

/// The `status` verb's answer line.
pub fn status_line(status: &ServerStatus) -> String {
    format!(
        "{{\"type\":\"status\",\"queue_depth\":{},\"active_jobs\":{},\"executed\":{},\"shed\":{},\"cache_hits\":{},\"duplicate_hits\":{},\"open_sessions\":{},\"sessions_opened\":{},\"resumes\":{},\"replayed_lines\":{},\"heartbeats\":{},\"protocol_errors\":{},\"idle_reaped\":{},\"graphs_stored\":{},\"store_bytes\":{},\"evictions\":{},\"partial_uploads\":{},\"failed_validations\":{}}}",
        status.queue_depth,
        status.active_jobs,
        status.executed,
        status.shed,
        status.cache_hits,
        status.duplicate_hits,
        status.open_sessions,
        status.sessions_opened,
        status.resumes,
        status.replayed_lines,
        status.heartbeats,
        status.protocol_errors,
        status.idle_reaped,
        status.graphs_stored,
        status.store_bytes,
        status.evictions,
        status.partial_uploads,
        status.failed_validations,
    )
}

/// FNV-1a 64-bit — the workspace's standing digest primitive (snapshot
/// checksums, spec digests), reused for job idempotency keys and client
/// retry jitter.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::BroadcastOutcome;

    #[test]
    fn json_round_trips_the_submit_line() {
        let mut request = SubmitRequest::new("alice", TopologySpec::new("complete", 64), "push", 8);
        request.deadline_ms = Some(1500);
        let line = request.to_line();
        match parse_request(&line).unwrap() {
            Request::Submit(parsed) => assert_eq!(parsed, request),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage_and_trailing_bytes() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{\"verb\" \"submit\"}").is_err());
        assert!(parse_request("{\"verb\":\"explode\"}").is_err());
        assert!(parse_request("{\"verb\":\"submit\"}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v =
            parse_json(r#"{"s":"a\"b\nA","i":-3,"f":1.5,"b":true,"x":null,"a":[1,2]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\nA"));
        assert_eq!(v.get("i"), Some(&Json::Int(-3)));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(
            v.get("a"),
            Some(&Json::Array(vec![Json::Int(1), Json::Int(2)]))
        );
        // u64 seeds survive exactly.
        let big = parse_json(&format!("{{\"seed\":{}}}", u64::MAX)).unwrap();
        assert_eq!(big.get("seed").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn string_parsing_is_linear_in_line_length() {
        // Multi-byte scalars and escapes between long plain runs: the runs
        // must come back whole and the escapes decoded.
        let unit = "0123456789abcdef".repeat(15) + "é→𝄞\\n\\\"";
        let decoded = "0123456789abcdef".repeat(15) + "é→𝄞\n\"";
        let best_of_5 = |copies: usize| {
            let line = format!("{{\"s\":\"{}\"}}", unit.repeat(copies));
            let want = decoded.repeat(copies);
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let v = parse_json(&line).unwrap();
                    let elapsed = t.elapsed();
                    assert_eq!(v.get("s").and_then(Json::as_str), Some(want.as_str()));
                    elapsed
                })
                .min()
                .unwrap()
        };
        let short = best_of_5(32);
        let long = best_of_5(8 * 32);
        assert!(
            long < 16 * short,
            "an 8x longer line took {long:?} against {short:?}"
        );
    }

    #[test]
    fn digest_ignores_client_and_deadline() {
        let a = SubmitRequest::new("alice", TopologySpec::new("star", 32), "push", 4);
        let mut b = SubmitRequest::new("bob", TopologySpec::new("star", 32), "push", 4);
        b.deadline_ms = Some(10);
        assert_eq!(a.digest(), b.digest());
        let c = SubmitRequest::new("alice", TopologySpec::new("star", 33), "push", 4);
        assert_ne!(a.digest(), c.digest());
        let d = SubmitRequest::new("alice", TopologySpec::new("star", 32), "pull", 4);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn topology_families_build_on_the_cheap_backends() {
        assert!(TopologySpec::new("complete", 16).build().is_ok());
        assert!(TopologySpec::new("star", 16).build().is_ok());
        assert!(TopologySpec::new("double-star", 16).build().is_ok());
        assert!(TopologySpec::new("cycle", 16).build().is_ok());
        assert!(TopologySpec::new("path", 16).build().is_ok());
        assert!(TopologySpec::new("hypercube", 4).build().is_ok());
        assert!(TopologySpec::new("gnp", 64).build().is_ok());
        assert!(TopologySpec::new("chung-lu", 64).build().is_ok());
        assert!(TopologySpec::new("torus", 64).build().is_err());
        // Structured families land on the implicit backend.
        let star = TopologySpec::new("star", 1_000_000).build().unwrap();
        assert!(star.memory_bytes() < 100);
    }

    #[test]
    fn hub_cached_family_builds_the_hybrid_backend() {
        use rumor_graphs::Topology;
        let spec = TopologySpec::new("chung_lu_hub_cached", 512)
            .with_degree(6.0)
            .with_exponent(2.5)
            .with_topology_seed(9);
        let topology = spec.build().unwrap();
        let cached = topology.as_hub_cached().expect("hub-cached backend");
        assert_eq!(cached.num_vertices(), 512);
        assert_eq!(cached.hub_count(), 8, "default policy is n/64 hubs");
        // Same instance as the uncached family: identical edge set...
        let uncached = TopologySpec::new("chung-lu", 512)
            .with_degree(6.0)
            .with_exponent(2.5)
            .with_topology_seed(9)
            .build()
            .unwrap();
        assert_eq!(topology.num_edges(), uncached.num_edges());
        // ...but a distinct job digest (the family name is canonical).
        let a = SubmitRequest::new("alice", spec, "meet-exchange", 2);
        let b = SubmitRequest::new(
            "alice",
            TopologySpec::new("chung-lu", 512)
                .with_degree(6.0)
                .with_exponent(2.5)
                .with_topology_seed(9),
            "meet-exchange",
            2,
        );
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn trial_lines_are_stable() {
        let outcome = TrialOutcome::Completed(BroadcastOutcome {
            protocol: "push".to_string(),
            rounds: 9,
            completed: true,
            informed_vertices: 64,
            informed_agents: 0,
            total_messages: 230,
            history: Vec::new(),
            edge_traffic: None,
        });
        assert_eq!(
            trial_line(3, &outcome),
            "{\"type\":\"trial\",\"index\":3,\"status\":\"completed\",\"rounds\":9,\"iv\":64,\"ia\":0,\"msgs\":230}"
        );
        let panicked = TrialOutcome::Panicked {
            message: "boom \"quoted\"".to_string(),
            attempts: 2,
        };
        let line = trial_line(0, &panicked);
        assert!(line.contains("\\\"quoted\\\""), "line: {line}");
        // Every response line parses back.
        for line in [
            trial_line(0, &outcome),
            trial_line(0, &panicked),
            trial_line(0, &TrialOutcome::NotRun),
            with_session(&trial_line(0, &outcome), 7, 1),
            accepted_line(7, 4, false, true),
            resumed_line(7, 4, 2),
            unknown_job_line(7),
            heartbeat_line(),
            protocol_error_line("line too long"),
            done_line(7, 5, 4, 0, 0, 0, 0, 2, false),
            overloaded_line(None, 250),
            overloaded_line(Some(7), 250),
            draining_line(None),
            draining_line(Some(7)),
            error_line(None, "bad \"spec\""),
            error_line(Some(7), "bad \"spec\""),
            status_line(&ServerStatus::default()),
            upload_ack_line(7, 3),
            upload_done_line(7, 4096),
            upload_status_line(7, "partial", 2, 5),
            upload_error_line(7, "crc mismatch on chunk \"3\""),
            unknown_topology_line(7, 9),
        ] {
            parse_json(&line).unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
        }
    }

    #[test]
    fn status_round_trips() {
        let status = ServerStatus {
            queue_depth: 1,
            active_jobs: 2,
            executed: 3,
            shed: 4,
            cache_hits: 5,
            duplicate_hits: 6,
            open_sessions: 7,
            sessions_opened: 8,
            resumes: 9,
            replayed_lines: 10,
            heartbeats: 11,
            protocol_errors: 12,
            idle_reaped: 13,
            graphs_stored: 14,
            store_bytes: 15,
            evictions: 16,
            partial_uploads: 17,
            failed_validations: 18,
        };
        let parsed = parse_json(&status_line(&status)).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("status"));
        assert_eq!(ServerStatus::from_json(&parsed), Some(status));
    }

    #[test]
    fn session_framing_is_a_fixed_splice() {
        let outcome = TrialOutcome::NotRun;
        let framed = with_session(&trial_line(2, &outcome), 0xabc, 3);
        assert_eq!(
            framed,
            "{\"type\":\"trial\",\"job\":\"0000000000000abc\",\"seq\":3,\"index\":2,\"status\":\"not-run\"}"
        );
        let parsed = parse_json(&framed).unwrap();
        assert_eq!(
            parsed.get("job").and_then(Json::as_str),
            Some("0000000000000abc")
        );
        assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("index").and_then(Json::as_u64), Some(2));
        // Framing is pure: same inputs, same bytes.
        assert_eq!(framed, with_session(&trial_line(2, &outcome), 0xabc, 3));
    }

    #[test]
    fn session_verbs_round_trip() {
        let line = resume_request_line(0xdead_beef, 17);
        match parse_request(&line).unwrap() {
            Request::Resume { job, last_seq } => {
                assert_eq!(job, 0xdead_beef);
                assert_eq!(last_seq, 17);
            }
            other => panic!("expected resume, got {other:?}"),
        }
        assert_eq!(
            parse_request("{\"verb\":\"heartbeat\"}").unwrap(),
            Request::Heartbeat
        );
        assert_eq!(
            parse_request("{\"verb\":\"status\"}").unwrap(),
            Request::Status
        );
        // Malformed job ids are rejected, not panics.
        assert!(parse_request("{\"verb\":\"resume\",\"job\":\"zz\"}").is_err());
        assert!(parse_request("{\"verb\":\"resume\"}").is_err());
    }

    #[test]
    fn hex_and_crc_are_exact() {
        assert_eq!(encode_hex(&[0x00, 0xff, 0x3a]), "00ff3a");
        assert_eq!(decode_hex("00ff3a").unwrap(), vec![0x00, 0xff, 0x3a]);
        assert!(decode_hex("0").is_err());
        assert!(decode_hex("zz").is_err());
        // CRC-32 of "123456789" is the standard check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn upload_verbs_round_trip() {
        let manifest = UploadManifest {
            digest: 0xfeed_f00d,
            n: 100,
            m: 250,
            bytes: 2428,
            chunk_bytes: 1000,
        };
        assert_eq!(manifest.chunks(), 3);
        assert_eq!(manifest.chunk_len(0), 1000);
        assert_eq!(manifest.chunk_len(2), 428);
        assert_eq!(manifest.chunk_len(3), 0);
        match parse_request(&upload_begin_line(&manifest)).unwrap() {
            Request::UploadBegin(parsed) => assert_eq!(parsed, manifest),
            other => panic!("expected upload_begin, got {other:?}"),
        }
        let payload = vec![0u8, 1, 2, 0xfe, 0xff];
        match parse_request(&upload_chunk_line(0xfeed_f00d, 2, &payload)).unwrap() {
            Request::UploadChunk {
                digest,
                index,
                payload: parsed,
                crc,
            } => {
                assert_eq!(digest, 0xfeed_f00d);
                assert_eq!(index, 2);
                assert_eq!(crc, crc32(&parsed));
                assert_eq!(parsed, payload);
            }
            other => panic!("expected upload_chunk, got {other:?}"),
        }
        assert_eq!(
            parse_request(&upload_commit_line(7)).unwrap(),
            Request::UploadCommit { digest: 7 }
        );
        assert_eq!(
            parse_request(&upload_status_request_line(7)).unwrap(),
            Request::UploadStatus { digest: 7 }
        );
        // Inconsistent chunk counts and empty uploads are rejected typed.
        assert!(parse_request(
            "{\"verb\":\"upload_begin\",\"digest\":\"1\",\"n\":2,\"m\":1,\"bytes\":10,\"chunk_bytes\":4,\"chunks\":2}"
        )
        .is_err());
        assert!(parse_request(
            "{\"verb\":\"upload_begin\",\"digest\":\"1\",\"n\":2,\"m\":1,\"bytes\":0,\"chunk_bytes\":4,\"chunks\":0}"
        )
        .is_err());
    }

    #[test]
    fn uploaded_topology_round_trips_and_digests_distinctly() {
        let request = SubmitRequest::new("carol", TopologySpec::uploaded(0xabcd), "push", 4);
        let line = request.to_line();
        assert!(line.contains("\"family\":\"uploaded\""), "line: {line}");
        assert!(
            line.contains("\"digest\":\"000000000000abcd\""),
            "line: {line}"
        );
        match parse_request(&line).unwrap() {
            Request::Submit(parsed) => assert_eq!(parsed, request),
            other => panic!("expected submit, got {other:?}"),
        }
        let family = SubmitRequest::new("carol", TopologySpec::new("complete", 64), "push", 4);
        assert_ne!(request.digest(), family.digest());
        let other = SubmitRequest::new("carol", TopologySpec::uploaded(0xabce), "push", 4);
        assert_ne!(request.digest(), other.digest());
        // Uploaded specs refuse to build standalone — the scheduler resolves
        // them through the content store instead.
        assert!(request.topology.build().is_err());
        assert_eq!(request.topology.uploaded_digest(), Some(0xabcd));
    }

    #[test]
    fn chunk_payload_bytes_fit_the_line_bound() {
        for bound in [1024usize, 4096, MAX_LINE_BYTES, 256 * 1024] {
            let payload = vec![0xa5u8; chunk_payload_bytes(bound)];
            let line = upload_chunk_line(u64::MAX, u64::MAX, &payload);
            assert!(
                line.len() < bound,
                "chunk line ({} bytes) must stay under the {bound}-byte bound",
                line.len()
            );
        }
        assert_eq!(chunk_payload_bytes(0), 1, "bound never collapses to zero");
    }
}
