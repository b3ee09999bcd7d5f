//! Versioned, checksummed simulation snapshots: the checkpoint/resume layer.
//!
//! A [`SimSnapshot`] captures everything a broadcast needs to continue after
//! a crash — the round counter, the informed vertex/agent sets, the agent
//! walk positions, the metrics accumulators, and (for the sequential engine)
//! the raw RNG state. The topology is deliberately **not** serialized:
//! every backend in this workspace is reconstructible from its spec (CSR
//! edge lists, `O(1)` implicit parameters, seed-keyed generated families),
//! so a checkpoint stays O(informed + agents) bytes even for 10⁸-vertex
//! runs.
//!
//! The resume contract is **bit-identical continuation**: resuming a run
//! from a snapshot produces exactly the outcome of the uninterrupted run —
//! same rounds, same messages, same informed sets, same per-round history.
//! The two engines satisfy it differently:
//!
//! * [`Engine::Sequential`](crate::Engine): the snapshot stores the
//!   xoshiro256++ state, so the resumed generator continues the exact draw
//!   stream.
//! * [`Engine::Sharded`](crate::Engine): randomness is counter-based, keyed
//!   by `(seed, round, entity, draw)` — the RNG *is* the round counter, so
//!   the snapshot needs no generator state at all.
//!
//! On disk, a snapshot is `b"RSNP"` + format version + payload + FNV-1a-64
//! checksum, written atomically (temp file + rename). Decoding rejects bad
//! magic, unknown versions, truncation, and checksum mismatches — see
//! [`SnapshotError`] — so a half-written file from a crash mid-checkpoint
//! is skipped by [`SimSnapshot::load_newest`] rather than trusted.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::engine::{Engine, SimulationSpec};
use crate::metrics::{BroadcastOutcome, RoundRecord};
use rumor_walks::{AgentCount, Placement};

/// File magic prefixing every serialized snapshot.
const SNAP_MAGIC: [u8; 4] = *b"RSNP";
/// Current snapshot format version.
const SNAP_VERSION: u32 = 1;

/// FNV-1a 64-bit over `bytes` — the integrity checksum and the spec-digest
/// hash. Stable across platforms (explicit little-endian encoding feeds it).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A stable 64-bit fingerprint of everything in a spec that determines a
/// trajectory: protocol kind, seed, engine contract, bookkeeping options,
/// and the agent configuration. `max_rounds` is deliberately excluded so a
/// resumed run may *extend* the cap of the run that wrote the checkpoint.
/// The sharded engine's thread count is likewise excluded — its contract is
/// thread-invariance.
pub(crate) fn spec_digest(spec: &SimulationSpec) -> u64 {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(spec.kind.name().as_bytes());
    buf.push(0);
    buf.extend_from_slice(&spec.seed.to_le_bytes());
    buf.push(match spec.engine {
        Engine::Sequential => 0,
        Engine::Sharded { .. } => 1,
    });
    buf.push(u8::from(spec.options.record_history));
    buf.push(u8::from(spec.options.record_edge_traffic));
    match spec.agents.count {
        AgentCount::Exact(k) => {
            buf.push(0);
            buf.extend_from_slice(&(k as u64).to_le_bytes());
        }
        AgentCount::Linear { alpha } => {
            buf.push(1);
            buf.extend_from_slice(&alpha.to_bits().to_le_bytes());
        }
    }
    match &spec.agents.placement {
        Placement::Stationary => buf.push(0),
        Placement::OneUniquePerVertex => buf.push(1),
        Placement::UniformRandom => buf.push(2),
        Placement::AllAt(v) => {
            buf.push(3);
            buf.extend_from_slice(&(*v as u64).to_le_bytes());
        }
        Placement::Explicit(starts) => {
            buf.push(4);
            buf.extend_from_slice(&(starts.len() as u64).to_le_bytes());
            for &v in starts {
                buf.extend_from_slice(&(v as u64).to_le_bytes());
            }
        }
    }
    buf.extend_from_slice(&spec.agents.walk.laziness().to_bits().to_le_bytes());
    fnv1a64(&buf)
}

/// Why a snapshot could not be decoded, validated, or applied.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The byte stream ended before the encoded payload did.
    Truncated,
    /// The trailing checksum does not match the payload (bit rot, partial
    /// write, or deliberate corruption).
    ChecksumMismatch,
    /// The snapshot was captured under a different simulation spec (protocol,
    /// seed, engine contract, options, or agent configuration differ).
    SpecMismatch {
        /// Digest of the spec the resume was attempted with.
        expected: u64,
        /// Digest stored in the snapshot.
        found: u64,
    },
    /// The snapshot does not carry the state the requested engine needs
    /// (e.g. a sharded snapshot, which stores no generator state, offered to
    /// the sequential engine).
    EngineMismatch,
    /// The snapshot's state does not fit the run it is resumed into. The
    /// spec digest leaves out the graph (snapshots store no topology), so
    /// this is how a resume on a different graph shows: an informed vertex
    /// or agent position at least the vertex count, an informed agent at
    /// least the agent count, or a walk with a different number of agents.
    DoesNotFit {
        /// What does not fit: `"informed vertex"`, `"agent position"`,
        /// `"informed agent"` or `"agent count"`.
        what: &'static str,
        /// The offending value.
        found: u64,
        /// The run's bound: ids must stay below it, the agent count must
        /// equal it.
        bound: u64,
    },
    /// An I/O error while reading or writing a snapshot file.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::SpecMismatch { expected, found } => write!(
                f,
                "snapshot spec digest {found:#018x} does not match expected {expected:#018x}"
            ),
            SnapshotError::EngineMismatch => {
                write!(f, "snapshot does not carry the state the engine needs")
            }
            SnapshotError::DoesNotFit { what, found, bound } => write!(
                f,
                "snapshot {what} {found} does not fit the run (bound {bound})"
            ),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// When a resumable run captures checkpoints.
///
/// Round cadence and wall-clock cadence can be combined; a checkpoint is
/// taken when either is due (evaluated at round boundaries — a round is the
/// atomic unit of simulation state).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCadence {
    every_rounds: Option<u64>,
    every_interval: Option<Duration>,
}

impl CheckpointCadence {
    /// Checkpoint every `k` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn every_rounds(k: u64) -> Self {
        assert!(k > 0, "checkpoint cadence must be at least one round");
        CheckpointCadence {
            every_rounds: Some(k),
            every_interval: None,
        }
    }

    /// Checkpoint when at least `interval` of wall-clock time has elapsed
    /// since the previous checkpoint (checked at round boundaries).
    pub fn every_interval(interval: Duration) -> Self {
        CheckpointCadence {
            every_rounds: None,
            every_interval: Some(interval),
        }
    }

    /// Checkpoint every `k` rounds *or* whenever `interval` has elapsed,
    /// whichever comes first.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn rounds_or_interval(k: u64, interval: Duration) -> Self {
        assert!(k > 0, "checkpoint cadence must be at least one round");
        CheckpointCadence {
            every_rounds: Some(k),
            every_interval: Some(interval),
        }
    }

    /// Whether a checkpoint is due after `round`; resets the wall-clock
    /// reference when it fires.
    pub(crate) fn due(&self, round: u64, last: &mut Instant) -> bool {
        let round_due = self.every_rounds.is_some_and(|k| round.is_multiple_of(k));
        let clock_due = self.every_interval.is_some_and(|d| last.elapsed() >= d);
        if round_due || clock_due {
            *last = Instant::now();
            true
        } else {
            false
        }
    }
}

/// How a resumable run ended: to completion (or round cap / stall), or
/// suspended at the snapshot whose sink returned `false`.
#[derive(Debug, Clone)]
pub enum ResumableRun {
    /// The run finished; the outcome is exactly what the non-resumable
    /// entry points would have produced.
    Finished(BroadcastOutcome),
    /// The checkpoint sink requested suspension; this snapshot resumes the
    /// run via [`resume_in`](crate::resume_in).
    Suspended(SimSnapshot),
}

impl ResumableRun {
    /// The outcome if the run finished.
    pub fn finished(self) -> Option<BroadcastOutcome> {
        match self {
            ResumableRun::Finished(outcome) => Some(outcome),
            ResumableRun::Suspended(_) => None,
        }
    }

    /// The suspension snapshot, if the sink stopped the run.
    pub fn suspended(self) -> Option<SimSnapshot> {
        match self {
            ResumableRun::Finished(_) => None,
            ResumableRun::Suspended(snap) => Some(snap),
        }
    }
}

/// A complete mid-run simulation state, sufficient to continue the run
/// bit-identically on a reconstructed topology.
///
/// Captured by [`simulate_resumable_in`](crate::simulate_resumable_in) (on
/// either engine) at a [`CheckpointCadence`]; applied by
/// [`resume_in`](crate::resume_in).
/// Serialized via [`SimSnapshot::to_bytes`] with a version gate and an
/// FNV-1a-64 checksum; [`SimSnapshot::write_atomic`] persists it crash-safely.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Digest of the spec that produced this snapshot (see [`spec_digest`]).
    pub(crate) spec_digest: u64,
    /// Rounds executed when the snapshot was taken.
    pub(crate) round: u64,
    /// Total messages accumulated so far.
    pub(crate) messages_total: u64,
    /// Messages of the most recent round.
    pub(crate) messages_last: u64,
    /// Sequential engine only: the raw xoshiro256++ state. `None` for
    /// sharded snapshots (counter-based streams re-derive from `round`).
    pub(crate) rng: Option<[u64; 4]>,
    /// Informed vertices in **insertion order** — replaying insertions in
    /// this order reproduces the exact internal frontier state.
    pub(crate) informed_vertices: Vec<u32>,
    /// Informed agents in ascending order (empty for vertex protocols).
    pub(crate) informed_agents: Vec<u32>,
    /// Agent walk positions (agent protocols only).
    pub(crate) positions: Option<Vec<u32>>,
    /// The walk's internal round counter (keys the sharded walk streams).
    pub(crate) walk_round: u64,
    /// Whether the `meet-exchange` source still holds the rumor.
    pub(crate) source_active: bool,
    /// Per-round history accumulated so far (empty unless the spec records
    /// history; carried so a resumed run's outcome has the full curve).
    pub(crate) history: Vec<RoundRecord>,
}

impl SimSnapshot {
    /// Checks that every id in the snapshot fits a run on `vertices`
    /// vertices with `agents` walking agents (`None` for the vertex
    /// protocols, whose snapshots carry no walk), so that restoring it
    /// cannot index out of range.
    pub(crate) fn check_fits(
        &self,
        vertices: usize,
        agents: Option<usize>,
    ) -> Result<(), SnapshotError> {
        let misfit = |what, found: u32, bound: usize| SnapshotError::DoesNotFit {
            what,
            found: u64::from(found),
            bound: bound as u64,
        };
        let first_above =
            |ids: &[u32], bound: usize| ids.iter().copied().find(|&i| i as usize >= bound);
        if let Some(v) = first_above(&self.informed_vertices, vertices) {
            return Err(misfit("informed vertex", v, vertices));
        }
        let Some(count) = agents else {
            return Ok(());
        };
        let positions = self
            .positions
            .as_deref()
            .ok_or(SnapshotError::EngineMismatch)?;
        if positions.len() != count {
            return Err(misfit("agent count", positions.len() as u32, count));
        }
        if let Some(p) = first_above(positions, vertices) {
            return Err(misfit("agent position", p, vertices));
        }
        if let Some(a) = first_above(&self.informed_agents, count) {
            return Err(misfit("informed agent", a, count));
        }
        Ok(())
    }

    /// Rounds executed when the snapshot was taken.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Digest of the spec that produced this snapshot.
    pub fn spec_digest(&self) -> u64 {
        self.spec_digest
    }

    /// Number of informed vertices at the snapshot point.
    pub fn informed_vertex_count(&self) -> usize {
        self.informed_vertices.len()
    }

    /// Number of informed agents at the snapshot point.
    pub fn informed_agent_count(&self) -> usize {
        self.informed_agents.len()
    }

    /// Total messages accumulated at the snapshot point.
    pub fn messages_total(&self) -> u64 {
        self.messages_total
    }

    /// Serializes to the versioned, checksummed on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            64 + 4 * (self.informed_vertices.len() + self.informed_agents.len())
                + 4 * self.positions.as_ref().map_or(0, Vec::len)
                + 32 * self.history.len(),
        );
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        let mut flags = 0u32;
        if self.rng.is_some() {
            flags |= 1;
        }
        if self.positions.is_some() {
            flags |= 2;
        }
        if self.source_active {
            flags |= 4;
        }
        buf.extend_from_slice(&flags.to_le_bytes());
        buf.extend_from_slice(&self.spec_digest.to_le_bytes());
        buf.extend_from_slice(&self.round.to_le_bytes());
        buf.extend_from_slice(&self.messages_total.to_le_bytes());
        buf.extend_from_slice(&self.messages_last.to_le_bytes());
        buf.extend_from_slice(&self.walk_round.to_le_bytes());
        if let Some(state) = self.rng {
            for word in state {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        write_u32_slice(&mut buf, &self.informed_vertices);
        write_u32_slice(&mut buf, &self.informed_agents);
        if let Some(positions) = &self.positions {
            write_u32_slice(&mut buf, positions);
        }
        buf.extend_from_slice(&(self.history.len() as u32).to_le_bytes());
        for rec in &self.history {
            buf.extend_from_slice(&rec.round.to_le_bytes());
            buf.extend_from_slice(&(rec.informed_vertices as u64).to_le_bytes());
            buf.extend_from_slice(&(rec.informed_agents as u64).to_le_bytes());
            buf.extend_from_slice(&rec.messages.to_le_bytes());
        }
        let checksum = fnv1a64(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Decodes a snapshot, rejecting bad magic, unknown versions,
    /// truncation, and checksum mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < SNAP_MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < SNAP_MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        // Verify the trailing checksum over everything before it.
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        if fnv1a64(&bytes[..body_end]) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut cursor = Cursor {
            bytes: &bytes[..body_end],
            pos: 8,
        };
        let flags = cursor.read_u32()?;
        let spec_digest = cursor.read_u64()?;
        let round = cursor.read_u64()?;
        let messages_total = cursor.read_u64()?;
        let messages_last = cursor.read_u64()?;
        let walk_round = cursor.read_u64()?;
        let rng = if flags & 1 != 0 {
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = cursor.read_u64()?;
            }
            Some(state)
        } else {
            None
        };
        let informed_vertices = cursor.read_u32_vec()?;
        let informed_agents = cursor.read_u32_vec()?;
        let positions = if flags & 2 != 0 {
            Some(cursor.read_u32_vec()?)
        } else {
            None
        };
        let history_len = cursor.read_u32()? as usize;
        if cursor.remaining() < history_len.saturating_mul(32) {
            return Err(SnapshotError::Truncated);
        }
        let mut history = Vec::with_capacity(history_len);
        for _ in 0..history_len {
            history.push(RoundRecord {
                round: cursor.read_u64()?,
                informed_vertices: cursor.read_u64()? as usize,
                informed_agents: cursor.read_u64()? as usize,
                messages: cursor.read_u64()?,
            });
        }
        if cursor.remaining() != 0 {
            return Err(SnapshotError::Truncated);
        }
        Ok(SimSnapshot {
            spec_digest,
            round,
            messages_total,
            messages_last,
            rng,
            informed_vertices,
            informed_agents,
            positions,
            walk_round,
            source_active: flags & 4 != 0,
            history,
        })
    }

    /// Writes the snapshot into `dir` as `ckpt-NNNNNNNNNNNN.snap`
    /// (zero-padded round number, so lexicographic order is round order),
    /// atomically: the bytes land in a temp file first and are `rename`d
    /// into place, so a crash mid-write never leaves a half-written file
    /// under the final name. Returns the final path.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let name = format!("ckpt-{:012}.snap", self.round);
        let tmp = dir.join(format!(".{name}.tmp"));
        let path = dir.join(name);
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads and decodes one snapshot file.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Scans `dir` for checkpoint files (`ckpt-<round>.snap` names only —
    /// foreign files, including unrelated `*.snap` files, are explicitly
    /// ignored rather than probed) and returns the newest (highest round)
    /// snapshot that decodes cleanly, skipping corrupted or truncated
    /// files — the crash-recovery entry point. Returns `Ok(None)` if the
    /// directory is missing or holds no valid snapshot.
    pub fn load_newest(dir: &Path) -> Result<Option<Self>, SnapshotError> {
        let mut candidates = checkpoint_files(dir)?;
        // Zero-padded round numbers: reverse-lexicographic = newest first.
        candidates.reverse();
        for path in candidates {
            if let Ok(snap) = Self::load(&path) {
                return Ok(Some(snap));
            }
        }
        Ok(None)
    }

    /// Bounded checkpoint retention: deletes all but the newest `keep`
    /// checkpoint files in `dir`, returning how many were removed. Only
    /// `ckpt-<round>.snap` names are candidates — foreign files are never
    /// touched — so a long-running checkpointing process (a server-hosted
    /// sweep, say) can call this after every successful
    /// [`SimSnapshot::write_atomic`] without growing disk without bound.
    /// A missing directory prunes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `keep == 0`: retention must never delete the newest
    /// checkpoint (that would turn "prune after write" into data loss).
    pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<usize, SnapshotError> {
        assert!(keep > 0, "retention must keep at least the newest snapshot");
        let candidates = checkpoint_files(dir)?;
        let mut removed = 0usize;
        for path in candidates.iter().rev().skip(keep) {
            if std::fs::remove_file(path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// [`SimSnapshot::write_atomic`] followed by
    /// [`SimSnapshot::prune_checkpoints`] with `keep` retained snapshots:
    /// the write happens first, so the prune never reduces the directory
    /// below its newest valid state.
    pub fn write_atomic_retained(&self, dir: &Path, keep: usize) -> Result<PathBuf, SnapshotError> {
        let path = self.write_atomic(dir)?;
        Self::prune_checkpoints(dir, keep)?;
        Ok(path)
    }
}

/// Whether `name` is a checkpoint file name this module wrote:
/// `ckpt-<digits>.snap`, nothing else.
fn is_checkpoint_name(name: &str) -> bool {
    name.strip_prefix("ckpt-")
        .and_then(|rest| rest.strip_suffix(".snap"))
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// The checkpoint files of `dir`, sorted ascending (oldest round first).
/// Missing directory ⇒ empty list.
fn checkpoint_files(dir: &Path) -> Result<Vec<PathBuf>, SnapshotError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    let mut candidates: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(is_checkpoint_name)
        })
        .collect();
    candidates.sort_unstable();
    Ok(candidates)
}

fn write_u32_slice(buf: &mut Vec<u8>, items: &[u32]) {
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for &x in items {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader over a decoded payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let end = self.pos.checked_add(4).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
    }

    fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let end = self.pos.checked_add(8).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
    }

    fn read_u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len = self.read_u32()? as usize;
        if self.remaining() < len.saturating_mul(4) {
            return Err(SnapshotError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.read_u32()?);
        }
        Ok(out)
    }
}

/// Crate-internal capture/restore hooks the engines implement per protocol.
///
/// `restore` must leave the protocol in **exactly** the state `capture` saw:
/// the informed sets are replayed insertion-by-insertion (in the snapshot's
/// stored order) through the same `insert` + frontier `on_informed` calls
/// the live run made, so every derived structure — boundary bits, neighbor
/// counters, dense lists — reproduces rather than approximates the original.
pub(crate) trait Checkpointable {
    /// Captures the full mid-run state. `rng` is the sequential engine's
    /// generator state (`None` under the counter-based sharded contract);
    /// `history` is the per-round history accumulated by the driver.
    fn capture(
        &self,
        spec_digest: u64,
        rng: Option<[u64; 4]>,
        history: &[RoundRecord],
    ) -> SimSnapshot;

    /// Overwrites this protocol's state with the snapshot's. The protocol
    /// must already be built on the same `(graph, source, spec)` the
    /// snapshot came from (the spec digest is the caller's check).
    fn restore(&mut self, snapshot: &SimSnapshot);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SimSnapshot {
        SimSnapshot {
            spec_digest: 0xdead_beef_1234_5678,
            round: 42,
            messages_total: 9001,
            messages_last: 17,
            rng: Some([1, 2, 3, u64::MAX]),
            informed_vertices: vec![5, 0, 63, 64, 2],
            informed_agents: vec![1, 3, 7],
            positions: Some(vec![9, 9, 1, 0, 63, 2, 2, 2]),
            walk_round: 42,
            source_active: true,
            history: vec![
                RoundRecord {
                    round: 1,
                    informed_vertices: 2,
                    informed_agents: 1,
                    messages: 3,
                },
                RoundRecord {
                    round: 2,
                    informed_vertices: 5,
                    informed_agents: 3,
                    messages: 8,
                },
            ],
        }
    }

    #[test]
    fn check_fits_rejects_each_id_that_does_not_fit() {
        let misfit = |snap: &SimSnapshot, vertices, agents| match snap.check_fits(vertices, agents)
        {
            Err(SnapshotError::DoesNotFit { what, found, bound }) => (what, found, bound),
            other => panic!("expected a misfit, got {other:?}"),
        };
        let mut snap = sample_snapshot();
        assert!(snap.check_fits(65, Some(8)).is_ok());
        // Vertex protocols carry no walk: agent fields are not consulted.
        assert!(snap.check_fits(65, None).is_ok());
        assert_eq!(misfit(&snap, 64, Some(8)), ("informed vertex", 64, 64));
        assert_eq!(misfit(&snap, 65, Some(7)), ("agent count", 8, 7));
        snap.informed_vertices = vec![5, 0, 2];
        assert_eq!(misfit(&snap, 63, Some(8)), ("agent position", 63, 63));
        snap.informed_agents.push(8);
        assert_eq!(misfit(&snap, 65, Some(8)), ("informed agent", 8, 8));
        snap.positions = None;
        assert!(matches!(
            snap.check_fits(65, Some(8)),
            Err(SnapshotError::EngineMismatch)
        ));
    }

    #[test]
    fn round_trips_bit_exact() {
        let snap = sample_snapshot();
        let decoded = SimSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, decoded);
        // Optional fields absent round-trip too.
        let mut bare = sample_snapshot();
        bare.rng = None;
        bare.positions = None;
        bare.source_active = false;
        bare.history.clear();
        let decoded = SimSnapshot::from_bytes(&bare.to_bytes()).unwrap();
        assert_eq!(bare, decoded);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = sample_snapshot().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_any_single_flipped_byte() {
        let bytes = sample_snapshot().to_bytes();
        for i in 8..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                SimSnapshot::from_bytes(&corrupt).is_err(),
                "flipped byte {i} was not detected"
            );
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample_snapshot().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                SimSnapshot::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes was not detected"
            );
        }
    }

    #[test]
    fn atomic_write_and_load_newest() {
        let dir = std::env::temp_dir().join(format!("rumor-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut early = sample_snapshot();
        early.round = 7;
        let mut late = sample_snapshot();
        late.round = 1_000;
        early.write_atomic(&dir).unwrap();
        let late_path = late.write_atomic(&dir).unwrap();
        assert!(late_path.ends_with("ckpt-000000001000.snap"));
        // A corrupted newest file is skipped in favor of the older valid one.
        let newest = SimSnapshot::load_newest(&dir).unwrap().unwrap();
        assert_eq!(newest.round, 1_000);
        std::fs::write(&late_path, b"RSNPgarbage").unwrap();
        let newest = SimSnapshot::load_newest(&dir).unwrap().unwrap();
        assert_eq!(newest.round, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_newest_of_missing_dir_is_none() {
        let dir = std::env::temp_dir().join("rumor-snap-test-definitely-missing");
        assert!(SimSnapshot::load_newest(&dir).unwrap().is_none());
        assert_eq!(SimSnapshot::prune_checkpoints(&dir, 1).unwrap(), 0);
    }

    #[test]
    fn load_newest_ignores_foreign_files() {
        let dir = std::env::temp_dir().join(format!("rumor-snap-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut snap = sample_snapshot();
        snap.round = 5;
        snap.write_atomic(&dir).unwrap();
        // Foreign files that would sort *after* the real checkpoint — a
        // valid-looking `.snap` without the `ckpt-` prefix, a `ckpt-`
        // name without digits, and a plain stray file. None of them may
        // be probed or win over the real checkpoint.
        let decoy = sample_snapshot(); // decodes cleanly if ever probed
        std::fs::write(dir.join("zzz-other.snap"), decoy.to_bytes()).unwrap();
        std::fs::write(dir.join("ckpt-latest.snap"), decoy.to_bytes()).unwrap();
        std::fs::write(dir.join("ckpt-.snap"), b"junk").unwrap();
        std::fs::write(dir.join("notes.txt"), b"operator scribbles").unwrap();
        let newest = SimSnapshot::load_newest(&dir).unwrap().unwrap();
        assert_eq!(newest.round, 5, "a foreign file shadowed the checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_keeps_newest_k_and_spares_foreign_files() {
        let dir = std::env::temp_dir().join(format!("rumor-snap-retain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for round in [1u64, 2, 3, 4] {
            let mut snap = sample_snapshot();
            snap.round = round;
            snap.write_atomic(&dir).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        // Retained write: round 5 lands, then only the newest 2 survive.
        let mut snap = sample_snapshot();
        snap.round = 5;
        snap.write_atomic_retained(&dir, 2).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "ckpt-000000000004.snap".to_string(),
                "ckpt-000000000005.snap".to_string(),
                "notes.txt".to_string(),
            ]
        );
        // The newest checkpoint is still the one load_newest returns.
        assert_eq!(SimSnapshot::load_newest(&dir).unwrap().unwrap().round, 5);
        // Pruning to a larger budget than exists removes nothing.
        assert_eq!(SimSnapshot::prune_checkpoints(&dir, 10).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "retention must keep")]
    fn retention_of_zero_panics() {
        let dir = std::env::temp_dir().join("rumor-snap-zero-keep");
        let _ = SimSnapshot::prune_checkpoints(&dir, 0);
    }

    #[test]
    fn cadence_fires_on_round_multiples() {
        let cadence = CheckpointCadence::every_rounds(5);
        let mut last = Instant::now();
        let fired: Vec<u64> = (1..=20).filter(|&r| cadence.due(r, &mut last)).collect();
        assert_eq!(fired, vec![5, 10, 15, 20]);
    }

    #[test]
    fn interval_cadence_fires_after_elapsed_time() {
        let cadence = CheckpointCadence::every_interval(Duration::from_millis(0));
        let mut last = Instant::now();
        assert!(cadence.due(1, &mut last), "zero interval is always due");
        let cadence = CheckpointCadence::every_interval(Duration::from_secs(3600));
        assert!(
            !cadence.due(1, &mut last),
            "hour interval not due instantly"
        );
    }

    #[test]
    fn digest_separates_specs_and_ignores_max_rounds() {
        use crate::protocol::ProtocolKind;
        let base = SimulationSpec::new(ProtocolKind::Push).with_seed(1);
        assert_eq!(spec_digest(&base), spec_digest(&base.clone()));
        assert_ne!(spec_digest(&base), spec_digest(&base.clone().with_seed(2)));
        assert_ne!(
            spec_digest(&base),
            spec_digest(&SimulationSpec::new(ProtocolKind::Pull).with_seed(1))
        );
        assert_ne!(
            spec_digest(&base),
            spec_digest(&base.clone().with_sharded(4))
        );
        // Thread count is not part of the sharded contract.
        assert_eq!(
            spec_digest(&base.clone().with_sharded(2)),
            spec_digest(&base.clone().with_sharded(8))
        );
        // Extending the round cap must not invalidate old checkpoints.
        assert_eq!(
            spec_digest(&base),
            spec_digest(&base.clone().with_max_rounds(77))
        );
    }
}
