//! The sharded round engine: deterministic intra-run parallelism.
//!
//! The sequential engine in [`crate::engine`] pins its determinism contract
//! to *draw order*: one generator, consumed in ascending entity order. That
//! contract is inherently single-threaded — a second worker would shift
//! every draw after its shard boundary. This module implements the second
//! contract the workspace supports: **counter-based, thread-invariant
//! determinism**. Every vertex or agent draws from its own
//! [`rand::stream::StreamRng`], keyed by `(seed, round, entity_id,
//! draw_index)`, so a draw is a pure function of identity and sharding only
//! decides *who computes it*. The result is bit-identical at every thread
//! count, including 1.
//!
//! What is sharded per round:
//!
//! * **Vertex protocols** (`push`, `pull`, `push-pull`): the engine runs the
//!   sequential protocols' [`Gossip`] state under the same compile-time
//!   rule, so only the draws differ. Its frontier bitset is partitioned
//!   into contiguous vertex ranges balanced by active-bit popcount; each
//!   worker realizes the draws of its range and compacts the
//!   state-changing results into a per-shard buffer. The buffers are merged
//!   on the coordinating thread in ascending shard order (the merge is the
//!   same `insert` + boundary-counter update loop the sequential engine
//!   runs, and its outcome is a set union — independent of the partition).
//! * **Agent protocols** (`visit-exchange`, `meet-exchange`): movement is
//!   [`MultiWalk::par_step_exchange`] (64-aligned agent blocks, per-shard
//!   informed-here bitsets merged with atomic-free OR passes); the exchange
//!   phases scan the uninformed side in sharded ranges, compact hits into
//!   per-shard buffers, and apply the frontier removals at the round
//!   barrier.
//!
//! Small instances never pay for threads: each sharded pass falls back to an
//! inline single-shard loop when the work per shard would be tiny (the
//! fallback cannot change results — that is the whole point of the
//! counter-based contract). The sequential engines remain the reference
//! implementations; statistical tests pin this engine's round distributions
//! against theirs, and `tests/parallel_engine.rs` pins thread-count
//! invariance bit-for-bit.

use rand::rngs::SmallRng;
use rand::stream::{RoundKey, StreamKey};
use rand::SeedableRng;

use rumor_graphs::{DrawBlock, Topology, VertexId};
use rumor_walks::{AgentId, MultiWalk, UninformedFrontier};

use crate::driver::{drive, outcome_of, record_of, Capture, Checkpoint, Rounds};
use crate::engine::SimulationSpec;
use crate::metrics::{BroadcastOutcome, RoundRecord};
use crate::options::ProtocolOptions;
use crate::protocol::{FastStep, Protocol, ProtocolKind};
use crate::protocols::common::InformedSet;
use crate::protocols::gossip::{call, Gossip, GossipRule, PullRule, PushPullRule, PushRule};
use crate::snapshot::{Checkpointable, ResumableRun, SimSnapshot};

/// Minimum number of realized draws per shard before a vertex round spawns
/// workers (a draw is tens of nanoseconds; a scoped spawn is microseconds).
const MIN_DRAWS_PER_SHARD: u64 = 1024;
/// Minimum number of scanned entities per shard before an exchange-phase
/// scan spawns workers (a scan step is an O(1) bit test).
const MIN_SCAN_PER_SHARD: usize = 8192;

/// Resolves a requested worker count for the sharded engine: `0` means
/// "auto" — the `RUMOR_THREADS` environment variable if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
///
/// The thread count never changes simulation output (that is the sharded
/// engine's contract); it only changes how the work is spread.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(threads) = std::env::var("RUMOR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
    {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Whether the sharded engine implements this spec. The combined and
/// edge-traffic configurations fall back to the sequential engine (see
/// [`crate::Engine`] for the documented selection rules).
pub(crate) fn supports(spec: &SimulationSpec) -> bool {
    !spec.options.record_edge_traffic
        && matches!(
            spec.kind,
            ProtocolKind::Push
                | ProtocolKind::Pull
                | ProtocolKind::PushPull
                | ProtocolKind::VisitExchange
                | ProtocolKind::MeetExchange
        )
}

/// Runs `spec` on the sharded engine with `threads` workers, from
/// `resume`'s round when given (after its spec digest has been checked),
/// with `history` holding the rounds recorded before it, and offers a
/// capture to `checkpoint` between rounds. Callers must have checked
/// [`supports`]; `threads` must already be resolved (> 0).
///
/// Sharded snapshots carry no generator state (`rng: None`): the
/// counter-based streams are re-derived from the round counter, which is why
/// a sharded resume is bit-identical at **any** thread count — including one
/// different from the thread count that wrote the checkpoint.
pub(crate) fn drive_sharded<G: Topology>(
    graph: &G,
    source: VertexId,
    spec: &SimulationSpec,
    threads: usize,
    resume: Option<&SimSnapshot>,
    history: Vec<RoundRecord>,
    checkpoint: Option<Checkpoint<'_>>,
) -> ResumableRun {
    debug_assert!(threads > 0);
    debug_assert!(supports(spec));
    let run = match spec.kind {
        ProtocolKind::Push => VertexEngine::<G, PushRule>::drive,
        ProtocolKind::Pull => VertexEngine::<G, PullRule>::drive,
        ProtocolKind::PushPull => VertexEngine::<G, PushPullRule>::drive,
        ProtocolKind::VisitExchange | ProtocolKind::MeetExchange => AgentEngine::<G>::drive,
        _ => unreachable!("unsupported kind routed to the sharded engine"),
    };
    run(graph, source, spec, threads, resume, history, checkpoint)
}

/// Splits `0..len` into at most `shards` contiguous, 64-aligned ranges.
fn even_word_ranges(words: usize, shards: usize) -> impl Iterator<Item = (usize, usize)> {
    let per = words.div_ceil(shards.max(1)).max(1);
    (0..shards.max(1)).filter_map(move |i| {
        let lo = i * per;
        if lo >= words {
            None
        } else {
            Some((lo, ((i + 1) * per).min(words)))
        }
    })
}

/// Fills `out` with the indices of **zero** bits of `words[lo..hi]` (clamped
/// to `limit` items overall) for which `keep` is true. Ascending order.
///
/// Branchless compaction: mid-broadcast `keep` is true for an unpredictable
/// ~half of the scanned items, so an `if { push }` would mispredict
/// constantly. Every candidate is written to the next slot and the cursor
/// advances by the predicate result instead (one scratch slot per scanned
/// zero keeps the pass linear).
fn collect_zeros(
    words: &[u64],
    (lo, hi): (usize, usize),
    limit: usize,
    slots_bound: usize,
    keep: impl Fn(usize) -> bool,
    out: &mut Vec<u32>,
) {
    let slots = (hi.saturating_sub(lo) * 64)
        .min(limit.saturating_sub(lo << 6))
        .min(slots_bound);
    out.resize(slots, 0);
    let mut hits = 0usize;
    for (off, &word) in words[lo..hi].iter().enumerate() {
        let base = (lo + off) << 6;
        if base >= limit {
            break;
        }
        let mut zeros = !word;
        if limit - base < 64 {
            zeros &= (1u64 << (limit - base)) - 1;
        }
        while zeros != 0 {
            let item = base + zeros.trailing_zeros() as usize;
            zeros &= zeros - 1;
            out[hits] = item as u32;
            hits += usize::from(keep(item));
        }
    }
    out.truncate(hits);
}

/// Runs `collect_zeros` over the whole word array, sharded across scoped
/// workers when the scan is large enough to amortize the spawns. Shard
/// results land in `buffers[..shards]` in ascending range order, so
/// concatenation preserves ascending item order. `zeros_estimate` must be
/// the **exact** number of zero bits within `limit` (or an upper bound):
/// it picks the shard count *and* bounds the single-shard compaction
/// scratch, so an under-count would make `collect_zeros` index past its
/// scratch and panic.
fn sharded_zero_scan<F: Fn(usize) -> bool + Sync>(
    words: &[u64],
    limit: usize,
    zeros_estimate: usize,
    threads: usize,
    keep: F,
    buffers: &mut Vec<Vec<u32>>,
) -> usize {
    let shards = threads
        .min(zeros_estimate / MIN_SCAN_PER_SHARD + 1)
        .clamp(1, words.len().max(1));
    if buffers.len() < shards {
        buffers.resize_with(shards, Vec::new);
    }
    for buf in &mut buffers[..shards] {
        buf.clear();
    }
    if shards == 1 {
        // One shard scans everything: the exact zero count tightly bounds
        // the compaction scratch (the sharded ranges below cannot know
        // their split, so they fall back to the range width).
        collect_zeros(
            words,
            (0, words.len()),
            limit,
            zeros_estimate,
            keep,
            &mut buffers[0],
        );
        return 1;
    }
    let keep = &keep;
    std::thread::scope(|scope| {
        for (range, buf) in even_word_ranges(words.len(), shards).zip(buffers.iter_mut()) {
            scope.spawn(move || collect_zeros(words, range, limit, usize::MAX, keep, buf));
        }
    });
    shards
}

/// The sharded engine for the vertex protocols: a [`Gossip`] state (informed
/// set, boundary tracker, counters) whose rounds draw from counter-based
/// streams instead of one sequential generator.
struct VertexEngine<'g, G: Topology, R: GossipRule> {
    gossip: Gossip<'g, G, R>,
    key: StreamKey,
    threads: usize,
    /// Per-shard compaction buffers (reused across rounds).
    shard_newly: Vec<Vec<u32>>,
    /// Per-shard draw blocks for [`Topology::resolve_block`].
    shard_blocks: Vec<DrawBlock>,
}

/// Active vertices gathered per [`VertexEngine::draw_batch`] call.
const DRAW_BATCH: usize = 128;

impl<'g, G: Topology, R: GossipRule> VertexEngine<'g, G, R> {
    /// Runs the vertex protocol of rule `R` (see [`drive_sharded`]).
    fn drive(
        graph: &'g G,
        source: VertexId,
        spec: &SimulationSpec,
        threads: usize,
        resume: Option<&SimSnapshot>,
        history: Vec<RoundRecord>,
        checkpoint: Option<Checkpoint<'_>>,
    ) -> ResumableRun {
        let mut engine = VertexEngine {
            gossip: Gossip::<G, R>::new(graph, source, ProtocolOptions::none()),
            key: StreamKey::from_seed(spec.seed),
            threads,
            shard_newly: Vec::new(),
            shard_blocks: Vec::new(),
        };
        if let Some(snapshot) = resume {
            // Replays the informed set in its stored insertion order, so the
            // boundary tracker is bit-identical by construction.
            engine.gossip.restore(snapshot);
        }
        let (cap, record) = (spec.max_rounds, spec.options.record_history);
        drive(&mut engine, cap, record, history, checkpoint)
    }

    /// Realizes the draws of the active vertices in `words[lo..hi]`,
    /// compacting state-changing results into `out`: the vertex each call
    /// informs (see `gossip::call`). Every draw comes from the vertex's own
    /// counter-based stream, so the output depends only on the range
    /// content, not on who scans it.
    ///
    /// Two-phase structure: active vertex ids are gathered into a small
    /// stack batch by a minimal scan loop, and the batch is drained by a
    /// deliberately **non-inlined** helper. Frontiers are sparse relative
    /// to the bitset on the paper's instances (a star mid-broadcast has one
    /// active vertex in ~1 500 words), so the skip-empty-words loop is the
    /// per-round fixed cost — inlining the draw body into it spills the
    /// scan counters to the stack and quadruples that fixed cost.
    fn draw_range(
        graph: &G,
        informed: &InformedSet,
        round_key: &RoundKey,
        words: &[u64],
        (lo, hi): (usize, usize),
        out: &mut Vec<u32>,
        draws: &mut DrawBlock,
    ) {
        let mut pending = [0u32; DRAW_BATCH];
        let mut count = 0usize;
        for (off, &word) in words[lo..hi].iter().enumerate() {
            let mut bits = word;
            if bits == 0 {
                continue;
            }
            let base = ((lo + off) << 6) as u32;
            while bits != 0 {
                pending[count] = base + bits.trailing_zeros();
                count += 1;
                bits &= bits - 1;
                if count == pending.len() {
                    Self::draw_batch(graph, informed, round_key, &pending, out, draws);
                    count = 0;
                }
            }
        }
        Self::draw_batch(graph, informed, round_key, &pending[..count], out, draws);
    }

    /// Drains one gathered batch of active vertices (see
    /// [`VertexEngine::draw_range`] for why this must not inline into the
    /// scan loop): every vertex draws its call target's index, the batch
    /// resolves with one [`Topology::resolve_block`] call (so a backend
    /// that derives neighbors overlaps the batch's derivations), and the
    /// calls then run in vertex order.
    ///
    /// Degree-1 vertices (star leaves — the hottest class on the paper's
    /// instances) consume no randomness at all: their call target is
    /// forced, and under the counter-based contract an entity's unused
    /// stream draws are simply never computed
    /// (`Graph::random_neighbor_with`). (A pair-lane block-sharing scheme
    /// was tried here and reverted: the pair-detection branch mispredicts
    /// on fragmented frontiers and cost more than the shared blocks saved.)
    #[inline(never)]
    fn draw_batch(
        graph: &G,
        informed: &InformedSet,
        round_key: &RoundKey,
        pending: &[u32],
        out: &mut Vec<u32>,
        draws: &mut DrawBlock,
    ) {
        draws.clear();
        for &id in pending {
            let u = id as usize;
            // Active vertices always have a neighbor (boundary invariant),
            // so the isolation arm is unreachable.
            draws.push(
                graph
                    .draw_deferred_with(u, || round_key.stream(u as u64))
                    .expect("active vertex has a neighbor"),
            );
        }
        graph.resolve_block(draws);
        for (&u, &v) in pending.iter().zip(draws.resolved()) {
            call::<R>(informed, u as usize, v as usize, out);
        }
    }
}

impl<G: Topology, R: GossipRule> Rounds for VertexEngine<'_, G, R> {
    /// One synchronous round: sharded draws, then the sequential merge that
    /// the sequential engine also runs (insert + boundary update).
    fn step(&mut self) {
        let round_key = self.key.round_key(self.gossip.begin_round());
        let graph = self.gossip.graph();
        let informed = self.gossip.informed();
        let words = self.gossip.active().words();

        // At one thread there is nothing to balance: skip the popcount pass
        // (it would double the per-round bitset traffic) and draw inline.
        // The pass is only paid when sharding is possible, where it also
        // yields the popcount-balanced cut points.
        let (shards, active) = if self.threads == 1 {
            (1, 0u64)
        } else {
            let active: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            let shards = self
                .threads
                .min((active / MIN_DRAWS_PER_SHARD + 1) as usize)
                .clamp(1, words.len().max(1));
            (shards, active)
        };
        if self.shard_newly.len() < shards {
            self.shard_newly.resize_with(shards, Vec::new);
            self.shard_blocks.resize_with(shards, DrawBlock::default);
        }
        for buf in &mut self.shard_newly[..shards] {
            buf.clear();
        }
        if shards == 1 {
            Self::draw_range(
                graph,
                informed,
                &round_key,
                words,
                (0, words.len()),
                &mut self.shard_newly[0],
                &mut self.shard_blocks[0],
            );
        } else {
            // Contiguous word ranges with roughly equal active popcounts
            // (the frontier can be concentrated; even word splits would idle
            // most workers on e.g. a star's leaf range).
            let target = active.div_ceil(shards as u64).max(1);
            let mut ranges = Vec::with_capacity(shards);
            let mut lo = 0usize;
            let mut acc = 0u64;
            for (idx, w) in words.iter().enumerate() {
                acc += u64::from(w.count_ones());
                if acc >= target && ranges.len() + 1 < shards {
                    ranges.push((lo, idx + 1));
                    lo = idx + 1;
                    acc = 0;
                }
            }
            ranges.push((lo, words.len()));
            std::thread::scope(|scope| {
                let shards = self.shard_newly.iter_mut().zip(&mut self.shard_blocks);
                for (range, (buf, draws)) in ranges.into_iter().zip(shards) {
                    scope.spawn(move || {
                        Self::draw_range(graph, informed, &round_key, words, range, buf, draws)
                    });
                }
            });
        }

        // Round barrier: merge shards in ascending range order. This is the
        // identical loop the sequential engine runs over its single buffer;
        // `inform` dedups cross-shard repeats (two shards pushing to the
        // same vertex).
        for buf in &self.shard_newly[..shards] {
            for &v in buf {
                self.gossip.inform(v as usize);
            }
        }
    }

    fn round(&self) -> u64 {
        self.gossip.round()
    }

    fn is_complete(&self) -> bool {
        self.gossip.is_complete()
    }

    /// The sharded twin of [`crate::protocol::FastStep::is_stalled`]: on a
    /// disconnected graph the reachable component saturates with the
    /// frontier quiescent, and every further round would realize zero draws.
    fn is_stalled(&self) -> bool {
        self.gossip.is_stalled()
    }

    fn record(&self) -> RoundRecord {
        record_of(&self.gossip)
    }

    fn outcome(&self, history: Vec<RoundRecord>) -> BroadcastOutcome {
        outcome_of(&self.gossip, history)
    }
}

impl<G: Topology, R: GossipRule> Capture for VertexEngine<'_, G, R> {
    /// Captures the engine's cross-round state. No generator state is
    /// stored: the counter-based streams re-derive every draw from
    /// `(seed, round, vertex)`, so the round counter *is* the RNG position.
    fn capture(&self, spec_digest: u64, history: &[RoundRecord]) -> SimSnapshot {
        self.gossip.capture(spec_digest, None, history)
    }
}

/// The sharded engine for the agent protocols (`visit-exchange`,
/// `meet-exchange`).
struct AgentEngine<'g, G: Topology> {
    graph: &'g G,
    source: VertexId,
    kind: ProtocolKind,
    walks: MultiWalk,
    agents: UninformedFrontier,
    /// Vertex informed set (visit-exchange only; meet-exchange tracks just
    /// the source flag, as in the sequential engine).
    informed_vertices: InformedSet,
    source_active: bool,
    key: StreamKey,
    threads: usize,
    /// Per-shard compaction buffers for the exchange scans.
    shard_newly: Vec<Vec<u32>>,
    round: u64,
    messages_total: u64,
    messages_last: u64,
}

impl<'g, G: Topology> AgentEngine<'g, G> {
    /// Runs `visit-exchange` or `meet-exchange` (see [`drive_sharded`]).
    fn drive(
        graph: &'g G,
        source: VertexId,
        spec: &SimulationSpec,
        threads: usize,
        resume: Option<&SimSnapshot>,
        history: Vec<RoundRecord>,
        checkpoint: Option<Checkpoint<'_>>,
    ) -> ResumableRun {
        let mut engine = AgentEngine::new(graph, source, spec, threads);
        if let Some(snapshot) = resume {
            engine.restore(snapshot);
        }
        let (cap, record) = (spec.max_rounds, spec.options.record_history);
        drive(&mut engine, cap, record, history, checkpoint)
    }

    fn new(graph: &'g G, source: VertexId, spec: &SimulationSpec, threads: usize) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        // Construction matches the sequential engine draw-for-draw: agent
        // placement consumes the same seeded SmallRng, so both engines start
        // every trial from the identical agent configuration. Only the
        // per-round draws differ (counter-based streams vs one sequential
        // generator).
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let count = spec.agents.count.resolve(graph.num_vertices());
        let walks = MultiWalk::new(
            graph,
            count,
            &spec.agents.placement,
            spec.agents.walk,
            &mut rng,
        );
        let mut agents = UninformedFrontier::new(walks.num_agents());
        for &agent in walks.agents_at(source) {
            agents.mark_informed(agent as AgentId);
        }
        let mut informed_vertices = InformedSet::new(graph.num_vertices());
        let source_active = match spec.kind {
            ProtocolKind::VisitExchange => {
                informed_vertices.insert(source);
                false
            }
            _ => agents.informed_count() == 0,
        };
        AgentEngine {
            graph,
            source,
            kind: spec.kind,
            walks,
            agents,
            informed_vertices,
            source_active,
            key: StreamKey::from_seed(spec.seed),
            threads,
            shard_newly: Vec::new(),
            round: 0,
            messages_total: 0,
            messages_last: 0,
        }
    }

    /// The round-barrier compaction: applies the sharded scans' uninformed-
    /// frontier removals (shard order; the outcome is a set union, so the
    /// partition cannot influence it).
    fn apply_agent_marks(&mut self, shards: usize) {
        for i in 0..shards {
            let buf = std::mem::take(&mut self.shard_newly[i]);
            for &a in &buf {
                self.agents.mark_informed(a as usize);
            }
            self.shard_newly[i] = buf;
        }
    }

    /// Rebuilds the exact mid-run state from `snapshot`: the walk ensemble
    /// from its stored positions and round, the uninformed frontier by
    /// re-marking the stored informed agents, and (visit-exchange) the
    /// vertex informed set by replaying its stored insertion order.
    fn restore(&mut self, snapshot: &SimSnapshot) {
        let positions = snapshot
            .positions
            .clone()
            .expect("agent-engine snapshot stores walk positions");
        self.walks = MultiWalk::restore(
            self.graph,
            positions,
            snapshot.walk_round,
            self.walks.config(),
        );
        self.agents.reset(self.walks.num_agents());
        for &agent in &snapshot.informed_agents {
            self.agents.mark_informed(agent as AgentId);
        }
        self.informed_vertices.reset(self.graph.num_vertices());
        for &v in &snapshot.informed_vertices {
            self.informed_vertices.insert(v as usize);
        }
        self.source_active = snapshot.source_active;
        self.round = snapshot.round;
        self.messages_total = snapshot.messages_total;
        self.messages_last = snapshot.messages_last;
    }

    fn informed_vertex_count(&self) -> usize {
        match self.kind {
            ProtocolKind::VisitExchange => self.informed_vertices.count(),
            _ => usize::from(self.source_active),
        }
    }
}

// No `is_stalled`: agent-protocol quiescence is a reachability property of
// the walk state, too expensive to test per round — the round cap remains
// the terminator on pathological instances (as in the sequential engine).
impl<G: Topology> Rounds for AgentEngine<'_, G> {
    fn step(&mut self) {
        self.round += 1;
        // Sharded movement: per-agent streams, per-shard informed-here
        // bitsets OR-merged at the barrier inside par_step_exchange.
        let moves = self.walks.par_step_exchange(
            self.graph,
            &self.key,
            self.agents.informed_words(),
            false,
            self.threads,
        );
        self.messages_last = moves;
        self.messages_total += moves;
        let walks = &self.walks;
        let positions = walks.positions();

        if self.kind == ProtocolKind::VisitExchange {
            // Phase 1: uninformed vertices visited by an agent informed in a
            // previous round. Sharded scan over the vertex bitset; shard
            // buffers hold disjoint ascending vertex ranges, so the merge is
            // plain insertion.
            let n = self.graph.num_vertices();
            let uninformed_estimate = n - self.informed_vertices.count();
            let shards = sharded_zero_scan(
                self.informed_vertices.words(),
                n,
                uninformed_estimate,
                self.threads,
                |v| walks.informed_here(v),
                &mut self.shard_newly,
            );
            for i in 0..shards {
                let buf = std::mem::take(&mut self.shard_newly[i]);
                for &v in &buf {
                    self.informed_vertices.insert(v as usize);
                }
                self.shard_newly[i] = buf;
            }
            // Phase 2: uninformed agents standing on an informed vertex
            // (informed in a previous round or in phase 1 just now).
            let informed_vertices = &self.informed_vertices;
            let shards = sharded_zero_scan(
                self.agents.informed_words(),
                self.agents.num_agents(),
                self.agents.num_agents() - self.agents.informed_count(),
                self.threads,
                |a| informed_vertices.contains(positions[a] as usize),
                &mut self.shard_newly,
            );
            self.apply_agent_marks(shards);
        } else if self.source_active {
            // Meet-exchange, pickup phase: agents standing on the source.
            let source = self.source;
            let shards = sharded_zero_scan(
                self.agents.informed_words(),
                self.agents.num_agents(),
                self.agents.num_agents() - self.agents.informed_count(),
                self.threads,
                |a| positions[a] as usize == source,
                &mut self.shard_newly,
            );
            if self.shard_newly[..shards].iter().any(|b| !b.is_empty()) {
                self.source_active = false;
            }
            self.apply_agent_marks(shards);
        } else {
            // Meet-exchange: an uninformed agent learns iff an agent
            // informed in a previous round landed on its vertex.
            let shards = sharded_zero_scan(
                self.agents.informed_words(),
                self.agents.num_agents(),
                self.agents.num_agents() - self.agents.informed_count(),
                self.threads,
                |a| walks.informed_here(positions[a] as usize),
                &mut self.shard_newly,
            );
            self.apply_agent_marks(shards);
        }
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn is_complete(&self) -> bool {
        match self.kind {
            ProtocolKind::VisitExchange => self.informed_vertices.is_full(),
            _ => self.agents.is_complete(),
        }
    }

    fn record(&self) -> RoundRecord {
        RoundRecord {
            round: self.round,
            informed_vertices: self.informed_vertex_count(),
            informed_agents: self.agents.informed_count(),
            messages: self.messages_last,
        }
    }

    fn outcome(&self, history: Vec<RoundRecord>) -> BroadcastOutcome {
        BroadcastOutcome {
            protocol: self.kind.name().to_string(),
            rounds: self.round,
            completed: self.is_complete(),
            informed_vertices: self.informed_vertex_count(),
            informed_agents: self.agents.informed_count(),
            total_messages: self.messages_total,
            history,
            edge_traffic: None,
        }
    }
}

impl<G: Topology> Capture for AgentEngine<'_, G> {
    /// Captures the engine's cross-round state: agent positions plus the
    /// walk round fully determine every future movement draw (per-step
    /// scratch is rebuilt each round), and the informed sets are stored as
    /// dense id lists. `rng: None` — the counter-based streams re-derive
    /// from the round counter.
    fn capture(&self, spec_digest: u64, history: &[RoundRecord]) -> SimSnapshot {
        let mut informed_agents = Vec::with_capacity(self.agents.informed_count());
        self.agents
            .for_each_informed(|agent| informed_agents.push(agent as u32));
        SimSnapshot {
            spec_digest,
            round: self.round,
            messages_total: self.messages_total,
            messages_last: self.messages_last,
            rng: None,
            informed_vertices: match self.kind {
                ProtocolKind::VisitExchange => self.informed_vertices.informed().to_vec(),
                _ => Vec::new(),
            },
            informed_agents,
            positions: Some(self.walks.positions().to_vec()),
            walk_round: self.walks.round(),
            source_active: self.source_active,
            history: history.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn supports_rejects_edge_traffic_and_combined() {
        use crate::options::ProtocolOptions;
        let mut spec = SimulationSpec::new(ProtocolKind::Push);
        assert!(supports(&spec));
        spec.options = ProtocolOptions::with_edge_traffic();
        assert!(!supports(&spec));
        let combined = SimulationSpec::new(ProtocolKind::PushPullVisitExchange);
        assert!(!supports(&combined));
    }

    #[test]
    fn even_word_ranges_cover_exactly() {
        for words in [0usize, 1, 5, 64, 100] {
            for shards in [1usize, 2, 3, 8] {
                let ranges: Vec<_> = even_word_ranges(words, shards).collect();
                let mut expect = 0;
                for (lo, hi) in ranges {
                    assert_eq!(lo, expect);
                    assert!(hi > lo);
                    expect = hi;
                }
                assert_eq!(expect, words);
            }
        }
    }

    #[test]
    fn collect_zeros_respects_limit_and_filter() {
        let words = [0b1010u64, u64::MAX, 0u64];
        let mut out = Vec::new();
        collect_zeros(&words, (0, 3), 130, usize::MAX, |i| i % 2 == 0, &mut out);
        // Word 0 zeros: everything but bits 1 and 3; word 1 has none; word 2
        // contributes 128, 129 — clamped by limit 130, filtered to evens.
        let expected: Vec<u32> = (0..130u32)
            .filter(|&i| i % 2 == 0 && i != 1 && i != 3 && !(64..128).contains(&i))
            .collect();
        assert_eq!(out, expected);
    }
}
