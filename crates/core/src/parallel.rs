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
//!   rule, so only the draws differ. The frontier's summary-listed words
//!   are cut into contiguous ranges balanced by active-bit popcount, and
//!   each worker runs the sequential engine's vertex pass over its range
//!   with per-vertex counter streams as the draw source, compacting the
//!   state-changing results into a per-shard buffer. The buffers are merged
//!   on the coordinating thread in ascending shard order (the merge is the
//!   same `insert` + boundary-counter update loop the sequential engine
//!   runs, and its outcome is a set union — independent of the partition).
//!   Each insert walks the new member's neighbor list, which the generated
//!   and hub-cached backends derive rather than read; there the merge runs
//!   a window at a time, resolving the lists of the window's first
//!   occurrences on the workers through [`Topology::neighbor_lists`] before
//!   the same loop inserts the window's entries in order. The window is
//!   bounded and its buffers live in the per-run scratch, so a warm run
//!   allocates nothing per round.
//! * **Agent protocols** (`visit-exchange`, `meet-exchange`): the engine
//!   runs the sequential protocols' [`Exchange`] state under the same
//!   compile-time rule, and with it the same exchange scans. Movement is
//!   [`MultiWalk::par_step_exchange`]: each 64-aligned agent shard runs the
//!   sequential engine's movement pass, in the shape
//!   [`Topology::defers_reads`] picks, with the round's counter streams as
//!   its draw source, and the per-shard informed-here bitsets are merged
//!   with atomic-free OR passes; each scan
//!   covers the uninformed side in sharded ranges, compacts hits into
//!   per-shard buffers, and the hits are applied at the round barrier.
//!
//! Small instances never pay for threads: each sharded pass falls back to an
//! inline single-shard loop when the work per shard would be tiny (the
//! fallback cannot change results — that is the whole point of the
//! counter-based contract). The sequential engines remain the reference
//! implementations; statistical tests pin this engine's round distributions
//! against theirs, and `tests/parallel_engine.rs` pins thread-count
//! invariance bit-for-bit.

use rand::rngs::SmallRng;
use rand::stream::StreamKey;
use rand::SeedableRng;

use rumor_graphs::{DrawBlock, Topology, VertexId};
use rumor_walks::{AgentId, MultiWalk, UninformedFrontier};

use crate::driver::{drive, outcome_of, record_of, Capture, Checkpoint, Rounds};
use crate::engine::SimulationSpec;
use crate::metrics::{BroadcastOutcome, RoundRecord};
use crate::options::ProtocolOptions;
use crate::protocol::{FastStep, ProtocolKind};
use crate::protocols::common::InformedSet;
use crate::protocols::exchange::{Exchange, ExchangeRule, MeetExchange, Scan, VisitExchange};
use crate::protocols::gossip::{Gossip, GossipRule, Pull, Push, PushPull};
use crate::snapshot::{Checkpointable, ResumableRun, SimSnapshot};

/// Minimum number of realized draws per shard before a vertex round spawns
/// workers (a draw is tens of nanoseconds; a scoped spawn is microseconds).
const MIN_DRAWS_PER_SHARD: u64 = 1024;
/// Minimum number of scanned entities per shard before an exchange-phase
/// scan spawns workers (a scan step is an O(1) bit test).
const MIN_SCAN_PER_SHARD: usize = 8192;
/// List entries the vertex-protocol merge resolves per window (see
/// [`merge`]): enough for every worker to overlap hundreds of derivations,
/// small enough that the window's lists stay in the L2 cache.
const MERGE_WINDOW: usize = 1 << 14;
/// Minimum number of list entries per shard before a merge window spawns
/// workers (a derived entry costs tens of nanoseconds).
const MIN_LISTS_PER_SHARD: usize = 2048;

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
    let run = (spec, threads, resume, history, checkpoint);
    let (agents, none) = (&spec.agents, ProtocolOptions::none());
    // Agent placement consumes the same seeded SmallRng as the sequential
    // engine's construction, so both engines start every trial from the
    // identical agent configuration; only the per-round draws differ.
    let rng = &mut SmallRng::seed_from_u64(spec.seed);
    match spec.kind {
        ProtocolKind::Push => Sharded::run(Push::new(graph, source, none), run),
        ProtocolKind::Pull => Sharded::run(Pull::new(graph, source, none), run),
        ProtocolKind::PushPull => Sharded::run(PushPull::new(graph, source, none), run),
        ProtocolKind::VisitExchange => {
            Sharded::run(VisitExchange::new(graph, source, agents, none, rng), run)
        }
        ProtocolKind::MeetExchange => {
            Sharded::run(MeetExchange::new(graph, source, agents, none, rng), run)
        }
        _ => unreachable!("unsupported kind routed to the sharded engine"),
    }
}

/// Protocol state the sharded engine advances: one round realized from the
/// counter-based streams of `key`, with `shards` as its scratch.
trait ShardedStep: FastStep + Checkpointable {
    /// Executes one synchronous round.
    fn sharded_step(&mut self, shards: &mut Shards, key: &StreamKey);
}

/// The sharded engine's per-run scratch, reused across rounds.
struct Shards {
    threads: usize,
    /// Per-shard compaction buffers.
    newly: Vec<Vec<u32>>,
    /// Per-shard draw blocks for [`Topology::resolve_block`], and their
    /// scratch for [`Topology::neighbor_lists`].
    blocks: Vec<DrawBlock>,
    /// Shards the last exchange scan filled.
    filled: usize,
    /// The vertex-protocol merge's window: its vertices, their neighbor
    /// lists back to back, and one bit per vertex marking the window's
    /// members until they are inserted (see [`merge`]).
    window: Vec<u32>,
    lists: Vec<u32>,
    seen: Vec<u64>,
}

/// A sharded run: the sequential protocol's state `P` (informed sets,
/// trackers, counters) under the same compile-time rule, advanced by
/// [`ShardedStep`] instead of one sequential generator. Everything but the
/// round itself delegates to `P`.
struct Sharded<P> {
    state: P,
    key: StreamKey,
    shards: Shards,
}

/// What a sharded run starts from: its spec and worker count, the snapshot
/// it resumes, the history recorded before that, and its checkpoint sink.
type RunArgs<'a, 'c> = (
    &'a SimulationSpec,
    usize,
    Option<&'a SimSnapshot>,
    Vec<RoundRecord>,
    Option<Checkpoint<'c>>,
);

impl<P: ShardedStep> Sharded<P> {
    /// Runs `state` (restored from `resume` when given) to the end of the
    /// run (see [`drive_sharded`]).
    fn run(
        state: P,
        (spec, threads, resume, history, checkpoint): RunArgs<'_, '_>,
    ) -> ResumableRun {
        let mut run = Sharded {
            state,
            key: StreamKey::from_seed(spec.seed),
            shards: Shards {
                threads,
                newly: Vec::new(),
                blocks: Vec::new(),
                filled: 0,
                window: Vec::new(),
                lists: Vec::new(),
                seen: Vec::new(),
            },
        };
        if let Some(snapshot) = resume {
            // Replays the informed sets in their stored insertion order, so
            // every derived structure is bit-identical by construction.
            run.state.restore(snapshot);
        }
        let (cap, record) = (spec.max_rounds, spec.options.record_history);
        drive(&mut run, cap, record, history, checkpoint)
    }
}

impl<P: ShardedStep> Rounds for Sharded<P> {
    fn step(&mut self) {
        self.state.sharded_step(&mut self.shards, &self.key);
    }

    fn round(&self) -> u64 {
        self.state.round()
    }

    fn is_complete(&self) -> bool {
        self.state.is_complete()
    }

    /// The sharded twin of [`FastStep::is_stalled`]: on a disconnected
    /// graph a vertex protocol's reachable component saturates with the
    /// frontier quiescent, and every further round would realize zero
    /// draws. (Agent protocols keep the default and rely on the round cap.)
    fn is_stalled(&self) -> bool {
        self.state.is_stalled()
    }

    fn record(&self) -> RoundRecord {
        record_of(&self.state)
    }

    fn outcome(&self, history: Vec<RoundRecord>) -> BroadcastOutcome {
        outcome_of(&self.state, history)
    }
}

impl<P: ShardedStep> Capture for Sharded<P> {
    /// Captures the run's cross-round state. No generator state is stored:
    /// the counter-based streams re-derive every draw from `(seed, round,
    /// entity)`, so the round counter *is* the RNG position (agent
    /// positions plus the walk round determine every future move).
    fn capture(&self, spec_digest: u64, history: &[RoundRecord]) -> SimSnapshot {
        self.state.capture(spec_digest, None, history)
    }
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

/// The sharded round of the vertex protocols (see the module docs).
impl<G: Topology, R: GossipRule> ShardedStep for Gossip<'_, G, R> {
    /// One synchronous round: sharded draws, then the sequential merge that
    /// the sequential engine also runs (insert + boundary update).
    fn sharded_step(&mut self, shards: &mut Shards, key: &StreamKey) {
        let round_key = key.round_key(self.begin_round());
        let gossip = &*self;
        let active = gossip.active();

        // At one thread there is nothing to balance: skip the popcount pass
        // and run the pass inline. The pass is only paid when sharding is
        // possible, where it also yields the popcount-balanced cut points.
        let words = gossip.graph().num_vertices().div_ceil(64);
        let total: u64 = match shards.threads {
            1 => 0,
            _ => active
                .nonempty_words(0..words)
                .map(|(_, w)| u64::from(w.count_ones()))
                .sum(),
        };
        let count = shards
            .threads
            .min((total / MIN_DRAWS_PER_SHARD + 1) as usize);
        if shards.newly.len() < count {
            shards.newly.resize_with(count, Vec::new);
            shards.blocks.resize_with(count, DrawBlock::default);
        }
        for buf in &mut shards.newly[..count] {
            buf.clear();
        }
        if count == 1 {
            let (buf, draws) = (&mut shards.newly[0], &mut shards.blocks[0]);
            gossip.sharded_calls(&round_key, 0..words, buf, draws);
        } else {
            // Contiguous word ranges with roughly equal active popcounts
            // (the frontier can be concentrated; even word splits would idle
            // most workers on e.g. a star's leaf range).
            let target = total.div_ceil(count as u64).max(1);
            let mut ranges = Vec::with_capacity(count);
            let (mut lo, mut acc) = (0usize, 0u64);
            for (idx, w) in active.nonempty_words(0..words) {
                acc += u64::from(w.count_ones());
                if acc >= target && ranges.len() + 1 < count {
                    ranges.push(lo..idx + 1);
                    lo = idx + 1;
                    acc = 0;
                }
            }
            ranges.push(lo..words);
            std::thread::scope(|scope| {
                let scratch = shards.newly.iter_mut().zip(&mut shards.blocks);
                for (range, (buf, draws)) in ranges.into_iter().zip(scratch) {
                    let round_key = &round_key;
                    scope.spawn(move || gossip.sharded_calls(round_key, range, buf, draws));
                }
            });
        }

        merge(self, shards, count);
    }
}

/// Round barrier of the vertex protocols: merges the first `count` shard
/// buffers in ascending range order. This is the loop the sequential
/// engine runs over its single buffer; `inform` dedups repeats (two
/// callers informing the same vertex).
///
/// Where the backend resolves neighbor lists in bulk
/// ([`Topology::neighbor_lists`]), the loop runs a window at a time: the
/// next entries' first occurrences, up to [`MERGE_WINDOW`] list entries,
/// have their lists resolved in parallel shards, and then the same loop
/// inserts those entries in order, taking the next resolved list for each
/// insert that succeeds (a successful insert is exactly a first
/// occurrence). Every other backend merges entry by entry.
fn merge<G: Topology, R: GossipRule>(
    gossip: &mut Gossip<'_, G, R>,
    shards: &mut Shards,
    count: usize,
) {
    let graph = gossip.graph();
    if !graph.neighbor_lists(&[], &mut [], &mut shards.blocks[0]) {
        for buf in &shards.newly[..count] {
            for &v in buf {
                gossip.inform(v as usize);
            }
        }
        return;
    }
    let Shards {
        threads,
        newly,
        blocks,
        window,
        lists,
        seen,
        ..
    } = shards;
    seen.resize(graph.num_vertices().div_ceil(64), 0);
    let mut entries = newly[..count].iter().flatten().map(|&v| v as usize);
    loop {
        // The window: the first occurrences among the next entries that
        // are not informed yet, marked in `seen` until they are.
        window.clear();
        let (mut taken, mut total) = (0usize, 0usize);
        for v in entries.clone() {
            taken += 1;
            let bit = 1u64 << (v & 63);
            if seen[v >> 6] & bit == 0 && !gossip.informed().contains(v) {
                seen[v >> 6] |= bit;
                window.push(v as u32);
                total += graph.degree(v);
                if total >= MERGE_WINDOW {
                    break;
                }
            }
        }
        if taken == 0 {
            return;
        }
        lists.resize(total, 0);
        resolve_lists(graph, window, lists, blocks, *threads);
        let mut rest = &lists[..];
        for v in entries.by_ref().take(taken) {
            if gossip.inform_listed(v, &mut rest) {
                seen[v >> 6] &= !(1u64 << (v & 63));
            }
        }
        debug_assert!(rest.is_empty(), "every window vertex was inserted");
    }
}

/// Writes the neighbor lists of `window` back to back into `lists` (their
/// degree sum long), split into contiguous shards of about equal list
/// entries that resolve on scoped workers, the last on this thread.
fn resolve_lists<G: Topology>(
    graph: &G,
    window: &[u32],
    lists: &mut [u32],
    blocks: &mut Vec<DrawBlock>,
    threads: usize,
) {
    let count = threads.min(lists.len() / MIN_LISTS_PER_SHARD + 1);
    if blocks.len() < count {
        blocks.resize_with(count, DrawBlock::default);
    }
    if count == 1 {
        graph.neighbor_lists(window, lists, &mut blocks[0]);
        return;
    }
    let share = lists.len().div_ceil(count);
    std::thread::scope(|scope| {
        let (mut vertices, mut out) = (window, lists);
        for (i, block) in blocks[..count].iter_mut().enumerate() {
            let last = i + 1 == count;
            let (mut k, mut entries) = (0, 0);
            while k < vertices.len() && (entries < share || last) {
                entries += graph.degree(vertices[k] as usize);
                k += 1;
            }
            let (these, later) = vertices.split_at(k);
            let (span, tail) = std::mem::take(&mut out).split_at_mut(entries);
            (vertices, out) = (later, tail);
            if last {
                graph.neighbor_lists(these, span, block);
            } else {
                scope.spawn(move || graph.neighbor_lists(these, span, block));
            }
        }
    });
}

impl Scan for Shards {
    /// Always the uninformed-vertex scan, whatever the density: shard
    /// buffers hold disjoint ascending vertex ranges.
    fn vertices(&mut self, walks: &MultiWalk, _: &UninformedFrontier, vertices: &InformedSet) {
        let n = vertices.universe();
        self.filled = sharded_zero_scan(
            vertices.words(),
            n,
            n - vertices.count(),
            self.threads,
            |v| walks.informed_here(v),
            &mut self.newly,
        );
    }

    fn agents(&mut self, agents: &UninformedFrontier, learns: impl Fn(AgentId) -> bool + Sync) {
        let n = agents.num_agents();
        self.filled = sharded_zero_scan(
            agents.informed_words(),
            n,
            n - agents.informed_count(),
            self.threads,
            learns,
            &mut self.newly,
        );
    }

    fn hits(&self) -> impl Iterator<Item = usize> + '_ {
        self.newly[..self.filled]
            .iter()
            .flatten()
            .map(|&i| i as usize)
    }
}

/// The sharded round of the agent protocols: the [`Exchange`] agents move on
/// per-agent streams ([`MultiWalk::par_step_exchange`]: 64-aligned agent
/// blocks, per-shard informed-here bitsets OR-merged at the barrier), and
/// each exchange scan is a [`sharded_zero_scan`] over the scanned set's
/// words, so hits come back in ascending order and are applied at the round
/// barrier.
impl<G: Topology, X: ExchangeRule> ShardedStep for Exchange<'_, G, X> {
    fn sharded_step(&mut self, shards: &mut Shards, key: &StreamKey) {
        let threads = shards.threads;
        self.advance(shards, |graph, walks, agents| {
            walks.par_step_exchange(graph, key, agents.informed_words(), false, threads)
        });
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
