//! Many independent random walks advanced in lock-step.
//!
//! This is the agent substrate of `visit-exchange` and `meet-exchange`: a set
//! `A` of agents, each performing an independent (possibly lazy) random walk,
//! all taking one step per synchronous round.
//!
//! # The flat occupancy engine
//!
//! Per-vertex occupancy ("which agents are on `v` right now?", the quantity
//! `|Z_v(t)|` from the paper's proofs) is stored as a **counting-sort CSR**
//! over four reusable flat arrays instead of a `Vec<Vec<AgentId>>`:
//!
//! * `occ_count[v]` — number of agents currently at `v`;
//! * `occ_cursor[v]` — end of `v`'s block in `occ_agents` (start is
//!   `end - count`);
//! * `occ_agents` — all `|A|` agent ids, grouped by vertex, each group in
//!   ascending agent order;
//! * `touched` — the occupied vertices, each exactly once.
//!
//! Every step rebuilds this in passes that each cost `O(|A|)`: the movement
//! pass counts arrivals (and pushes first arrivals onto `touched`), an
//! offsets pass over `touched` assigns block starts, and a scatter pass
//! places agent ids. Clearing reuses `touched`, so no pass ever visits an
//! unoccupied vertex and no step allocates.
//!
//! [`MultiWalk::step_exchange`] — the exchange protocols' hot path — goes one
//! step further: it skips the counting-sort rebuild entirely and instead
//! maintains only an **informed-here bitset** (one bit per vertex: "did an
//! agent that was informed at the start of this round land here?"), fused
//! into the movement pass. That is the only occupancy fact `visit-exchange`
//! and `meet-exchange` consult per round, and the bitset (n/8 bytes) stays
//! cache-resident where the full CSR arrays would not. The detailed
//! occupancy views go stale after such a step; call
//! [`MultiWalk::refresh_occupancy`] before using them (the accessors panic
//! on stale data rather than answer wrongly).
//!
//! # The movement pass
//!
//! Every step method — [`MultiWalk::step`], [`MultiWalk::step_exchange`]
//! and each shard of [`MultiWalk::par_step_exchange`] — runs one movement
//! pass, generic over its draw source: the shared sequential generator,
//! read in ascending agent order, or a round's counter streams (pair lanes
//! for simple walks, per-agent streams for lazy ones). The pass has two
//! shapes, and [`Topology::defers_reads`] picks between them:
//!
//! * the **immediate shape** draws, stores and marks each agent in turn —
//!   on CSR graphs whose read lists fit the cache and on the implicit
//!   backend, where a neighbor read costs less than queueing it would;
//! * the **block shape** draws every agent of a 64-agent block
//!   ([`Topology::draw_deferred`], prefetching sampler entries `P = 16`
//!   agents ahead), resolves the block with one
//!   [`Topology::resolve_block`] call, then stores and marks. A large CSR
//!   graph overlaps the block's adjacency misses this way; the generated
//!   and hub-cached backends derive the block's neighbors in one batched
//!   kernel.
//!
//! Both shapes mark in 64-agent blocks specialized on the block's informed
//! word: all-uninformed blocks store no marks, all-informed blocks mark
//! unconditionally, and mixed blocks mark branchlessly.
//!
//! **Determinism:** all randomness is drawn in the movement pass, one agent
//! at a time in ascending agent order (a laziness draw when configured, then
//! a neighbor draw unless the agent stays or is isolated). Resolving a
//! token reads memory, never the RNG, so the shape changes no draw. The
//! occupancy representation consumes no randomness either, so the flat
//! engine is draw-for-draw identical to a naive per-agent `random_neighbor`
//! loop over a `Vec<Vec>` substrate — the equivalence tests in `rumor-core`
//! pin this bit-for-bit, and this module's tests compare both shapes with
//! that loop at agent counts around the block edges.

use std::ops::Range;

use rand::stream::{RoundKey, StreamKey};
use rand::Rng;

use rumor_graphs::{DeferredNeighbor, DrawBlock, Topology, VertexId};

use crate::config::WalkConfig;
use crate::frontier::UninformedFrontier;
use crate::placement::Placement;

/// Identifier of an agent: an index in `0..num_agents`.
pub type AgentId = usize;

/// A collection of independent random walks ("agents") on a shared graph,
/// advanced synchronously.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_graphs::generators::complete;
/// use rumor_walks::{MultiWalk, Placement, WalkConfig};
///
/// let g = complete(16)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut walks = MultiWalk::new(&g, 16, &Placement::Stationary, WalkConfig::simple(), &mut rng);
/// assert_eq!(walks.num_agents(), 16);
/// walks.step(&g, &mut rng);
/// assert_eq!(walks.round(), 1);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiWalk {
    /// Current vertex of each agent.
    positions: Vec<u32>,
    /// Vertex of each agent in the previous round (before the last step).
    previous: Vec<u32>,
    /// `occ_count[v]`: agents currently at `v`.
    occ_count: Vec<u32>,
    /// `occ_cursor[v]`: end of `v`'s block in `occ_agents` (stale for
    /// unoccupied vertices, but then `occ_count[v] == 0` and the block is
    /// empty anyway).
    occ_cursor: Vec<u32>,
    /// Agent ids grouped by vertex (counting-sort payload).
    occ_agents: Vec<u32>,
    /// Occupied vertices, each exactly once, in first-arrival order.
    touched: Vec<u32>,
    /// Bit `v` set ⇔ an agent informed at the start of the round is at `v`;
    /// maintained only by [`MultiWalk::step_exchange`], zero elsewhere.
    /// Cleared with one n/8-byte memset per round (cheaper than tracking
    /// touched bits: the unconditional `|=` mark keeps the movement loop
    /// branch-free).
    informed_here: Vec<u64>,
    /// Whether the counting-sort views (`occ_*`, `touched`) reflect
    /// `positions`. [`MultiWalk::step_exchange`] leaves them stale.
    occupancy_fresh: bool,
    /// Whether `previous` reflects the positions before the last step.
    /// [`MultiWalk::step_exchange`] updates positions in place and records
    /// the snapshot only when asked to (`track_previous`).
    previous_fresh: bool,
    /// Per-shard informed-here scratch bitsets for
    /// [`MultiWalk::par_step_exchange`] (empty until the first sharded step;
    /// reused across rounds so no sharded step allocates after warm-up).
    shard_marks: Vec<Vec<u64>>,
    /// Draw blocks for the movement pass's block shape, one per shard (the
    /// sequential steps use the first), kept like `shard_marks`.
    blocks: Vec<DrawBlock>,
    config: WalkConfig,
    round: u64,
}

impl MultiWalk {
    /// Creates `count` agents placed by `placement` (see
    /// [`Placement::sample`](crate::Placement::sample) for how `count`
    /// interacts with the placement kind).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as `Placement::sample`.
    pub fn new<G: Topology, R: Rng + ?Sized>(
        graph: &G,
        count: usize,
        placement: &crate::Placement,
        config: WalkConfig,
        rng: &mut R,
    ) -> Self {
        let mut positions = Vec::new();
        placement.sample_into(graph, count, rng, &mut positions);
        Self::from_u32_positions(graph.num_vertices(), positions, config)
    }

    /// Creates agents at explicitly given starting vertices.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn from_positions<G: Topology>(
        graph: &G,
        positions: Vec<VertexId>,
        config: WalkConfig,
    ) -> Self {
        let n = graph.num_vertices();
        for &v in &positions {
            assert!(v < n, "agent position {v} out of range");
        }
        let positions: Vec<u32> = positions.into_iter().map(|v| v as u32).collect();
        Self::from_u32_positions(n, positions, config)
    }

    /// Shared constructor over already-validated `u32` positions.
    fn from_u32_positions(n: usize, positions: Vec<u32>, config: WalkConfig) -> Self {
        let agents = positions.len();
        let mut walk = MultiWalk {
            previous: positions.clone(),
            positions,
            occ_count: vec![0; n],
            occ_cursor: vec![0; n],
            occ_agents: vec![0; agents],
            touched: Vec::new(),
            informed_here: vec![0; n.div_ceil(64)],
            shard_marks: Vec::new(),
            blocks: Vec::new(),
            occupancy_fresh: true,
            previous_fresh: true,
            config,
            round: 0,
        };
        walk.rebuild_occupancy();
        walk
    }

    /// Rebuilds a walk set from checkpointed state: the agents' current
    /// vertices plus the `round` counter the walks had when the snapshot was
    /// taken. Consumes **no randomness** — unlike [`MultiWalk::new`], no
    /// placement is sampled — so restoring cannot perturb any RNG stream.
    ///
    /// The round counter matters for resumption under the counter-based
    /// engine: [`MultiWalk::par_step_exchange`] keys each round's draw
    /// streams by this counter, so a restored walk set continues drawing
    /// exactly where the captured one would have.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range for `graph`.
    pub fn restore<G: Topology>(
        graph: &G,
        positions: Vec<u32>,
        round: u64,
        config: WalkConfig,
    ) -> Self {
        let n = graph.num_vertices();
        for &v in &positions {
            assert!((v as usize) < n, "agent position {v} out of range");
        }
        let mut walk = Self::from_u32_positions(n, positions, config);
        walk.round = round;
        walk
    }

    /// Re-initializes the walk set in place for a fresh trial — same state
    /// (and same RNG draws) as [`MultiWalk::new`] with the identical
    /// arguments, but with **zero heap allocation** after warm-up: positions
    /// are re-sampled into the existing arrays and the counting-sort views
    /// are rebuilt over the buffers of the previous trial. This is the agent
    /// half of the sweep runner's reusable `SimWorkspace`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MultiWalk::new`].
    pub fn reset<G: Topology, R: Rng + ?Sized>(
        &mut self,
        graph: &G,
        count: usize,
        placement: &Placement,
        rng: &mut R,
    ) {
        // Drop the stale occupancy of the previous trial *before* positions
        // change: `touched` covers every nonzero `occ_count` entry.
        self.clear_occupancy();
        let n = graph.num_vertices();
        self.occ_count.resize(n, 0);
        self.occ_cursor.resize(n, 0);
        self.informed_here.clear();
        self.informed_here.resize(n.div_ceil(64), 0);
        placement.sample_into(graph, count, rng, &mut self.positions);
        let agents = self.positions.len();
        self.previous.clear();
        self.previous.extend_from_slice(&self.positions);
        self.occ_agents.resize(agents, 0);
        self.round = 0;
        self.previous_fresh = true;
        self.rebuild_occupancy();
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.positions.len()
    }

    /// Number of synchronous steps taken so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The walk configuration shared by all agents.
    pub fn config(&self) -> WalkConfig {
        self.config
    }

    /// Current position of `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= self.num_agents()`.
    pub fn position(&self, agent: AgentId) -> VertexId {
        self.positions[agent] as VertexId
    }

    /// Position of `agent` before the most recent [`MultiWalk::step`]
    /// (equal to its current position before any step has been taken).
    ///
    /// # Panics
    ///
    /// Panics if the last step was a [`MultiWalk::step_exchange`] without
    /// `track_previous` (the in-place fast path does not record the
    /// snapshot).
    pub fn previous_position(&self, agent: AgentId) -> VertexId {
        assert!(
            self.previous_fresh,
            "previous positions were not tracked by the last step_exchange"
        );
        self.previous[agent] as VertexId
    }

    /// All current positions, indexed by agent (vertex ids as `u32`).
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Asserts the counting-sort views are in sync with `positions`.
    #[inline]
    fn assert_occupancy_fresh(&self) {
        assert!(
            self.occupancy_fresh,
            "occupancy views are stale after step_exchange; call refresh_occupancy() first"
        );
    }

    /// The agents currently occupying vertex `v`, in ascending agent order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range, or if the occupancy views are stale
    /// (see [`MultiWalk::refresh_occupancy`]).
    pub fn agents_at(&self, v: VertexId) -> &[u32] {
        self.assert_occupancy_fresh();
        let count = self.occ_count[v] as usize;
        let end = self.occ_cursor[v] as usize;
        &self.occ_agents[end - count..end]
    }

    /// Number of agents currently at vertex `v` (`|Z_v(t)|` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the occupancy views are stale (see
    /// [`MultiWalk::refresh_occupancy`]).
    pub fn occupancy(&self, v: VertexId) -> usize {
        self.assert_occupancy_fresh();
        self.occ_count[v] as usize
    }

    /// Whether an agent that was informed at the start of the most recent
    /// [`MultiWalk::step_exchange`] round (per the bitset passed to it) is
    /// currently at vertex `v`. This is the one occupancy fact the exchange
    /// protocols consult per round, answered from a cache-resident bitset.
    /// `false` everywhere if the last step was taken through
    /// [`MultiWalk::step`] or after a teleport rebuild.
    #[inline]
    pub fn informed_here(&self, v: VertexId) -> bool {
        self.informed_here[v >> 6] & (1u64 << (v & 63)) != 0
    }

    /// Occupancy of every vertex as a vector of counts.
    ///
    /// # Panics
    ///
    /// Panics if the occupancy views are stale (see
    /// [`MultiWalk::refresh_occupancy`]).
    pub fn occupancy_counts(&self) -> Vec<usize> {
        self.assert_occupancy_fresh();
        self.occ_count.iter().map(|&c| c as usize).collect()
    }

    /// Total number of agents in the closed neighborhood sense used by the
    /// paper's tweaked processes: the number of agents currently sitting on
    /// *neighbors* of `u` (i.e. the agents that could visit `u` next round).
    ///
    /// # Panics
    ///
    /// Panics if the occupancy views are stale (see
    /// [`MultiWalk::refresh_occupancy`]).
    pub fn neighborhood_occupancy<G: Topology>(&self, graph: &G, u: VertexId) -> usize {
        let mut total = 0;
        graph.for_each_neighbor(u, |v| total += self.occupancy(v));
        total
    }

    /// Rebuilds the counting-sort occupancy views from `positions` after a
    /// [`MultiWalk::step_exchange`] left them stale. O(|A|). Idempotent.
    pub fn refresh_occupancy(&mut self) {
        if !self.occupancy_fresh {
            self.rebuild_occupancy();
        }
    }

    /// Advances every agent by one synchronous step, increments the round
    /// counter, and returns the number of agents that traversed an edge,
    /// i.e. whose position changed. Lazy agents stay put with probability
    /// `config.laziness()`.
    ///
    /// Agents on isolated vertices never move.
    pub fn step<G: Topology, R: Rng + ?Sized>(&mut self, graph: &G, rng: &mut R) -> u64 {
        self.previous.copy_from_slice(&self.positions);
        self.previous_fresh = true;
        let moves = self.move_all(graph, Sequential(rng), &[]);
        self.rebuild_occupancy();
        self.round += 1;
        moves
    }

    /// Advances every agent like [`MultiWalk::step`] and, fused into the
    /// same movement pass, maintains the [`MultiWalk::informed_here`]
    /// bitset from `informed`'s agent bitset (snapshotted as of the *start*
    /// of the round — exactly the "informed in a previous round" set the
    /// exchange protocols need). The counting-sort occupancy views are left
    /// stale (see [`MultiWalk::refresh_occupancy`]); positions are updated
    /// in place, so the previous-position view is recorded only when
    /// `track_previous` is set (protocols pass their edge-traffic flag) and
    /// is otherwise stale too. This is what makes the exchange round O(|A|)
    /// sequential work over a working set small enough to sit in L2.
    ///
    /// Consumes the RNG identically to [`MultiWalk::step`]: the informed
    /// bookkeeping draws nothing.
    ///
    /// # Panics
    ///
    /// Panics if `informed` tracks fewer agents than `self.num_agents()`.
    pub fn step_exchange<G: Topology, R: Rng + ?Sized>(
        &mut self,
        graph: &G,
        rng: &mut R,
        informed: &UninformedFrontier,
        track_previous: bool,
    ) -> u64 {
        assert!(
            informed.num_agents() >= self.num_agents(),
            "informed frontier tracks too few agents"
        );
        self.begin_exchange(track_previous);
        self.clear_informed_marks();
        let moves = self.move_all(graph, Sequential(rng), informed.informed_words());
        self.round += 1;
        moves
    }

    /// The sharded, thread-invariant counterpart of
    /// [`MultiWalk::step_exchange`]: agents are split into 64-aligned shards
    /// across `threads` scoped workers, and every agent draws from its own
    /// counter-based stream (`rand::stream`, keyed by
    /// `(key, round, agent_id)`) instead of a shared sequential generator.
    ///
    /// Because a draw is a pure function of the agent's identity, the result
    /// is **bit-identical at every thread count** (including 1, where the
    /// whole pass runs inline with no thread spawn): sharding only decides
    /// *who computes* a draw, never *what* it is. Each shard runs the same
    /// movement pass as the sequential steps, marking informed arrivals
    /// into a private per-shard bitset; the shards are merged into
    /// [`MultiWalk::informed_here`] with one atomic-free OR pass per word
    /// after the workers join (ORs commute, so merge order is immaterial).
    ///
    /// The draw order *within* one agent's stream matches the sequential
    /// engine exactly (optional laziness draw, then a neighbor draw), so the
    /// trajectory *law* is the sequential engine's — only the underlying
    /// variates differ. Occupancy views go stale exactly like
    /// [`MultiWalk::step_exchange`].
    ///
    /// # Panics
    ///
    /// Panics if `informed_words` has fewer than
    /// `num_agents().div_ceil(64)` entries, or if `threads == 0`.
    pub fn par_step_exchange<G: Topology>(
        &mut self,
        graph: &G,
        key: &StreamKey,
        informed_words: &[u64],
        track_previous: bool,
        threads: usize,
    ) -> u64 {
        assert!(threads > 0, "par_step_exchange needs at least one thread");
        let num_agents = self.positions.len();
        assert!(
            informed_words.len() >= num_agents.div_ceil(64),
            "informed bitset too short"
        );
        let round_key = key.round_key(self.round.wrapping_add(1));
        self.begin_exchange(track_previous);

        // 64-aligned shard span so each shard starts on an informed-word
        // boundary; at most `threads` shards.
        let per_thread = num_agents.div_ceil(threads);
        let shard_span = per_thread.div_ceil(64).max(1) * 64;
        let num_shards = num_agents.div_ceil(shard_span);

        let moves = if num_shards <= 1 {
            // Inline path: no spawn, marks written straight into the main
            // bitset. Identical output by construction — the draws do not
            // depend on who computes them.
            self.clear_informed_marks();
            self.move_all(graph, Counter::new(&round_key), informed_words)
        } else {
            let words = self.informed_here.len();
            if self.shard_marks.len() < num_shards {
                self.shard_marks.resize_with(num_shards, Vec::new);
            }
            for marks in &mut self.shard_marks[..num_shards] {
                marks.clear();
                marks.resize(words, 0);
            }
            if self.blocks.len() < num_shards {
                self.blocks.resize_with(num_shards, DrawBlock::default);
            }
            let mut shard_marks = std::mem::take(&mut self.shard_marks);
            let positions = &mut self.positions;
            let laziness = self.config.laziness();
            let mut total = 0u64;
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(num_shards);
                for (((shard, chunk), marks), draws) in positions
                    .chunks_mut(shard_span)
                    .enumerate()
                    .zip(shard_marks.iter_mut())
                    .zip(self.blocks.iter_mut())
                {
                    let round_key = &round_key;
                    handles.push(scope.spawn(move || {
                        let pass = Pass {
                            graph,
                            source: Counter::new(round_key),
                            laziness,
                            informed_words,
                            marks,
                        };
                        pass.run(shard * shard_span, chunk, draws)
                    }));
                }
                for handle in handles {
                    total += handle.join().expect("shard worker panicked");
                }
            });
            // Atomic-free OR merge: word `i` of the main bitset is the OR of
            // word `i` across shards (commutative, so thread count and merge
            // order cannot influence the result).
            for (i, slot) in self.informed_here.iter_mut().enumerate() {
                let mut word = 0u64;
                for marks in &shard_marks[..num_shards] {
                    word |= marks[i];
                }
                *slot = word;
            }
            self.shard_marks = shard_marks;
            total
        };
        self.round += 1;
        moves
    }

    /// Records (or invalidates) the previous-position view before an
    /// exchange step's in-place movement pass, and marks the counting-sort
    /// views stale.
    fn begin_exchange(&mut self, track_previous: bool) {
        if track_previous {
            self.previous.copy_from_slice(&self.positions);
        }
        self.previous_fresh = track_previous;
        self.occupancy_fresh = false;
    }

    /// Runs the movement pass over every agent with draws from `source`,
    /// marking informed arrivals (per `informed_words`) into
    /// [`MultiWalk::informed_here`].
    fn move_all<G: Topology, S: DrawSource>(
        &mut self,
        graph: &G,
        source: S,
        informed_words: &[u64],
    ) -> u64 {
        if self.blocks.is_empty() {
            self.blocks.push(DrawBlock::default());
        }
        let pass = Pass {
            graph,
            source,
            laziness: self.config.laziness(),
            informed_words,
            marks: &mut self.informed_here,
        };
        pass.run(0, &mut self.positions, &mut self.blocks[0])
    }

    /// Moves a single agent to an explicit vertex (used by tweaked processes
    /// that teleport or add agents for analysis purposes). Rebuilds occupancy
    /// eagerly — O(|A|); batch moves through [`MultiWalk::teleport_many`].
    ///
    /// # Panics
    ///
    /// Panics if `agent` or `to` is out of range.
    pub fn teleport(&mut self, agent: AgentId, to: VertexId) {
        assert!(to < self.occ_count.len(), "teleport target out of range");
        if self.positions[agent] as usize == to {
            return;
        }
        self.positions[agent] = to as u32;
        self.rebuild_occupancy();
    }

    /// Applies a batch of explicit agent moves (the agent-churn protocols
    /// replace many agents per round). Later entries for the same agent win.
    ///
    /// The occupancy rebuild is *deferred*: the counting-sort views go stale
    /// (see [`MultiWalk::refresh_occupancy`]) rather than being rebuilt
    /// eagerly, because the churn hot path immediately takes an exchange
    /// step that would discard the rebuild anyway.
    ///
    /// # Panics
    ///
    /// Panics if any agent or target vertex is out of range.
    pub fn teleport_many(&mut self, moves: &[(AgentId, VertexId)]) {
        if moves.is_empty() {
            return;
        }
        for &(agent, to) in moves {
            assert!(to < self.occ_count.len(), "teleport target out of range");
            self.positions[agent] = to as u32;
        }
        // Keep the documented "informed marks are false outside an exchange
        // round" contract: positions changed, so the marks are meaningless.
        self.clear_informed_marks();
        self.occupancy_fresh = false;
    }

    /// Iterates over `(vertex, agents_here)` pairs for vertices with at least
    /// one agent, in O(occupied vertices) — empty vertices are never visited.
    ///
    /// The iteration order is unspecified (it follows the internal touched
    /// list, not ascending vertex ids).
    pub fn occupied_vertices(&self) -> impl Iterator<Item = (VertexId, &[u32])> {
        self.touched
            .iter()
            .map(|&v| (v as VertexId, self.agents_at(v as VertexId)))
    }

    /// Registers an arrival at `v` in the counting pass.
    #[inline]
    fn count_arrival(&mut self, v: usize) {
        let c = self.occ_count[v];
        if c == 0 {
            self.touched.push(v as u32);
        }
        self.occ_count[v] = c + 1;
    }

    /// Clears exactly the per-vertex counters that are currently populated.
    fn clear_occupancy(&mut self) {
        for &v in &self.touched {
            self.occ_count[v as usize] = 0;
        }
        self.touched.clear();
    }

    /// Clears the informed-here bitset (one vectorized memset of n/8 bytes).
    fn clear_informed_marks(&mut self) {
        self.informed_here.fill(0);
    }

    /// Offsets + scatter passes: assign each touched vertex a block in
    /// `occ_agents` and place agent ids (ascending agent order within a
    /// block, because the scatter walks agents in order).
    fn finish_occupancy(&mut self) {
        let mut cum = 0u32;
        for &v in &self.touched {
            self.occ_cursor[v as usize] = cum;
            cum += self.occ_count[v as usize];
        }
        for (agent, &p) in self.positions.iter().enumerate() {
            let cursor = &mut self.occ_cursor[p as usize];
            self.occ_agents[*cursor as usize] = agent as u32;
            *cursor += 1;
        }
    }

    /// Full occupancy rebuild from `positions` (constructor, teleports, and
    /// [`MultiWalk::refresh_occupancy`]).
    fn rebuild_occupancy(&mut self) {
        self.clear_occupancy();
        self.clear_informed_marks();
        for i in 0..self.positions.len() {
            let v = self.positions[i] as usize;
            self.count_arrival(v);
        }
        self.finish_occupancy();
        self.occupancy_fresh = true;
    }
}

/// Agents between the prefetch of an agent's sampler entry and its draw in
/// the block shape.
const PREFETCH_AHEAD: usize = 16;

/// Where a movement pass draws its randomness. A pass asks for one agent at
/// a time, in ascending agent order from a 64-aligned first agent.
trait DrawSource {
    /// Draws the next position of `agent`, now at `at`: a laziness draw when
    /// `laziness > 0`, then, unless the agent stays, a neighbor draw —
    /// through [`Topology::draw_deferred`] when `DEFER`, resolved on the
    /// spot otherwise. An isolated agent stays put.
    fn draw<G: Topology, const DEFER: bool>(
        &mut self,
        graph: &G,
        laziness: f64,
        agent: usize,
        at: usize,
    ) -> DeferredNeighbor;
}

/// The sequential engine's source: one shared generator, so the ascending
/// agent order of the pass is the order of the draws.
struct Sequential<'a, R: ?Sized>(&'a mut R);

impl<R: Rng + ?Sized> DrawSource for Sequential<'_, R> {
    #[inline(always)]
    fn draw<G: Topology, const DEFER: bool>(
        &mut self,
        graph: &G,
        laziness: f64,
        _agent: usize,
        at: usize,
    ) -> DeferredNeighbor {
        walk_draw::<G, R, DEFER>(graph, self.0, laziness, at)
    }
}

/// The sharded engine's source: a round's counter streams, keyed by agent
/// id, so a draw does not depend on which shard computes it. The scheme is
/// fixed by the walk configuration, so it is part of the deterministic
/// contract:
///
/// * **Simple walks** (one neighbor draw per agent per round): agents `2p`
///   and `2p + 1` read lanes 0 and 1 of pair stream `p`
///   ([`RoundKey::lane_streams`]), so one Philox block serves two agents —
///   per-entity streams would discard half of every block. Rejection
///   continuations (probability ≈ deg/2⁶⁴) compute per-lane follow-up
///   blocks.
/// * **Lazy walks** (laziness draw + neighbor draw): each agent uses its own
///   per-entity stream — here both words of the agent's first block are
///   consumed, so there is nothing for a pair to share.
struct Counter<'a> {
    key: &'a RoundKey,
    /// The first block of the current pair stream, computed at its even
    /// agent (shards start 64-aligned, so a pair is never split).
    pair_block: [u64; 2],
}

impl<'a> Counter<'a> {
    fn new(key: &'a RoundKey) -> Self {
        Counter {
            key,
            pair_block: [0; 2],
        }
    }
}

impl DrawSource for Counter<'_> {
    #[inline(always)]
    fn draw<G: Topology, const DEFER: bool>(
        &mut self,
        graph: &G,
        laziness: f64,
        agent: usize,
        at: usize,
    ) -> DeferredNeighbor {
        if laziness == 0.0 {
            // Literal lane indices: a computed lane would index the shared
            // block dynamically and keep the stream state on the stack.
            let pair = (agent / 2) as u64;
            let mut rng = if agent.is_multiple_of(2) {
                self.pair_block = self.key.first_block(pair);
                self.key.lane_stream(pair, 0, self.pair_block)
            } else {
                self.key.lane_stream(pair, 1, self.pair_block)
            };
            walk_draw::<G, _, DEFER>(graph, &mut rng, 0.0, at)
        } else {
            let entity = agent as u64;
            let mut rng = self.key.stream_primed(entity, self.key.first_block(entity));
            walk_draw::<G, _, DEFER>(graph, &mut rng, laziness, at)
        }
    }
}

/// [`DrawSource::draw`] from one generator.
#[inline(always)]
fn walk_draw<G: Topology, R: Rng + ?Sized, const DEFER: bool>(
    graph: &G,
    rng: &mut R,
    laziness: f64,
    at: usize,
) -> DeferredNeighbor {
    if laziness > 0.0 && rng.gen_bool(laziness) {
        DeferredNeighbor::vertex(at)
    } else if DEFER {
        graph.draw_deferred(at, rng)
    } else {
        DeferredNeighbor::vertex(graph.random_neighbor(at, rng).unwrap_or(at))
    }
}

/// The movement pass shared by every step method and every shard: moves
/// agents one (possibly lazy) step in place with draws from `source`, and
/// an agent whose bit is set in `informed_words` marks its arrival vertex
/// in `marks` (an empty `informed_words` marks nothing).
struct Pass<'a, G, S> {
    graph: &'a G,
    source: S,
    laziness: f64,
    informed_words: &'a [u64],
    marks: &'a mut [u64],
}

impl<G: Topology, S: DrawSource> Pass<'_, G, S> {
    /// Moves `positions`, the agents from `base` (64-aligned) on, and
    /// returns the number that traversed an edge. [`Topology::defers_reads`]
    /// picks the shape; `draws` holds the block shape's tokens.
    #[inline(always)]
    fn run(mut self, base: usize, positions: &mut [u32], draws: &mut DrawBlock) -> u64 {
        debug_assert_eq!(base % 64, 0, "a pass starts on an informed word");
        if self.graph.defers_reads() {
            self.shape::<true>(base, positions, draws)
        } else {
            self.shape::<false>(base, positions, draws)
        }
    }

    /// One shape of the pass, in 64-agent blocks. Not inlined, so that each
    /// shape gets its own register allocation: inlined together into the
    /// step, the immediate shape ran a few percent slower than on its own.
    #[inline(never)]
    fn shape<const DEFER: bool>(
        &mut self,
        base: usize,
        positions: &mut [u32],
        draws: &mut DrawBlock,
    ) -> u64 {
        let mut moves = 0;
        for start in (0..positions.len()).step_by(64) {
            // Specialize the two homogeneous block shapes: early in a
            // broadcast almost every block is all-uninformed (no mark
            // stores), late almost every block is all-informed
            // (unconditional marks). Mixed blocks mark branchlessly, ORing
            // zero for uninformed agents.
            let word = self
                .informed_words
                .get((base + start) >> 6)
                .copied()
                .unwrap_or(0);
            let args = (base, start, word);
            moves += match word {
                0 => self.block::<DEFER, 0>(args, positions, draws),
                u64::MAX => self.block::<DEFER, 1>(args, positions, draws),
                _ => self.block::<DEFER, 2>(args, positions, draws),
            };
        }
        moves
    }

    /// Moves the agents `start..start + 64` of `positions` (fewer at the
    /// end), whose informed word is `word`, in the shape `DEFER` names.
    /// `MARKS`: 0 = no agent in the block is informed, 1 = all are, 2 =
    /// mixed.
    #[inline(always)]
    fn block<const DEFER: bool, const MARKS: u8>(
        &mut self,
        (base, start, word): (usize, usize, u64),
        positions: &mut [u32],
        draws: &mut DrawBlock,
    ) -> u64 {
        let agents = start..positions.len().min(start + 64);
        if DEFER {
            self.block_shape::<MARKS>(base, agents, word, positions, draws)
        } else {
            self.immediate_shape::<MARKS>(base, agents, word, positions)
        }
    }

    /// The immediate shape: draws, stores and marks each agent in turn.
    #[inline(always)]
    fn immediate_shape<const MARKS: u8>(
        &mut self,
        base: usize,
        agents: Range<usize>,
        word: u64,
        positions: &mut [u32],
    ) -> u64 {
        let first = base + agents.start;
        let mut moves = 0;
        for (j, q) in positions[agents].iter_mut().enumerate() {
            let drawn =
                self.source
                    .draw::<G, false>(self.graph, self.laziness, first + j, *q as usize);
            let next = self.graph.resolve_deferred(drawn);
            moves += land::<MARKS>(q, next, (word >> j) & 1, self.marks);
        }
        moves
    }

    /// The block shape: draws every agent's token, prefetching sampler
    /// entries ahead, resolves them with one [`Topology::resolve_block`]
    /// call, then stores and marks.
    #[inline(always)]
    fn block_shape<const MARKS: u8>(
        &mut self,
        base: usize,
        agents: Range<usize>,
        word: u64,
        positions: &mut [u32],
        draws: &mut DrawBlock,
    ) -> u64 {
        draws.clear();
        for j in agents.clone() {
            if let Some(&ahead) = positions.get(j + PREFETCH_AHEAD) {
                self.graph.prefetch_sampler(ahead as usize);
            }
            let at = positions[j] as usize;
            draws.push(
                self.source
                    .draw::<G, true>(self.graph, self.laziness, base + j, at),
            );
        }
        self.graph.resolve_block(draws);
        let block = positions[agents].iter_mut().zip(draws.resolved());
        block
            .enumerate()
            .map(|(j, (q, &next))| land::<MARKS>(q, next as usize, (word >> j) & 1, self.marks))
            .sum()
    }
}

/// Stores an agent's next position `next` in `q` and returns 1 if the agent
/// moved. An informed agent marks `next` in `marks`: unconditionally for
/// `MARKS == 1`, from its informed `bit` for `MARKS == 2`, never for
/// `MARKS == 0`.
#[inline(always)]
fn land<const MARKS: u8>(q: &mut u32, next: usize, bit: u64, marks: &mut [u64]) -> u64 {
    let moved = u64::from(next != *q as usize);
    *q = next as u32;
    match MARKS {
        0 => {}
        1 => marks[next >> 6] |= 1u64 << (next & 63),
        _ => marks[next >> 6] |= bit << (next & 63),
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use rumor_graphs::generators::{complete, cycle, path, star};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn construction_and_occupancy() {
        let g = complete(8).unwrap();
        let w = MultiWalk::from_positions(&g, vec![0, 0, 3, 7], WalkConfig::simple());
        assert_eq!(w.num_agents(), 4);
        assert_eq!(w.occupancy(0), 2);
        assert_eq!(w.occupancy(3), 1);
        assert_eq!(w.occupancy(1), 0);
        assert_eq!(w.agents_at(0), &[0, 1]);
        assert_eq!(w.position(2), 3);
        assert_eq!(w.round(), 0);
        let total: usize = w.occupancy_counts().iter().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn step_conserves_agents_and_counts_rounds() {
        let g = cycle(10).unwrap();
        let mut r = rng(3);
        let mut w = MultiWalk::new(&g, 20, &Placement::Stationary, WalkConfig::simple(), &mut r);
        for round in 1..=50u64 {
            w.step(&g, &mut r);
            assert_eq!(w.round(), round);
            assert_eq!(w.occupancy_counts().iter().sum::<usize>(), 20);
            assert_eq!(w.positions().len(), 20);
        }
    }

    #[test]
    fn simple_walk_always_moves_on_cycle() {
        let g = cycle(6).unwrap();
        let mut r = rng(5);
        let mut w = MultiWalk::from_positions(&g, vec![0, 2, 4], WalkConfig::simple());
        for _ in 0..20 {
            let before: Vec<_> = w.positions().to_vec();
            w.step(&g, &mut r);
            for (agent, &prev) in before.iter().enumerate() {
                let prev = prev as VertexId;
                assert_ne!(w.position(agent), prev, "simple walk must move every round");
                assert!(g.has_edge(prev, w.position(agent)));
                assert_eq!(w.previous_position(agent), prev);
            }
        }
    }

    #[test]
    fn lazy_walk_sometimes_stays() {
        let g = cycle(6).unwrap();
        let mut r = rng(7);
        let mut w = MultiWalk::from_positions(&g, vec![0; 200], WalkConfig::lazy());
        w.step(&g, &mut r);
        let stayed = (0..200).filter(|&a| w.position(a) == 0).count();
        // With laziness 1/2, about half should stay.
        assert!(stayed > 60 && stayed < 140, "stayed = {stayed}");
    }

    #[test]
    fn walk_on_star_alternates_between_center_and_leaves() {
        let g = star(5).unwrap();
        let mut r = rng(11);
        let mut w = MultiWalk::from_positions(&g, vec![0], WalkConfig::simple());
        // Start at center: odd rounds at a leaf, even rounds at the center.
        for round in 1..=10 {
            w.step(&g, &mut r);
            if round % 2 == 1 {
                assert_ne!(w.position(0), 0);
            } else {
                assert_eq!(w.position(0), 0);
            }
        }
    }

    #[test]
    fn isolated_vertex_agent_never_moves() {
        let g = rumor_graphs::Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut r = rng(0);
        let mut w = MultiWalk::from_positions(&g, vec![2], WalkConfig::simple());
        for _ in 0..5 {
            w.step(&g, &mut r);
            assert_eq!(w.position(0), 2);
        }
    }

    #[test]
    fn neighborhood_occupancy_counts_neighbors_only() {
        let g = path(4).unwrap(); // 0-1-2-3
        let w = MultiWalk::from_positions(&g, vec![0, 1, 1, 3], WalkConfig::simple());
        // Neighbors of 2 are 1 and 3: agents 1, 2 (at vertex 1) and 3 (at vertex 3).
        assert_eq!(w.neighborhood_occupancy(&g, 2), 3);
        // Neighbors of 0 are {1}: two agents there.
        assert_eq!(w.neighborhood_occupancy(&g, 0), 2);
    }

    #[test]
    fn teleport_moves_agent_and_updates_occupancy() {
        let g = complete(5).unwrap();
        let mut w = MultiWalk::from_positions(&g, vec![0, 1], WalkConfig::simple());
        w.teleport(0, 4);
        assert_eq!(w.position(0), 4);
        assert_eq!(w.occupancy(0), 0);
        assert_eq!(w.occupancy(4), 1);
        // Teleporting to the same vertex is a no-op.
        w.teleport(0, 4);
        assert_eq!(w.occupancy(4), 1);
    }

    #[test]
    fn teleport_many_applies_batch_with_deferred_rebuild() {
        let g = complete(6).unwrap();
        let mut w = MultiWalk::from_positions(&g, vec![0, 1, 2], WalkConfig::simple());
        w.teleport_many(&[(0, 5), (2, 5), (1, 3)]);
        assert_eq!(w.position(0), 5);
        assert_eq!(w.position(1), 3);
        assert_eq!(w.position(2), 5);
        // The rebuild is deferred; the detailed views come back on refresh.
        w.refresh_occupancy();
        assert_eq!(w.agents_at(5), &[0, 2]);
        assert_eq!(w.occupancy(0), 0);
        assert_eq!(w.occupancy_counts().iter().sum::<usize>(), 3);
        // Later entries for the same agent win.
        w.teleport_many(&[(1, 0), (1, 4)]);
        assert_eq!(w.position(1), 4);
        // Empty batch is a no-op (and leaves fresh views fresh).
        w.refresh_occupancy();
        w.teleport_many(&[]);
        assert_eq!(w.occupancy(4), 1);
    }

    #[test]
    fn occupied_vertices_lists_only_nonempty() {
        let g = complete(6).unwrap();
        let w = MultiWalk::from_positions(&g, vec![2, 2, 5], WalkConfig::simple());
        let occ: Vec<_> = w.occupied_vertices().map(|(v, a)| (v, a.len())).collect();
        assert_eq!(occ, vec![(2, 2), (5, 1)]);
    }

    #[test]
    fn occupancy_blocks_match_positions_after_many_steps() {
        let g = star(9).unwrap();
        let mut r = rng(13);
        let mut w = MultiWalk::new(&g, 25, &Placement::Stationary, WalkConfig::lazy(), &mut r);
        for _ in 0..30 {
            w.step(&g, &mut r);
            for v in g.vertices() {
                let block = w.agents_at(v);
                assert_eq!(block.len(), w.occupancy(v));
                // Blocks are ascending agent ids, consistent with positions.
                assert!(block.windows(2).all(|p| p[0] < p[1]));
                for &a in block {
                    assert_eq!(w.position(a as usize), v);
                }
            }
            let listed: usize = w.occupied_vertices().map(|(_, a)| a.len()).sum();
            assert_eq!(listed, w.num_agents());
        }
    }

    #[test]
    fn step_exchange_marks_informed_arrivals() {
        let g = complete(4).unwrap();
        let mut r = rng(17);
        let mut w = MultiWalk::from_positions(&g, vec![0, 1, 2, 3], WalkConfig::simple());
        let mut frontier = UninformedFrontier::new(4);
        frontier.mark_informed(1);
        frontier.mark_informed(3);
        for _ in 0..10 {
            w.step_exchange(&g, &mut r, &frontier, false);
            for v in g.vertices() {
                let expected = (0..4).any(|a| frontier.is_informed(a) && w.position(a) == v);
                assert_eq!(w.informed_here(v), expected, "vertex {v}");
            }
        }
        // The detailed occupancy views are refreshable afterwards…
        w.refresh_occupancy();
        assert_eq!(w.occupancy_counts().iter().sum::<usize>(), 4);
        let listed: usize = w.occupied_vertices().map(|(_, a)| a.len()).sum();
        assert_eq!(listed, 4);
        // …and a plain step clears the informed marks.
        w.step(&g, &mut r);
        assert!(g.vertices().all(|v| !w.informed_here(v)));
        assert_eq!(w.occupancy_counts().iter().sum::<usize>(), 4);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn occupancy_views_panic_while_stale() {
        let g = complete(4).unwrap();
        let mut r = rng(19);
        let mut w = MultiWalk::from_positions(&g, vec![0, 1], WalkConfig::simple());
        let frontier = UninformedFrontier::new(2);
        w.step_exchange(&g, &mut r, &frontier, false);
        let _ = w.occupancy(0); // must panic, not answer from stale data
    }

    #[test]
    fn step_exchange_consumes_rng_like_plain_step() {
        let g = star(12).unwrap();
        let positions: Vec<VertexId> = vec![0, 3, 5, 7, 9, 11];
        let mut a = MultiWalk::from_positions(&g, positions.clone(), WalkConfig::lazy());
        let mut b = MultiWalk::from_positions(&g, positions, WalkConfig::lazy());
        let mut rng_a = rng(23);
        let mut rng_b = rng(23);
        let mut frontier = UninformedFrontier::new(6);
        frontier.mark_informed(0);
        for _ in 0..40 {
            let moves_a = a.step(&g, &mut rng_a);
            let moves_b = b.step_exchange(&g, &mut rng_b, &frontier, true);
            assert_eq!(moves_a, moves_b);
            assert_eq!(a.positions(), b.positions());
        }
    }

    #[test]
    fn par_step_exchange_is_thread_count_invariant() {
        for config in [WalkConfig::simple(), WalkConfig::lazy()] {
            let g = star(9).unwrap();
            let mut r = rng(29);
            let reference = MultiWalk::new(&g, 200, &Placement::Stationary, config, &mut r);
            let key = StreamKey::from_seed(5);
            let mut frontier = UninformedFrontier::new(200);
            for agent in (0..200).step_by(3) {
                frontier.mark_informed(agent);
            }
            let mut runs: Vec<(MultiWalk, Vec<u64>)> = [1usize, 2, 3, 8]
                .into_iter()
                .map(|threads| {
                    let mut w = reference.clone();
                    let moves = (0..25)
                        .map(|_| {
                            w.par_step_exchange(&g, &key, frontier.informed_words(), false, threads)
                        })
                        .collect();
                    (w, moves)
                })
                .collect();
            let (one_thread, moves_one) = runs.remove(0);
            for (w, moves) in runs {
                assert_eq!(moves, moves_one, "move counts differ across thread counts");
                assert_eq!(w.positions(), one_thread.positions());
                for v in g.vertices() {
                    assert_eq!(w.informed_here(v), one_thread.informed_here(v));
                }
            }
        }
    }

    #[test]
    fn par_step_exchange_marks_match_positions() {
        let g = cycle(12).unwrap();
        let mut w = MultiWalk::from_positions(&g, (0..12).collect(), WalkConfig::simple());
        let key = StreamKey::from_seed(1);
        let mut frontier = UninformedFrontier::new(12);
        frontier.mark_informed(2);
        frontier.mark_informed(9);
        for _ in 0..15 {
            w.par_step_exchange(&g, &key, frontier.informed_words(), false, 3);
            for v in g.vertices() {
                let expected = (0..12).any(|a| frontier.is_informed(a) && w.position(a) == v);
                assert_eq!(w.informed_here(v), expected, "vertex {v}");
            }
        }
        // Occupancy views are stale but refreshable, exactly like
        // step_exchange.
        w.refresh_occupancy();
        assert_eq!(w.occupancy_counts().iter().sum::<usize>(), 12);
    }

    #[test]
    fn par_step_exchange_tracks_previous_when_asked() {
        let g = complete(6).unwrap();
        let mut w = MultiWalk::from_positions(&g, vec![0, 1, 2, 3], WalkConfig::simple());
        let key = StreamKey::from_seed(3);
        let frontier = UninformedFrontier::new(4);
        let before: Vec<u32> = w.positions().to_vec();
        let moves = w.par_step_exchange(&g, &key, frontier.informed_words(), true, 2);
        for (agent, &prev) in before.iter().enumerate() {
            assert_eq!(w.previous_position(agent), prev as usize);
        }
        // On a complete graph every agent moves every round.
        assert_eq!(moves, 4);
        assert_eq!(w.round(), 1);
    }

    #[test]
    fn par_step_exchange_handles_zero_agents() {
        let g = complete(4).unwrap();
        let mut w = MultiWalk::from_positions(&g, vec![], WalkConfig::simple());
        let key = StreamKey::from_seed(0);
        let moves = w.par_step_exchange(&g, &key, &[], false, 4);
        assert_eq!(moves, 0);
        assert_eq!(w.round(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn par_step_exchange_rejects_zero_threads() {
        let g = complete(4).unwrap();
        let mut w = MultiWalk::from_positions(&g, vec![0], WalkConfig::simple());
        let key = StreamKey::from_seed(0);
        let frontier = UninformedFrontier::new(1);
        w.par_step_exchange(&g, &key, frontier.informed_words(), false, 0);
    }

    #[test]
    fn reset_is_bit_identical_to_fresh_construction() {
        let g = star(17).unwrap();
        let mut recycled = MultiWalk::new(
            &g,
            40,
            &Placement::Stationary,
            WalkConfig::simple(),
            &mut rng(1),
        );
        // Dirty the state thoroughly: exchange steps (stale occupancy) and a
        // teleport batch.
        let mut r = rng(2);
        let frontier = UninformedFrontier::new(40);
        for _ in 0..7 {
            recycled.step_exchange(&g, &mut r, &frontier, false);
        }
        recycled.teleport_many(&[(0, 3), (5, 3)]);
        // Reset with the same draws a fresh construction would make.
        recycled.reset(&g, 40, &Placement::Stationary, &mut rng(9));
        let fresh = MultiWalk::new(
            &g,
            40,
            &Placement::Stationary,
            WalkConfig::simple(),
            &mut rng(9),
        );
        assert_eq!(recycled.positions(), fresh.positions());
        assert_eq!(recycled.round(), 0);
        for v in g.vertices() {
            assert_eq!(recycled.occupancy(v), fresh.occupancy(v));
            assert_eq!(recycled.agents_at(v), fresh.agents_at(v));
            assert!(!recycled.informed_here(v));
        }
        // Subsequent trajectories coincide too.
        let mut ra = rng(5);
        let mut rb = rng(5);
        let mut fresh = fresh;
        for _ in 0..10 {
            recycled.step(&g, &mut ra);
            fresh.step(&g, &mut rb);
            assert_eq!(recycled.positions(), fresh.positions());
        }
    }

    /// A graph past the CSR backend's deferral threshold that mixes every
    /// list shape the block shape sees: a 100-clique (interval lists with a hole),
    /// a 999-leaf star (interval lists), random edges (CSR lists) up to
    /// 141,000 edges in all, and ten isolated vertices at the top.
    fn mixed_deferring_graph() -> rumor_graphs::Graph {
        let n = 40_000;
        let mut b = rumor_graphs::GraphBuilder::new(n);
        b.add_clique(&(0..100).collect::<Vec<_>>()).unwrap();
        for leaf in 101..1_100 {
            b.add_edge(100, leaf).unwrap();
        }
        let mut r = rng(41);
        let mut random_edges = std::collections::HashSet::new();
        while b.num_edges() < 141_000 {
            let u = r.gen_range(1_100..n - 10);
            let v = r.gen_range(1_100..n - 10);
            if u != v && random_edges.insert((u.min(v), u.max(v))) {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        assert!(
            g.defers_reads(),
            "the test graph must exercise deferred reads"
        );
        g
    }

    /// One step of the naive per-agent loop both shapes of the movement pass
    /// must match:
    /// returns the move count and the informed-here marks.
    fn naive_step<G: Topology>(
        graph: &G,
        positions: &mut [u32],
        laziness: f64,
        informed: &UninformedFrontier,
        rng: &mut StdRng,
    ) -> (u64, Vec<bool>) {
        let mut moves = 0;
        let mut marks = vec![false; graph.num_vertices()];
        for (agent, q) in positions.iter_mut().enumerate() {
            let at = *q as usize;
            let stay = laziness > 0.0 && rng.gen_bool(laziness);
            let next = if stay {
                at
            } else {
                graph.random_neighbor(at, rng).unwrap_or(at)
            };
            moves += u64::from(next != at);
            *q = next as u32;
            marks[next] |= informed.is_informed(agent);
        }
        (moves, marks)
    }

    /// Compares `step_exchange` (and `step`) with [`naive_step`] over a few
    /// rounds: positions, marks, move counts, previous positions, occupancy
    /// and the RNG state after each step.
    fn check_against_naive<G: Topology>(graph: &G, agents: usize, config: WalkConfig) {
        let n = graph.num_vertices();
        // Spread agents over every list shape; every fifth sits on the top
        // vertex, isolated in the CSR graphs.
        let start: Vec<VertexId> = (0..agents)
            .map(|a| {
                if a % 5 == 4 {
                    n - 1
                } else {
                    (a * 7_919 + a / 3) % n
                }
            })
            .collect();
        // All-uninformed, all-informed and mixed 64-agent blocks.
        let mut informed = UninformedFrontier::new(agents);
        for a in 0..agents {
            let mixed = (a / 64) % 3 == 2 && a % 3 == 0;
            if (a / 64) % 3 == 1 || mixed {
                informed.mark_informed(a);
            }
        }
        let context = format!("{agents} agents, laziness {}", config.laziness());
        let mut walk = MultiWalk::from_positions(graph, start.clone(), config);
        let mut plain = MultiWalk::from_positions(graph, start.clone(), config);
        let mut naive: Vec<u32> = start.iter().map(|&v| v as u32).collect();
        let (mut r_walk, mut r_plain, mut r_naive) = (rng(43), rng(43), rng(43));
        for round in 0..3 {
            let before = naive.clone();
            let (moves, marks) = naive_step(
                graph,
                &mut naive,
                config.laziness(),
                &informed,
                &mut r_naive,
            );
            let track = round != 1;
            assert_eq!(
                walk.step_exchange(graph, &mut r_walk, &informed, track),
                moves,
                "{context}"
            );
            assert_eq!(walk.positions(), &naive[..], "{context}");
            for (v, &mark) in marks.iter().enumerate() {
                assert_eq!(walk.informed_here(v), mark, "{context}: vertex {v}");
            }
            if track {
                for (agent, &prev) in before.iter().enumerate() {
                    assert_eq!(walk.previous_position(agent), prev as usize, "{context}");
                }
            }
            assert_eq!(plain.step(graph, &mut r_plain), moves, "{context}");
            assert_eq!(plain.positions(), &naive[..], "{context}");
            let mut here = vec![Vec::new(); n];
            for (agent, &v) in naive.iter().enumerate() {
                here[v as usize].push(agent as u32);
            }
            for (v, here) in here.iter().enumerate() {
                assert_eq!(plain.agents_at(v), &here[..], "{context}: vertex {v}");
            }
            // The same draws were consumed: the streams continue in step.
            let next = r_naive.next_u64();
            assert_eq!(r_walk.next_u64(), next, "{context}");
            assert_eq!(r_plain.next_u64(), next, "{context}");
        }
    }

    /// Agent counts around the 64-agent block edges, plus a few more.
    const AGENT_COUNTS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 1_000];

    #[test]
    fn block_shape_matches_a_naive_per_agent_loop() {
        // The three backends that defer reads: a large CSR graph (slot
        // tokens, resolved one by one), and a Chung-Lu graph generated and
        // behind a partial hub cache (index tokens, resolved by the block
        // kernel).
        let csr = mixed_deferring_graph();
        let generated = rumor_graphs::GeneratedGraph::chung_lu(5_000, 2.5, 4.0, 7).unwrap();
        let cached = rumor_graphs::HubCachedGraph::with_hub_count(generated.clone(), 50);
        assert!(generated.defers_reads() && cached.defers_reads());
        for agents in AGENT_COUNTS {
            for config in [WalkConfig::simple(), WalkConfig::lazy()] {
                check_against_naive(&csr, agents, config);
                check_against_naive(&generated, agents, config);
                check_against_naive(&cached, agents, config);
            }
        }
    }

    #[test]
    fn immediate_shape_matches_a_naive_per_agent_loop() {
        // Small graphs resolve every draw on the spot; same contract.
        let g =
            rumor_graphs::Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (4, 2)]).unwrap();
        assert!(!g.defers_reads());
        for agents in AGENT_COUNTS {
            for config in [WalkConfig::simple(), WalkConfig::lazy()] {
                check_against_naive(&g, agents, config);
            }
        }
    }

    #[test]
    fn stationary_distribution_is_preserved_in_aggregate() {
        // On a star, the stationary measure puts 1/2 on the center. Start from
        // stationarity, run many rounds and check the empirical occupancy of the
        // center over time stays near 1/2 of all agents (the walk is already mixed,
        // up to parity effects, so average over a window of two rounds).
        let g = star(20).unwrap();
        let mut r = rng(23);
        let agents = 2000;
        let mut w = MultiWalk::new(
            &g,
            agents,
            &Placement::Stationary,
            WalkConfig::lazy(),
            &mut r,
        );
        let mut center_sum = 0usize;
        let rounds = 200;
        for _ in 0..rounds {
            w.step(&g, &mut r);
            center_sum += w.occupancy(0);
        }
        let avg_fraction = center_sum as f64 / (rounds * agents) as f64;
        assert!(
            (avg_fraction - 0.5).abs() < 0.05,
            "center fraction {avg_fraction}"
        );
    }
}
