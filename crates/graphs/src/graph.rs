//! The immutable CSR (compressed sparse row) graph type used by all protocols.
//!
//! The rumor-spreading and agent-walk simulations in this workspace spend
//! almost all of their time sampling random neighbors of vertices, so the
//! graph representation is optimized for exactly that: adjacency lists stored
//! contiguously in one `Vec<u32>` with an offset table, giving `O(1)` access
//! to `deg(u)` and to the `i`-th neighbor of `u`.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{GraphError, Result};
use crate::topology::{Deferred, DeferredNeighbor};

/// Vertex identifier. Vertices of an `n`-vertex graph are `0..n`.
pub type VertexId = usize;

/// An immutable, simple, undirected graph in CSR form.
///
/// Construct a [`Graph`] through [`GraphBuilder`](crate::GraphBuilder), one of
/// the generators in [`generators`](crate::generators), or
/// [`Graph::from_edges`].
///
/// # Examples
///
/// ```
/// use rumor_graphs::Graph;
///
/// // A triangle.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(0), 2);
/// assert!(g.is_regular());
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` indexes `adjacency` for vertex `u`.
    /// Stored as `u32`: [`Graph::from_csr`] asserts
    /// `adjacency.len() <= u32::MAX`, so every offset fits, halving the
    /// per-vertex CSR metadata relative to `Vec<usize>`.
    offsets: Vec<u32>,
    /// Concatenated adjacency lists, neighbors of each vertex sorted ascending.
    adjacency: Vec<u32>,
    /// Per-vertex neighbor sampler (see [`NeighborSampler`]): adjacency
    /// start and a degree-specialized sampling word packed into one 12-byte
    /// entry, so a random-neighbor draw touches a single slot of vertex
    /// metadata plus (for CSR-shaped lists only) the adjacency slot it
    /// selects.
    sampler: Vec<NeighborSampler>,
    /// Number of undirected edges.
    num_edges: usize,
    /// `Some(d)` iff every vertex has degree `d`, cached at construction so
    /// the bulk stationary sampler's regular fast path is an O(1) read (it
    /// sits on the per-trial agent-placement reset path).
    regular: Option<usize>,
    /// Whether walkers should defer neighbor reads (see
    /// [`Topology::defers_reads`](crate::Topology::defers_reads)): the
    /// CSR-tagged lists, the only ones a draw reads, hold at least
    /// `DEFER_MIN_SLOTS` entries. Cached at construction.
    defers_reads: bool,
}

/// Per-vertex neighbor-sampling metadata, array-of-structs so the hot
/// sampling path performs one 12-byte load instead of three scattered reads
/// (`offsets[u]`, `offsets[u + 1]`, and a separate sampler table) — and, for
/// interval-shaped neighbor lists, **no adjacency read at all**.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct NeighborSampler {
    /// The degree-specialized sampling word (see [`sampler_entry`]).
    word: u32,
    /// Start of the vertex's adjacency block (`== offsets[u]`, fits in `u32`
    /// because adjacency entries are `u32` vertex ids) — or, for
    /// interval-tagged words, the smallest neighbor id of the interval.
    start: u32,
    /// For outlier-tagged words, the single neighbor outside the interval.
    outlier: u32,
}

/// Tag bit marking the neighbor list as a contiguous id interval (possibly
/// with a hole at the vertex itself), sampled arithmetically with **no
/// adjacency read**.
const INTERVAL_TAG: u32 = 1 << 30;
/// Tag bit (implies `INTERVAL_TAG`) marking an interval list with one
/// neighbor outside the interval, stored in `NeighborSampler::outlier`.
const OUTLIER_TAG: u32 = 1 << 29;
/// Low bits of the sampler word (the degree).
const WORD_PAYLOAD: u32 = OUTLIER_TAG - 1;

/// Entries of CSR-tagged lists (4 bytes each, so 1 MiB) from which the CSR
/// backend asks walkers to defer the reads of drawn neighbors.
const DEFER_MIN_SLOTS: usize = 1 << 18;

/// Largest degree the sampler word encodes. The CSR build asserts this in
/// [`sampler_entry`]; the implicit constructors enforce it up front (their
/// families can otherwise reach arbitrary degrees), so no backend ever
/// builds a word whose payload collides with the tag bits.
pub(crate) const MAX_SAMPLER_DEGREE: usize = (WORD_PAYLOAD - 1) as usize;

/// The index-draw word for a positive degree `d`: `d` itself, driving
/// Lemire's widening multiply. This is exactly the index portion of a CSR
/// [`sampler_entry`] word, shared with the implicit and generated backends
/// so every backend consumes the RNG stream identically for equal degrees.
#[inline]
pub(crate) fn index_word(d: usize) -> u32 {
    debug_assert!(d > 0 && d < WORD_PAYLOAD as usize);
    d as u32
}

/// Samples a uniform index in `0..deg` from an index-draw word (see
/// [`index_word`]). Consumes the RNG stream exactly like
/// `rng.gen_range(0..deg)` (one `next_u64` per Lemire attempt) and produces
/// the identical value — the equivalence tests pin this. Shared by the CSR
/// sampler and the implicit backend.
///
/// Requires a non-sentinel word (`deg > 0`).
#[inline(always)]
pub(crate) fn sample_index<R: Rng + ?Sized>(word: u32, rng: &mut R) -> u64 {
    // Lemire widening multiply with bounded rejection; the threshold is only
    // computed in the (probability d/2^64) rejection branch, mirroring the
    // generic sampler exactly. A degree-1 draw is consumed and its index
    // forced to 0.
    let d = u64::from(word & WORD_PAYLOAD);
    let mut m = u128::from(rng.next_u64()) * u128::from(d);
    let lo = m as u64;
    if lo < d {
        let threshold = d.wrapping_neg() % d;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(d);
        }
    }
    (m >> 64) as u64
}

/// If the sorted, strictly ascending `list` is a contiguous id range — or a
/// contiguous range with a single hole exactly at `u` (a vertex is never its
/// own neighbor) — returns the range's first id.
fn contiguous_span(u: usize, list: &[u32]) -> Option<u32> {
    let d = list.len();
    if d == 0 {
        return None;
    }
    let first = list[0] as usize;
    let last = list[d - 1] as usize;
    if last - first == d - 1 {
        return Some(list[0]);
    }
    // Span exceeds the length by one ⇒ exactly one value is missing; it must
    // be `u` itself (checked via the span-sum identity).
    if last - first == d
        && first < u
        && u < last
        && (first + last) * (d + 1) / 2 - list.iter().map(|&v| v as usize).sum::<usize>() == u
    {
        return Some(list[0]);
    }
    None
}

/// Precomputes the sampler entry for vertex `u` with sorted neighbors `list`
/// whose adjacency block begins at `csr_start`.
///
/// The word packs two independent specializations:
///
/// * **Index draw** (the low bits): the degree `d` itself, driving Lemire's
///   widening multiply `(x * d) >> 64` with bounded rejection. The threshold
///   `2^64 mod d` is computed only inside the rejection branch, whose
///   probability is `d / 2^64` — i.e. essentially never — which keeps the
///   entry compact (precomputing the threshold measured slower: a fatter
///   table spills out of L2 to save a modulo that never runs). For a power
///   of two `d = 2^k` the threshold is 0 and the multiply is the shift
///   `x >> (64 - k)`, so one path serves every degree without a
///   power-of-two special case or a branch on it.
/// * **Interval elision** (bits 30/29): when the neighbor list is a
///   contiguous id range — optionally with a single hole at `u` itself, and
///   optionally with a single *outlier* neighbor outside the range — the
///   `i`-th sorted neighbor is computed arithmetically and sampling performs
///   **zero adjacency reads**. This is the shape of cliques, stars, cycles,
///   paths, complete graphs, and the clique/star blocks of the paper's
///   Fig. 1 families (a clique member's list is its clique's id range plus
///   one link vertex).
///
/// Degree `0` → word `0`, the one word no positive degree produces (its
/// degree bits are non-zero), so the samplers' isolation check is simply
/// `word == 0`.
fn sampler_entry(u: usize, list: &[u32], csr_start: u32) -> NeighborSampler {
    let d = list.len();
    if d == 0 {
        return NeighborSampler {
            word: 0,
            start: csr_start,
            outlier: 0,
        };
    }
    assert!(
        d < WORD_PAYLOAD as usize,
        "degree exceeds sampler word range"
    );
    let mut word = index_word(d);
    let mut start = csr_start;
    let mut outlier = 0;
    if let Some(base) = contiguous_span(u, list) {
        word |= INTERVAL_TAG;
        start = base;
    } else if d >= 2 {
        if let Some(base) = contiguous_span(u, &list[1..]) {
            // Low-side outlier: the smallest neighbor sits below the range.
            word |= INTERVAL_TAG | OUTLIER_TAG;
            start = base;
            outlier = list[0];
        } else if let Some(base) = contiguous_span(u, &list[..d - 1]) {
            // High-side outlier: the largest neighbor sits above the range.
            word |= INTERVAL_TAG | OUTLIER_TAG;
            start = base;
            outlier = list[d - 1];
        }
    }
    NeighborSampler {
        word,
        start,
        outlier,
    }
}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Edges may be listed in either orientation but each undirected edge must
    /// appear exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`,
    /// [`GraphError::SelfLoop`] for an edge `(u, u)`, and
    /// [`GraphError::DuplicateEdge`] if an undirected edge appears twice.
    ///
    /// # Examples
    ///
    /// ```
    /// use rumor_graphs::Graph;
    /// let path = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
    /// assert_eq!(path.degree(1), 2);
    /// # Ok::<(), rumor_graphs::GraphError>(())
    /// ```
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Self> {
        let mut builder = crate::builder::GraphBuilder::with_capacity(n, edges.len());
        builder.add_edges(edges.iter().copied())?;
        builder.build()
    }

    /// Internal constructor used by [`GraphBuilder`](crate::GraphBuilder),
    /// the codec and [`GeneratedGraph::materialize`](crate::GeneratedGraph::materialize).
    ///
    /// `adjacency[offsets[u]..offsets[u+1]]` must hold the sorted neighbors of
    /// `u`, the invariants [`check_csr`] checks.
    pub(crate) fn from_csr(offsets: Vec<u32>, adjacency: Vec<u32>, num_edges: usize) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, adjacency.len());
        debug_assert_eq!(adjacency.len(), 2 * num_edges);
        assert!(
            adjacency.len() <= u32::MAX as usize,
            "adjacency array exceeds u32 addressing"
        );
        let sampler: Vec<NeighborSampler> = offsets
            .windows(2)
            .enumerate()
            .map(|(u, w)| sampler_entry(u, &adjacency[w[0] as usize..w[1] as usize], w[0]))
            .collect();
        let csr_slots: usize = sampler
            .iter()
            .zip(offsets.windows(2))
            .filter(|(entry, _)| entry.word != 0 && entry.word & INTERVAL_TAG == 0)
            .map(|(_, w)| (w[1] - w[0]) as usize)
            .sum();
        let regular = if offsets.len() < 2 {
            None
        } else {
            let d = offsets[1];
            offsets
                .windows(2)
                .all(|w| w[1] - w[0] == d)
                .then_some(d as usize)
        };
        Graph {
            offsets,
            adjacency,
            sampler,
            num_edges,
            regular,
            defers_reads: csr_slots >= DEFER_MIN_SLOTS,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of all degrees, i.e. `2 |E|`. This is the normalizing constant of
    /// the stationary distribution of a simple random walk.
    #[inline]
    pub fn total_degree(&self) -> usize {
        2 * self.num_edges
    }

    /// Degree of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_vertices()`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// The neighbors of `u`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_vertices()`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[u32] {
        &self.adjacency[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The `i`-th neighbor of `u` (`0 <= i < deg(u)`).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    #[inline]
    pub fn neighbor(&self, u: VertexId, i: usize) -> VertexId {
        self.adjacency[self.offsets[u] as usize + i] as VertexId
    }

    /// Samples a uniformly random neighbor of `u`, or `None` if `u` is isolated.
    ///
    /// This is the primitive used by every protocol in the workspace: `push`,
    /// `push-pull` and the random-walk agents all move to a uniform neighbor.
    /// It sits on the innermost simulation loop, so all vertex metadata comes
    /// from one 12-byte `NeighborSampler` load (adjacency start plus a
    /// Lemire bound, or an interval description that
    /// needs no adjacency read at all) and the CSR branch's
    /// adjacency read skips bounds checks (safe by the CSR invariant
    /// `start + i < start + deg <= adjacency.len()`, which
    /// [`Graph::validate`] and the builder establish).
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_vertices()`.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub fn random_neighbor<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> Option<VertexId> {
        let entry = self.sampler[u];
        if entry.word == 0 {
            None
        } else {
            Some(self.neighbor_from_entry(u, entry, rng))
        }
    }

    /// Degree encoded in a non-sentinel sampler word.
    #[inline]
    fn entry_degree(word: u32) -> u64 {
        u64::from(word & WORD_PAYLOAD)
    }

    /// The `i`-th sorted member of the interval starting at `start`, skipping
    /// the hole at `u` when the interval contains it (a vertex is never its
    /// own neighbor; for pure intervals the bump condition is never met).
    #[inline]
    fn interval_member(u: VertexId, start: u32, i: u32) -> VertexId {
        let x = start + i;
        let v = u as u32;
        (x + u32::from(v >= start && x >= v)) as VertexId
    }

    /// Resolves a sampled index to a neighbor: arithmetically for
    /// interval-tagged vertices (no adjacency read), by CSR lookup otherwise.
    #[inline(always)]
    fn neighbor_from_entry<R: Rng + ?Sized>(
        &self,
        u: VertexId,
        entry: NeighborSampler,
        rng: &mut R,
    ) -> VertexId {
        let i = sample_index(entry.word, rng);
        self.resolve_neighbor_index(u, entry, i)
    }

    /// Maps sampled index `i` (`< deg(u)`) to the corresponding neighbor.
    #[inline(always)]
    #[allow(unsafe_code)]
    fn resolve_neighbor_index(&self, u: VertexId, entry: NeighborSampler, i: u64) -> VertexId {
        let word = entry.word;
        if word & INTERVAL_TAG != 0 {
            if word & OUTLIER_TAG != 0 {
                // One neighbor lies outside the interval; sorted order puts
                // it first (below the range) or last (above it).
                if entry.outlier < entry.start {
                    if i == 0 {
                        return entry.outlier as VertexId;
                    }
                    return Self::interval_member(u, entry.start, i as u32 - 1);
                }
                if i + 1 == Self::entry_degree(word) {
                    return entry.outlier as VertexId;
                }
                return Self::interval_member(u, entry.start, i as u32);
            }
            Self::interval_member(u, entry.start, i as u32)
        } else {
            let slot = entry.start as usize + i as usize;
            debug_assert!(slot < self.adjacency.len());
            // SAFETY: start <= slot < start + deg <= adjacency.len() (CSR
            // invariant; sample_neighbor_index returns a value < deg).
            unsafe { *self.adjacency.get_unchecked(slot) as VertexId }
        }
    }

    /// Samples a uniformly random neighbor of a vertex known to have at least
    /// one neighbor, skipping the isolation branch of
    /// [`Graph::random_neighbor`]. Intended for hot loops that have already
    /// established `deg(u) > 0` (e.g. agents placed from the stationary
    /// distribution, which never sit on isolated vertices).
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_vertices()` or if `deg(u) == 0`.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub fn random_neighbor_nonisolated<R: Rng + ?Sized>(
        &self,
        u: VertexId,
        rng: &mut R,
    ) -> VertexId {
        let entry = self.sampler[u];
        // A real assert (the generic `gen_range(start..end)` this replaces
        // carried the same empty-range check): it is the bound that keeps the
        // CSR branch's unchecked adjacency read in range.
        assert!(
            entry.word != 0,
            "random_neighbor_nonisolated on isolated vertex {u}"
        );
        self.neighbor_from_entry(u, entry, rng)
    }

    /// Like [`Graph::random_neighbor`], but the generator is produced
    /// lazily by `make_rng` — and **never produced at all when
    /// `deg(u) == 1`**, where the draw's outcome is forced and the sample
    /// is resolved arithmetically.
    ///
    /// This breaks the sequential engines' draw-consumption contract (they
    /// must consume a variate even for forced draws, to stay stream-aligned
    /// with the generic bounded sampler), so it is **only** for callers
    /// using counter-based per-entity streams (`rand::stream`), where an
    /// entity's unused draws are simply never computed and shift nothing.
    /// Degree-1 vertices are common and hot in the paper's instances — star
    /// leaves push/pull/walk through this path every round — making the
    /// skipped block function measurable end to end.
    #[inline(always)]
    pub fn random_neighbor_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<VertexId> {
        let entry = self.sampler[u];
        if entry.word == 0 {
            return None;
        }
        if Self::entry_degree(entry.word) == 1 {
            return Some(self.resolve_neighbor_index(u, entry, 0));
        }
        let mut rng = make_rng();
        Some(self.neighbor_from_entry(u, entry, &mut rng))
    }

    /// Returns `true` if `(u, v)` is an edge. `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.num_vertices()
    }

    /// Iterator over every undirected edge `(u, v)` with `u < v`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rumor_graphs::Graph;
    /// let g = Graph::from_edges(3, &[(2, 0), (1, 2)]).unwrap();
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges, vec![(0, 2), (1, 2)]);
    /// ```
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            u: 0,
            i: 0,
        }
    }

    /// Minimum degree over all vertices. Returns `None` for the empty graph.
    pub fn min_degree(&self) -> Option<usize> {
        self.vertices().map(|u| self.degree(u)).min()
    }

    /// Maximum degree over all vertices. Returns `None` for the empty graph.
    pub fn max_degree(&self) -> Option<usize> {
        self.vertices().map(|u| self.degree(u)).max()
    }

    /// Average degree `2|E| / n`, or `0.0` for the empty graph.
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.total_degree() as f64 / n as f64
        }
    }

    /// Returns `true` if every vertex has the same degree.
    ///
    /// Regular graphs are where the paper's main equivalence theorem
    /// (`T_push ≍ T_visitx`) applies.
    pub fn is_regular(&self) -> bool {
        match (self.min_degree(), self.max_degree()) {
            (Some(lo), Some(hi)) => lo == hi,
            _ => true,
        }
    }

    /// If the graph is `d`-regular, returns `Some(d)`; otherwise `None`.
    /// O(1): cached at construction.
    pub fn regular_degree(&self) -> Option<usize> {
        self.regular
    }

    /// The stationary distribution of a simple random walk:
    /// `π(u) = deg(u) / (2 |E|)`.
    ///
    /// The agent protocols of the paper start their agents from this
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges (the distribution is undefined).
    pub fn stationary_distribution(&self) -> Vec<f64> {
        assert!(
            self.num_edges > 0,
            "stationary distribution undefined without edges"
        );
        let total = self.total_degree() as f64;
        self.vertices()
            .map(|u| self.degree(u) as f64 / total)
            .collect()
    }

    /// Samples a vertex from the stationary distribution (degree-proportional).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    pub fn sample_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> VertexId {
        assert!(
            self.num_edges > 0,
            "stationary sampling undefined without edges"
        );
        // Sampling a uniform position in the concatenated adjacency array and
        // mapping it back to its owning vertex is exactly degree-proportional.
        let pos = rng.gen_range(0..self.adjacency.len());
        self.vertex_owning_slot(pos)
    }

    /// Maps an adjacency-array position to the vertex whose list contains it:
    /// the unique `u` with `offsets[u] <= pos < offsets[u + 1]`.
    #[inline]
    fn vertex_owning_slot(&self, pos: usize) -> VertexId {
        debug_assert!(pos < self.adjacency.len());
        // `partition_point` handles runs of equal offsets (empty adjacency
        // lists) uniformly: the first offset strictly greater than `pos` is
        // `offsets[u + 1]` of the owning vertex.
        self.offsets.partition_point(|&o| o as usize <= pos) - 1
    }

    /// Samples `count` independent stationary vertices in one call (the bulk
    /// path behind `rumor_walks::Placement::sample`).
    ///
    /// Draw-for-draw identical to calling [`Graph::sample_stationary`] `count`
    /// times with the same RNG — same stream consumption, same results — but
    /// on regular graphs the offset search collapses to a division, and the
    /// per-call edge-count assert is hoisted out of the loop.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges.
    pub fn sample_stationary_many<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        // One copy of the bulk sampling logic: the Topology impl below owns
        // it (the draw-identity contract is pinned through that path).
        let mut out = Vec::new();
        crate::Topology::sample_stationary_into(self, count, rng, &mut out);
        out.into_iter().map(|v| v as VertexId).collect()
    }

    /// Total memory used by the graph's arrays, in bytes (diagnostic).
    ///
    /// Counts the CSR offset and adjacency arrays *and* the per-vertex
    /// sampler table, by **capacity** (what the allocator actually holds)
    /// rather than length, so large-graph memory reports are honest.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.adjacency.capacity() * std::mem::size_of::<u32>()
            + self.sampler.capacity() * std::mem::size_of::<NeighborSampler>()
    }

    /// Checks the CSR invariants (rows sorted strictly ascending, in range,
    /// loop-free and symmetric) with the check [`codec::decode_csr`]
    /// applies to untrusted bytes, and that the adjacency holds two entries
    /// per edge, in time linear in the graph's size.
    ///
    /// [`codec::decode_csr`]: crate::codec::decode_csr
    ///
    /// Generators call this in debug builds; it is also handy in tests.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        check_csr(&self.offsets, &self.adjacency)?;
        if self.adjacency.len() != 2 * self.num_edges {
            return Err(GraphError::GenerationFailed {
                reason: "edge count does not match adjacency length".to_string(),
            });
        }
        Ok(())
    }
}

/// Checks that `offsets` and `adjacency` (offsets already monotone and
/// ending at `adjacency.len()`) are the CSR rows of a simple undirected
/// graph on `offsets.len() - 1` vertices, in two linear passes.
///
/// The first pass reads each row in order. It checks that every entry is in
/// range, is not the row's own vertex, and exceeds the entry before it, and
/// it notes where each row's entries above its vertex begin. The second
/// checks symmetry with one cursor per row, over those upper entries. It
/// reads the rows in vertex order, so the lower entries `w < v` of the rows
/// `v` that name `w` reach row `w` in ascending `v`, the order row `w` lists
/// its upper entries. Each must find `v` at row `w`'s cursor, which then
/// moves one entry on. The graph is symmetric if every lower entry finds its
/// match and every cursor ends at its row's end. That is one compare per
/// lower entry, O(n + m) in all, where a binary search per half-edge costs
/// O(m log Δ).
///
/// # Errors
///
/// The first violation, rows in vertex order and entries in row order:
/// [`GraphError::VertexOutOfRange`], [`GraphError::SelfLoop`] or
/// [`GraphError::DuplicateEdge`] (also for an unsorted row) from the first
/// pass, else [`GraphError::GenerationFailed`] naming a half-edge whose
/// reverse is missing.
pub(crate) fn check_csr(offsets: &[u32], adjacency: &[u32]) -> Result<()> {
    let n = offsets.len().saturating_sub(1);
    // `upper[u]`: row `u`'s first entry above `u` that no lower entry has
    // matched yet.
    let mut upper = Vec::with_capacity(n);
    for (u, bounds) in offsets.windows(2).enumerate() {
        let row = &adjacency[bounds[0] as usize..bounds[1] as usize];
        let mut prev: Option<u32> = None;
        for &v in row {
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v as usize,
                    n,
                });
            }
            if v as usize == u {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if prev.is_some_and(|p| v <= p) {
                return Err(GraphError::DuplicateEdge { u, v: v as usize });
            }
            prev = Some(v);
        }
        upper.push(bounds[0] + row.partition_point(|&v| (v as usize) < u) as u32);
    }
    let asymmetric = |u: usize, v: u32| GraphError::GenerationFailed {
        reason: format!("edge ({u}, {v}) is not symmetric"),
    };
    for v in 0..n {
        // Rows above `v` have not moved `upper[v]` yet: it still ends the
        // lower entries.
        for &w in &adjacency[offsets[v] as usize..upper[v] as usize] {
            let w = w as usize;
            let at = upper[w];
            let back = (at < offsets[w + 1]).then(|| adjacency[at as usize]);
            if back != Some(v as u32) {
                // An unmatched `x < v` at row `w`'s cursor is a half-edge
                // `(w, x)` that row `x`, already read, did not return;
                // otherwise `v` is not in row `w`.
                return Err(match back {
                    Some(x) if (x as usize) < v => asymmetric(w, x),
                    _ => asymmetric(v, w as u32),
                });
            }
            upper[w] = at + 1;
        }
    }
    for (w, &at) in upper.iter().enumerate() {
        if at < offsets[w + 1] {
            return Err(asymmetric(w, adjacency[at as usize]));
        }
    }
    Ok(())
}

/// The CSR backend of the [`Topology`](crate::Topology) abstraction: every
/// method forwards to the inherent implementation (which the rest of the
/// crate's API keeps exposing directly).
impl crate::Topology for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        Graph::degree(self, u)
    }

    #[inline]
    fn for_each_neighbor(&self, u: VertexId, mut f: impl FnMut(VertexId)) {
        for &v in self.neighbors(u) {
            f(v as VertexId);
        }
    }

    #[inline(always)]
    fn random_neighbor<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> Option<VertexId> {
        Graph::random_neighbor(self, u, rng)
    }

    #[inline(always)]
    fn random_neighbor_nonisolated<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> VertexId {
        Graph::random_neighbor_nonisolated(self, u, rng)
    }

    #[inline(always)]
    fn random_neighbor_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<VertexId> {
        Graph::random_neighbor_with(self, u, make_rng)
    }

    /// Deferring pays only once the lists draws actually read outgrow the
    /// cache: from `DEFER_MIN_SLOTS` entries (1 MiB) of CSR-tagged lists on.
    /// Interval-tagged lists are never read, so a large graph made of them
    /// (the Fig. 1 families) does not defer. Below the threshold a deferred
    /// read hides no miss, and the queueing and prefetch instructions would
    /// only cost.
    #[inline]
    fn defers_reads(&self) -> bool {
        self.defers_reads
    }

    /// Draws exactly like [`Graph::random_neighbor`]. Interval-tagged lists
    /// resolve here (no adjacency read); CSR-tagged ones prefetch the
    /// selected adjacency slot and return it.
    #[inline(always)]
    fn draw_deferred<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> DeferredNeighbor {
        let entry = self.sampler[u];
        if entry.word == 0 {
            return DeferredNeighbor::vertex(u);
        }
        let i = sample_index(entry.word, rng);
        if entry.word & INTERVAL_TAG != 0 {
            return DeferredNeighbor::vertex(self.resolve_neighbor_index(u, entry, i));
        }
        let slot = entry.start as usize + i as usize;
        prefetch(self.adjacency.as_ptr().wrapping_add(slot));
        DeferredNeighbor(Deferred::Slot(slot))
    }

    #[inline(always)]
    fn resolve_deferred(&self, token: DeferredNeighbor) -> VertexId {
        match token.0 {
            Deferred::Vertex(v) => v,
            // Checked: a token from another graph must not read out of range.
            Deferred::Slot(slot) => self.adjacency[slot] as VertexId,
            Deferred::Draw { .. } => panic!("an index draw from another backend"),
        }
    }

    #[inline(always)]
    fn prefetch_sampler(&self, u: VertexId) {
        prefetch(self.sampler.as_ptr().wrapping_add(u));
    }

    fn sample_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> VertexId {
        Graph::sample_stationary(self, rng)
    }

    fn sample_stationary_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        out: &mut Vec<u32>,
    ) {
        assert!(
            self.num_edges > 0,
            "stationary sampling undefined without edges"
        );
        let slots = self.adjacency.len();
        out.clear();
        out.reserve(count);
        if let Some(d) = self.regular_degree() {
            // All lists have length d: slot `pos` belongs to vertex `pos / d`.
            out.extend((0..count).map(|_| (rng.gen_range(0..slots) / d) as u32));
        } else {
            out.extend((0..count).map(|_| self.vertex_owning_slot(rng.gen_range(0..slots)) as u32));
        }
    }

    fn is_bipartite(&self) -> bool {
        crate::algorithms::is_bipartite(self)
    }

    fn regular_degree(&self) -> Option<usize> {
        Graph::regular_degree(self)
    }

    fn memory_bytes(&self) -> usize {
        Graph::memory_bytes(self)
    }
}

/// Asks the CPU to start loading the cache line holding `p` into L1. A hint
/// only: it never faults and changes no result, so any address is fine.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only needs SSE, which every x86_64 CPU has; a
    // prefetch does not dereference `p` architecturally and cannot fault,
    // whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("min_degree", &self.min_degree())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

/// Iterator over the undirected edges of a [`Graph`], produced by [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    u: VertexId,
    i: usize,
}

impl Iterator for Edges<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.graph.num_vertices();
        while self.u < n {
            let neigh = self.graph.neighbors(self.u);
            while self.i < neigh.len() {
                let v = neigh[self.i] as VertexId;
                self.i += 1;
                if self.u < v {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.i = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_edges_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_degree(), 6);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, &[(3, 0), (0, 1), (2, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn neighbor_by_index() {
        let g = Graph::from_edges(4, &[(0, 2), (0, 3), (0, 1)]).unwrap();
        assert_eq!(g.neighbor(0, 0), 1);
        assert_eq!(g.neighbor(0, 1), 2);
        assert_eq!(g.neighbor(0, 2), 3);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 5));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap(); // star
        assert_eq!(g.min_degree(), Some(1));
        assert_eq!(g.max_degree(), Some(3));
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
        assert!(!g.is_regular());
        assert_eq!(g.regular_degree(), None);
    }

    #[test]
    fn regular_graph_detection() {
        let g = triangle();
        assert!(g.is_regular());
        assert_eq!(g.regular_degree(), Some(2));
    }

    #[test]
    fn stationary_distribution_sums_to_one_and_is_degree_proportional() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let pi = g.stationary_distribution();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((pi[0] - 0.5).abs() < 1e-12);
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn sample_stationary_is_degree_biased() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 60_000;
        let mut counts = [0usize; 4];
        for _ in 0..trials {
            counts[g.sample_stationary(&mut rng)] += 1;
        }
        let center_frac = counts[0] as f64 / trials as f64;
        assert!(
            (center_frac - 0.5).abs() < 0.02,
            "center fraction {center_frac}"
        );
        for &leaf in &counts[1..] {
            let frac = leaf as f64 / trials as f64;
            assert!((frac - 1.0 / 6.0).abs() < 0.02, "leaf fraction {frac}");
        }
    }

    #[test]
    fn random_neighbor_uniform() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 30_000;
        let mut counts = [0usize; 4];
        for _ in 0..trials {
            counts[g.random_neighbor(0, &mut rng).unwrap()] += 1;
        }
        for &c in &counts[1..] {
            let frac = c as f64 / trials as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "fraction {frac}");
        }
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn random_neighbor_isolated_vertex() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(g.random_neighbor(2, &mut rng), None);
    }

    #[test]
    fn validate_accepts_well_formed_graph() {
        assert!(triangle().validate().is_ok());
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(matches!(
            Graph::from_edges(3, &[(0, 3)]),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        ));
        assert!(matches!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        assert!(matches!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.min_degree(), None);
        assert!(g.is_regular());
        assert_eq!(g.regular_degree(), None);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn debug_formatting_is_nonempty() {
        let s = format!("{:?}", triangle());
        assert!(s.contains("Graph"));
        assert!(s.contains("num_vertices"));
    }

    #[test]
    fn memory_bytes_positive_and_counts_sampler_table() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
        // offsets (n + 1 u32s) + adjacency (2m u32s) + sampler (n 12-byte
        // entries), by capacity — at least the length-based sizes.
        let floor = (g.num_vertices() + 1) * std::mem::size_of::<u32>()
            + 2 * g.num_edges() * std::mem::size_of::<u32>()
            + g.num_vertices() * std::mem::size_of::<NeighborSampler>();
        assert!(g.memory_bytes() >= floor);
        assert_eq!(std::mem::size_of::<NeighborSampler>(), 12);
    }

    #[test]
    fn sampler_words_cover_the_shapes() {
        let entry = |u: usize, list: &[u32]| sampler_entry(u, list, 77);
        assert_eq!(entry(5, &[]).word, 0, "isolation sentinel");
        // Degree 1: trivially an interval.
        assert_eq!(entry(0, &[7]).word, INTERVAL_TAG | 1);
        assert_eq!(entry(0, &[7]).start, 7, "interval start is the neighbor");
        // Contiguous pure range (star center): interval.
        assert_eq!(entry(0, &[1, 2]).word, INTERVAL_TAG | 2);
        assert_eq!(entry(0, &[1, 2, 3]).word, INTERVAL_TAG | 3);
        // Range with the hole exactly at the vertex (clique / cycle member).
        assert_eq!(entry(2, &[1, 3]).word, INTERVAL_TAG | 2);
        assert_eq!(entry(2, &[0, 1, 3, 4]).word, INTERVAL_TAG | 4);
        assert_eq!(entry(2, &[0, 1, 3, 4]).start, 0, "hole interval start");
        // One low-side outlier plus a range (clique member + its link).
        let e = entry(11, &[3, 10, 12, 13]);
        assert_eq!(e.word, INTERVAL_TAG | OUTLIER_TAG | 4);
        assert_eq!((e.start, e.outlier), (10, 3));
        // One high-side outlier.
        let e = entry(0, &[4, 5, 6, 90]);
        assert_eq!(e.word, INTERVAL_TAG | OUTLIER_TAG | 4);
        assert_eq!((e.start, e.outlier), (4, 90));
        // A gap that is NOT the vertex itself: plain CSR sampling.
        let e = entry(9, &[1, 3, 5]);
        assert_eq!(e.word, 3);
        assert_eq!(e.start, 77, "CSR start preserved");
        // Scattered list: the index bits are the degree itself.
        for d in [5usize, 6, 7, 8, 9, 100, 999, 1024] {
            let list: Vec<u32> = (0..d as u32).map(|i| 2 * i + 2).collect();
            let w = entry(0, &list).word;
            assert_eq!(w, d as u32);
        }
    }

    #[test]
    fn index_draw_is_gen_range_at_every_power_of_two() {
        // For each d = 2^k up to the largest encodable degree, and the odd
        // degrees beside it, the one-multiply index draw returns the value
        // of the generic `gen_range(0..d)` and leaves the stream where it
        // does.
        let degrees = (0..usize::BITS)
            .map(|k| 1usize << k)
            .take_while(|&d| d <= MAX_SAMPLER_DEGREE)
            .flat_map(|d| [d - 1, d, d + 1])
            .filter(|&d| (1..=MAX_SAMPLER_DEGREE).contains(&d));
        for d in degrees {
            let mut specialized = StdRng::seed_from_u64(d as u64);
            let mut generic = specialized.clone();
            for _ in 0..200 {
                let i = sample_index(index_word(d), &mut specialized);
                assert_eq!(i, generic.gen_range(0..d as u64), "degree {d}");
            }
            assert_eq!(specialized.next_u64(), generic.next_u64(), "degree {d}");
        }
    }

    #[test]
    fn specialized_sampler_is_bit_identical_to_gen_range() {
        // One vertex of every degree shape, in both layouts: a star center
        // (contiguous neighbor interval → arithmetic sampling) and a
        // scattered even-vertex fan (plain CSR sampling). For each, the
        // specialized sampler must return the same neighbor AND leave the
        // RNG in the same state as the generic `gen_range` it replaced.
        for degree in 1usize..=40 {
            let star_edges: Vec<(usize, usize)> = (1..=degree).map(|leaf| (0, leaf)).collect();
            let scattered_edges: Vec<(usize, usize)> = (1..=degree).map(|k| (0, 2 * k)).collect();
            for edges in [star_edges, scattered_edges] {
                let n = edges.iter().map(|&(_, v)| v).max().unwrap() + 1;
                let g = Graph::from_edges(n, &edges).unwrap();
                let mut specialized = StdRng::seed_from_u64(degree as u64);
                let mut generic = specialized.clone();
                for _ in 0..500 {
                    let via_sampler = g.random_neighbor_nonisolated(0, &mut specialized);
                    let i = generic.gen_range(0..degree);
                    let via_gen_range = g.neighbor(0, i);
                    assert_eq!(via_sampler, via_gen_range, "degree {degree}");
                }
                // Same stream position afterwards.
                assert_eq!(specialized.next_u64(), generic.next_u64());
            }
        }
    }

    #[test]
    fn interval_sampling_handles_holes_and_boundaries() {
        // Cycle: inner vertices have {v-1, v+1} (interval with hole at v);
        // the wrap-around vertices 0 and n-1 have non-contiguous lists (CSR
        // path). Every sample must agree with the generic draw, and every
        // neighbor must be reachable.
        let n = 9;
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        for u in 0..n {
            let mut specialized = StdRng::seed_from_u64(u as u64);
            let mut generic = specialized.clone();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..200 {
                let v = g.random_neighbor_nonisolated(u, &mut specialized);
                assert_eq!(v, g.neighbor(u, generic.gen_range(0..g.degree(u))));
                assert!(g.has_edge(u, v), "sampled non-edge {u}-{v}");
                seen.insert(v);
            }
            assert_eq!(seen.len(), g.degree(u), "some neighbor never sampled");
        }
        // Complete graph: every vertex is an interval-with-hole.
        let k = crate::generators::complete(17).unwrap();
        for u in 0..17 {
            let mut rng = StdRng::seed_from_u64(u as u64);
            for _ in 0..100 {
                let v = k.random_neighbor_nonisolated(u, &mut rng);
                assert!(v != u && v < 17);
            }
        }
    }

    #[test]
    fn sample_stationary_many_matches_repeated_single_samples() {
        let mut rng = StdRng::seed_from_u64(11);
        // Non-regular: star plus a pendant path.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]).unwrap();
        let bulk = g.sample_stationary_many(200, &mut StdRng::seed_from_u64(3));
        let mut single_rng = StdRng::seed_from_u64(3);
        let singles: Vec<_> = (0..200)
            .map(|_| g.sample_stationary(&mut single_rng))
            .collect();
        assert_eq!(bulk, singles);
        // Regular graph: the division fast path must agree too.
        let r = crate::generators::random_regular(64, 6, &mut rng).unwrap();
        let bulk = r.sample_stationary_many(200, &mut StdRng::seed_from_u64(5));
        let mut single_rng = StdRng::seed_from_u64(5);
        let singles: Vec<_> = (0..200)
            .map(|_| r.sample_stationary(&mut single_rng))
            .collect();
        assert_eq!(bulk, singles);
    }

    #[test]
    fn stationary_slot_mapping_skips_empty_lists() {
        // Vertices 1 and 3 are isolated; their empty lists share offsets with
        // neighbors and must never be returned.
        let g = Graph::from_edges(5, &[(0, 2), (2, 4)]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2_000 {
            let v = g.sample_stationary(&mut rng);
            assert!(g.degree(v) > 0, "sampled isolated vertex {v}");
        }
    }

    #[test]
    fn deferred_draws_match_random_neighbor_draw_for_draw() {
        use crate::Topology;
        let mut rng = StdRng::seed_from_u64(8);
        // 2^15 vertices of degree 8: exactly the deferral threshold, with
        // CSR-tagged lists. Then a small graph with interval lists (a
        // clique, a star) and an isolated vertex, which does not defer.
        let big = crate::generators::random_regular(1 << 15, 8, &mut rng).unwrap();
        assert_eq!(big.adjacency.len(), DEFER_MIN_SLOTS);
        // A large graph of interval lists alone (a star) does not defer.
        let big_star = crate::generators::star(DEFER_MIN_SLOTS).unwrap();
        assert!(!big_star.defers_reads());
        let small =
            Graph::from_edges(8, &[(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6)]).unwrap();
        assert!(big.defers_reads() && !small.defers_reads());
        for g in [&big, &small] {
            let (mut plain, mut deferred) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            let mut slots = 0;
            for u in (0..g.num_vertices())
                .cycle()
                .take(3 * g.num_vertices().max(100))
            {
                g.prefetch_sampler(u);
                let token = g.draw_deferred(u, &mut deferred);
                slots += usize::from(token.resolved().is_none());
                let expected = g.random_neighbor(u, &mut plain).unwrap_or(u);
                assert_eq!(g.resolve_deferred(token), expected, "vertex {u}");
                assert_eq!(
                    plain.next_u64(),
                    deferred.next_u64(),
                    "stream after vertex {u}"
                );
            }
            // The big graph defers every read; the small one has no
            // CSR-tagged list (the triangle, star and isolated vertex are
            // all interval-shaped or empty).
            assert_eq!(slots > 0, g.defers_reads());
        }
    }
}
