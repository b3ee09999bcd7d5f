//! The hub-cached hybrid topology backend: exact adjacency for the heavy
//! tail, hashed derivation for everything else.
//!
//! [`HubCachedGraph`] layers over [`GeneratedGraph`] to remove the one
//! asymmetry that prices agent protocols out of large generated graphs:
//! a neighbor query on the hashed backend costs `O(deg)` stub-pairing
//! partner evaluations plus a sort, and stationary random walks land on
//! high-degree vertices with probability proportional to their degree —
//! so the *most expensive* vertices are queried the *most often*. On a
//! Chung–Lu power-law instance the top few percent of vertices by degree
//! carry the majority of the stationary mass, which means a small exact
//! adjacency cache absorbs most agent steps.
//!
//! # Construction
//!
//! The builder selects the **top-k vertices by stub count** (ties broken
//! toward lower vertex ids, so selection is a pure function of the graph),
//! where `k` comes from an explicit count, a byte budget, or both
//! (whichever is smaller). A `RUMOR_THREADS`-aware parallel pass — the
//! same worker discipline as the generated backend's construction passes —
//! then materializes each hub's exact sorted neighbor list through the
//! *identical* enumeration path every hashed query takes
//! (`GeneratedGraph`'s shared enumerate-sort-dedup routine), storing them
//! concatenated behind `u32` entry offsets. Each entry is **bit-packed** at
//! `w = max(1, ⌈log₂ n⌉)` bits (a fixed width, so entry `e` is one
//! two-word read at bit `e·w` — no per-list metadata), and hub membership
//! is a bitmap with a per-word rank prefix, so a vertex's cache slot is an
//! `O(1)` popcount rather than a search.
//!
//! # Determinism contract
//!
//! Draw streams are **bit-identical** to the uncached [`GeneratedGraph`]
//! (and hence to the materialized CSR [`Graph`](crate::Graph)) by
//! construction, not by luck:
//!
//! * degrees are read from the inner backend's own offset table, so stream
//!   consumption per draw is unchanged;
//! * index sampling flows through the same shared degree-specialized
//!   sampler ([`crate::graph`]'s `index_word`/`sample_index`);
//! * a sampled index resolves to the *i*-th **sorted** neighbor, and the
//!   cached lists are produced by the same routine the hashed path sorts
//!   with — a hub hit and a hash miss return the same vertex.
//!
//! `k = 0` degenerates to the pure hashed backend and `k = n` to a fully
//! materialized adjacency, both bit-identical to each other — pinned by
//! the property suite in `tests/generated_properties.rs` and the
//! differential grids in `tests/generated_equivalence.rs`.
//!
//! # Cost model
//!
//! Memory adds `12·⌈n/64⌉` bytes of membership bitmap and rank prefix,
//! `4·(k + 1)` bytes of entry offsets and `8·(⌈w·Σ deg(hub) / 64⌉ + 1)`
//! bytes of packed adjacency (one trailing padding word) to the inner
//! backend's `≈ 8n`; the budget builder caps the packed adjacency at a
//! byte ceiling (accounted conservatively in pre-erasure stub counts, so
//! the realized cache never exceeds it). Queries on cached vertices cost
//! an `O(1)` bitmap probe and popcount plus an `O(1)` two-word read instead
//! of `O(deg)` pairing evaluations; tail vertices take the same bitmap
//! probe and continue on the hashed path unchanged. The win is
//! workload-dependent: agent walks (visit/meet-exchange) spend most draws
//! on hubs and speed up by the cached fraction of stationary mass
//! ([`HubCachedGraph::hub_hit_fraction`]); vertex protocols (push/pull)
//! query every vertex equally often and gain little. `BENCH_random.json`
//! records the measured speedups.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::generated::{configured_threads, GeneratedGraph};
use crate::graph::{index_word, sample_index, VertexId};
use crate::topology::Topology;

/// Fallback hub count when the builder gets neither a count nor a budget:
/// one cached vertex per this many graph vertices. On Chung–Lu exponents in
/// `(2, 3]` the top `n/64` vertices carry most of the stationary mass while
/// their adjacency stays well below the inner backend's own table
/// footprint.
const DEFAULT_HUB_DIVISOR: usize = 64;

/// Parallel cache fills below this many total adjacency entries stay on one
/// worker (mirrors the generated backend's per-worker chunk floor).
const PAR_FILL_FLOOR: usize = 16_384;

/// A hub-cached hybrid over [`GeneratedGraph`]: exact bit-packed adjacency
/// for the top-k vertices by stub count, hashed `O(deg)` derivation for the
/// tail, draw streams bit-identical to the uncached backend (see the module
/// docs above).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_graphs::{GeneratedGraph, HubCachedGraph, Topology};
///
/// let inner = GeneratedGraph::chung_lu(10_000, 2.5, 8.0, 7)?;
/// let cached = HubCachedGraph::with_hub_count(inner.clone(), 256);
/// assert_eq!(cached.hub_count(), 256);
///
/// // Draws are bit-identical to the uncached backend.
/// let mut a = rand::rngs::StdRng::seed_from_u64(3);
/// let mut b = a.clone();
/// for u in 0..100 {
///     assert_eq!(cached.random_neighbor(u, &mut a), inner.random_neighbor(u, &mut b));
/// }
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HubCachedGraph {
    inner: GeneratedGraph,
    /// Hub membership: bit `u % 64` of word `u / 64` is set iff `u` is
    /// cached.
    hub_bits: Vec<u64>,
    /// `hub_rank[i]` counts the hubs below vertex `64·i`; plus a popcount
    /// of the masked membership word, it is a hub's cache slot.
    hub_rank: Vec<u32>,
    /// `hub_offsets[h]..hub_offsets[h + 1]` brackets the entries of the
    /// hub in slot `h` (slots ascend with vertex id) — prefix sums of the
    /// hubs' simple degrees (the total is at most `2m ≤ u32::MAX`,
    /// inherited from the inner backend's check).
    hub_offsets: Vec<u32>,
    /// The concatenated exact sorted neighbor lists.
    hub_adj: PackedIds,
}

/// A fixed-width bit-packed array of vertex ids: entry `e` occupies bits
/// `e·width .. (e + 1)·width` of the little-endian word stream. A
/// non-empty array carries one trailing padding word, so every read can
/// fetch two adjacent words without a bounds special case.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PackedIds {
    width: u32,
    words: Vec<u64>,
}

impl PackedIds {
    /// Words (padding included) that hold `len` entries of `width` bits.
    fn word_count(len: usize, width: u32) -> usize {
        if len == 0 {
            0
        } else {
            (len as u64 * u64::from(width)).div_ceil(64) as usize + 1
        }
    }

    /// Entry `e`: one shift of two adjacent words and a mask.
    #[inline]
    fn get(&self, e: usize) -> u32 {
        let bit = e as u64 * u64::from(self.width);
        let (i, shift) = ((bit >> 6) as usize, (bit & 63) as u32);
        // `<< 1 << (63 - shift)` is `<< (64 - shift)` without the
        // overflowing shift at `shift = 0`.
        let pair = (self.words[i] >> shift) | (self.words[i + 1] << 1 << (63 - shift));
        (pair & ((1u64 << self.width) - 1)) as u32
    }
}

/// Appends consecutive entries to a [`PackedIds`] word stream under
/// construction, starting at entry `first`. Words are flushed with
/// `fetch_or` into zeroed storage, so writers of adjacent entry ranges can
/// share their boundary words: every bit has exactly one writer, and the
/// OR is order-independent — the result is the same at any worker count.
/// `Relaxed` suffices because the words publish nothing else, and the
/// fill's thread-scope join orders every write before the words are read.
struct PackedWriter<'a> {
    words: &'a [AtomicU64],
    width: u32,
    word: usize,
    shift: u32,
    acc: u64,
}

impl<'a> PackedWriter<'a> {
    fn new(words: &'a [AtomicU64], width: u32, first: usize) -> Self {
        let bit = first as u64 * u64::from(width);
        PackedWriter {
            words,
            width,
            word: (bit >> 6) as usize,
            shift: (bit & 63) as u32,
            acc: 0,
        }
    }

    #[inline]
    fn push(&mut self, value: u32) {
        debug_assert!(
            u64::from(value) >> self.width == 0,
            "{value} exceeds {} bits",
            self.width
        );
        self.acc |= u64::from(value) << self.shift;
        self.shift += self.width;
        if self.shift >= 64 {
            self.words[self.word].fetch_or(self.acc, Ordering::Relaxed);
            self.word += 1;
            self.shift -= 64;
            // The high bits of `value` that did not fit the flushed word
            // (none when the entry ended exactly on the boundary).
            self.acc = u64::from(value) >> (self.width - self.shift);
        }
    }

    /// Flushes the partial last word.
    fn finish(self) {
        if self.shift > 0 {
            self.words[self.word].fetch_or(self.acc, Ordering::Relaxed);
        }
    }
}

/// Bits per packed entry for an `n`-vertex graph: `max(1, ⌈log₂ n⌉)`.
fn id_width(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// The most entries of `width` bits whose packed words, padding included,
/// fit in `bytes`.
fn budget_entries(bytes: usize, width: u32) -> u64 {
    (bytes / 8).saturating_sub(1) as u64 * 64 / u64::from(width)
}

/// Builder for [`HubCachedGraph`]: choose the cache size by hub count, by
/// byte budget, or both (the effective size is the smaller).
///
/// # Examples
///
/// ```
/// use rumor_graphs::{GeneratedGraph, HubCacheBuilder};
///
/// let inner = GeneratedGraph::chung_lu(5_000, 2.5, 6.0, 1)?;
/// let cached = HubCacheBuilder::new()
///     .hub_count(500)
///     .cache_budget_bytes(64 << 10)
///     .build(inner);
/// // Packed adjacency within the budget, plus 4 bytes of offset per hub
/// // (and one) and 12 bytes of membership bitmap and rank per 64 vertices.
/// assert!(cached.cache_bytes() <= (64 << 10) + 4 * (500 + 1) + 12 * 5_000usize.div_ceil(64));
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HubCacheBuilder {
    hub_count: Option<usize>,
    budget_bytes: Option<usize>,
}

impl HubCacheBuilder {
    /// A builder with neither limit set; [`HubCacheBuilder::build`] then
    /// applies the default policy (`n / 64` hubs — see the module docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caches the top `k` vertices by stub count (clamped to `n`).
    pub fn hub_count(mut self, k: usize) -> Self {
        self.hub_count = Some(k);
        self
    }

    /// Caps the cached **adjacency** at `bytes`: entries are packed at
    /// `max(1, ⌈log₂ n⌉)` bits into 8-byte words plus one padding word, so
    /// the budget buys `⌊64·(⌊bytes/8⌋ − 1) / w⌋` entries. Accounted
    /// conservatively in pre-erasure stub counts — the realized cache
    /// (simple degrees) never exceeds the budget. The offsets (4 bytes per
    /// hub) and the membership bitmap and rank (12 bytes per 64 vertices)
    /// are not charged against it.
    pub fn cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Builds the hub cache over `inner`. Deterministic: the selected hub
    /// set and every cached list are pure functions of the inner graph and
    /// the limits — thread counts cannot change a byte (the fill pass
    /// honors `RUMOR_THREADS` exactly like the inner construction passes).
    pub fn build(self, inner: GeneratedGraph) -> HubCachedGraph {
        let n = inner.num_vertices();
        let default_k = if self.hub_count.is_none() && self.budget_bytes.is_none() {
            Some(n.div_ceil(DEFAULT_HUB_DIVISOR))
        } else {
            None
        };
        let width = id_width(n);
        let entry_budget = self.budget_bytes.map(|b| budget_entries(b, width));
        let hub_ids = select_hubs(&inner, self.hub_count.or(default_k), entry_budget);

        let mut hub_bits = vec![0u64; n.div_ceil(64)];
        for &u in &hub_ids {
            hub_bits[u as usize >> 6] |= 1 << (u & 63);
        }
        let mut below = 0u32;
        let hub_rank = hub_bits
            .iter()
            .map(|w| {
                let rank = below;
                below += w.count_ones();
                rank
            })
            .collect();
        let mut hub_offsets = Vec::with_capacity(hub_ids.len() + 1);
        hub_offsets.push(0u32);
        let mut total = 0u32;
        for &u in &hub_ids {
            total += inner.degree(u as usize) as u32; // Σ deg ≤ 2m ≤ u32::MAX
            hub_offsets.push(total);
        }
        let workers = configured_threads()
            .min(hub_ids.len())
            .min((total as usize).div_ceil(PAR_FILL_FLOOR))
            .max(1);
        let hub_adj = fill_cache(&inner, &hub_ids, &hub_offsets, width, workers);
        HubCachedGraph {
            inner,
            hub_bits,
            hub_rank,
            hub_offsets,
            hub_adj,
        }
    }
}

/// Picks the hub set: the top-k vertices by stub count, ties broken toward
/// lower ids, `k` capped by `k_limit` and by the longest prefix of that
/// order whose stub counts fit `entry_budget`. Returns the ascending hub
/// ids. One histogram of stub counts, walked from the largest count down,
/// finds both the budget prefix and the weakest hub's count.
fn select_hubs(
    inner: &GeneratedGraph,
    k_limit: Option<usize>,
    entry_budget: Option<u64>,
) -> Vec<u32> {
    let n = inner.num_vertices();
    let mut hist: Vec<usize> = Vec::new();
    for u in 0..n {
        let c = inner.stub_degree(u);
        if c >= hist.len() {
            hist.resize(c + 1, 0);
        }
        hist[c] += 1;
    }
    let k_budget = match entry_budget {
        None => n,
        Some(budget) => {
            // Whole count levels while they fit; the first level that does
            // not fit contributes as many vertices as still fit, and ends
            // the prefix.
            let (mut k, mut spent) = (0usize, 0u64);
            for (c, &count) in hist.iter().enumerate().rev() {
                let fits = match c {
                    0 => count,
                    _ => ((budget - spent) / c as u64).min(count as u64) as usize,
                };
                k += fits;
                spent += fits as u64 * c as u64;
                if fits < count {
                    break;
                }
            }
            k
        }
    };
    let k = k_limit.unwrap_or(n).min(k_budget).min(n);
    if k == 0 {
        return Vec::new();
    }
    // The weakest hub's count: every vertex above it is a hub, plus the
    // lowest-id `k − above` of its ties.
    let mut above = 0usize;
    let mut threshold = 0usize;
    for (c, &count) in hist.iter().enumerate().rev() {
        if above + count >= k {
            threshold = c;
            break;
        }
        above += count;
    }
    let mut ties_left = k - above;
    let mut hub_ids = Vec::with_capacity(k);
    for u in 0..n {
        let c = inner.stub_degree(u);
        if c > threshold {
            hub_ids.push(u as u32);
        } else if c == threshold && ties_left > 0 {
            hub_ids.push(u as u32);
            ties_left -= 1;
        }
    }
    hub_ids
}

/// Materializes every hub's exact sorted neighbor list into one packed
/// array, splitting the hub range across `workers` scoped threads at
/// entry-balanced boundaries. The words are filled in place: adjacent
/// workers share only the word that straddles their boundary, through
/// [`PackedWriter`]'s `fetch_or`, so the bits — and the result — do not
/// depend on the worker count.
fn fill_cache(
    inner: &GeneratedGraph,
    hub_ids: &[u32],
    hub_offsets: &[u32],
    width: u32,
    workers: usize,
) -> PackedIds {
    let hubs = hub_ids.len();
    let total = hub_offsets[hubs] as usize;
    let words: Vec<AtomicU64> = (0..PackedIds::word_count(total, width))
        .map(|_| AtomicU64::new(0))
        .collect();
    // Worker w takes hubs [bounds[w], bounds[w + 1]): boundaries land at
    // the first hub at or past each equal share of the total entry count,
    // so one giant hub cannot serialize the pass behind it.
    let mut bounds = vec![0usize];
    for w in 1..workers {
        let target = (total as u64 * w as u64 / workers as u64) as u32;
        let idx = hub_offsets.partition_point(|&o| o < target);
        bounds.push(idx.min(hubs).max(bounds[w - 1]));
    }
    bounds.push(hubs);
    std::thread::scope(|scope| {
        for range in bounds.windows(2).map(|b| b[0]..b[1]) {
            let out = PackedWriter::new(&words, width, hub_offsets[range.start] as usize);
            scope.spawn(move || fill_range(inner, hub_ids, range, out));
        }
    });
    PackedIds {
        width,
        // Same size and alignment: the collect reuses the allocation.
        words: words.into_iter().map(AtomicU64::into_inner).collect(),
    }
}

/// One worker's share of the cache fill: hubs `range`, appended through
/// `out` (positioned at the first entry of `range.start`).
fn fill_range(
    inner: &GeneratedGraph,
    hub_ids: &[u32],
    range: std::ops::Range<usize>,
    mut out: PackedWriter<'_>,
) {
    let mut scratch: Vec<u32> = Vec::new();
    for h in range {
        let u = hub_ids[h] as usize;
        let stubs = inner.stub_degree(u);
        if scratch.len() < stubs {
            scratch.resize(stubs, 0);
        }
        let len = inner.neighbors_into_buf(u, &mut scratch);
        debug_assert_eq!(len, inner.degree(u), "cache/degree disagreement at {u}");
        for &v in &scratch[..len] {
            out.push(v);
        }
    }
    out.finish();
}

impl HubCachedGraph {
    /// The default policy: caches the top `n / 64` vertices by stub count
    /// (see the module docs for why that covers most stationary mass on
    /// power-law instances).
    pub fn over(inner: GeneratedGraph) -> Self {
        HubCacheBuilder::new().build(inner)
    }

    /// Caches exactly the top `k` vertices by stub count (clamped to `n`).
    /// `k = 0` is the pure hashed backend; `k = n` materializes every list.
    pub fn with_hub_count(inner: GeneratedGraph, k: usize) -> Self {
        HubCacheBuilder::new().hub_count(k).build(inner)
    }

    /// The wrapped hashed backend.
    pub fn inner(&self) -> &GeneratedGraph {
        &self.inner
    }

    /// Unwraps back to the hashed backend, dropping the cache.
    pub fn into_inner(self) -> GeneratedGraph {
        self.inner
    }

    /// How many vertices are cached.
    pub fn hub_count(&self) -> usize {
        self.hub_offsets.len() - 1
    }

    /// Whether `u`'s neighbor list is answered from the cache.
    pub fn is_hub(&self, u: VertexId) -> bool {
        self.hub_slot(u).is_some()
    }

    /// Bytes held by the cache itself (membership bitmap and rank, offsets,
    /// packed adjacency), on top of the inner backend's footprint.
    pub fn cache_bytes(&self) -> usize {
        (self.hub_bits.capacity() + self.hub_adj.words.capacity()) * std::mem::size_of::<u64>()
            + (self.hub_rank.capacity() + self.hub_offsets.capacity()) * std::mem::size_of::<u32>()
    }

    /// The fraction of stationary probability mass the cache absorbs —
    /// i.e. the expected hub-hit rate of a stationary agent's neighbor
    /// draws: `Σ deg(hub) / 2m`. `0.0` on edgeless graphs.
    pub fn hub_hit_fraction(&self) -> f64 {
        let total = self.inner.total_degree();
        if total == 0 {
            return 0.0;
        }
        f64::from(*self.hub_offsets.last().expect("offsets never empty")) / total as f64
    }

    /// The cache slot of `u`, or `None` for tail vertices (and ids past
    /// `n`): one membership-bit test, then a rank lookup and a popcount.
    #[inline]
    fn hub_slot(&self, u: VertexId) -> Option<usize> {
        let word = *self.hub_bits.get(u >> 6)?;
        let bit = 1u64 << (u & 63);
        if word & bit == 0 {
            return None;
        }
        Some(self.hub_rank[u >> 6] as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// The packed entry range of hub slot `h`.
    #[inline]
    fn hub_span(&self, h: usize) -> std::ops::Range<usize> {
        self.hub_offsets[h] as usize..self.hub_offsets[h + 1] as usize
    }

    /// The `i`-th neighbor of `u` in ascending order — identical to the
    /// inner backend's [`GeneratedGraph::nth_neighbor`], read from the
    /// cache when `u` is a hub.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    pub fn nth_neighbor(&self, u: VertexId, i: usize) -> VertexId {
        match self.hub_slot(u) {
            Some(h) => {
                let span = self.hub_span(h);
                assert!(i < span.len(), "neighbor index {i} out of range at {u}");
                self.hub_adj.get(span.start + i) as VertexId
            }
            None => self.inner.nth_neighbor(u, i),
        }
    }

    /// Whether `(u, v)` is an edge — `O(log deg)` against a cached list
    /// when either endpoint is a hub, the inner `O(deg)` derivation
    /// otherwise. Agrees with [`GeneratedGraph::contains_edge`] everywhere.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        let n = self.inner.num_vertices();
        if u == v || u >= n || v >= n {
            return false;
        }
        for (a, b) in [(u, v), (v, u)] {
            if let Some(h) = self.hub_slot(a) {
                // Binary search of the packed sorted list.
                let span = self.hub_span(h);
                let (mut lo, mut hi) = (span.start, span.end);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    match (self.hub_adj.get(mid) as VertexId).cmp(&b) {
                        std::cmp::Ordering::Less => lo = mid + 1,
                        std::cmp::Ordering::Equal => return true,
                        std::cmp::Ordering::Greater => hi = mid,
                    }
                }
                return false;
            }
        }
        self.inner.contains_edge(u, v)
    }
}

impl Topology for HubCachedGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        self.inner.degree(u)
    }

    fn for_each_neighbor(&self, u: VertexId, mut f: impl FnMut(VertexId)) {
        match self.hub_slot(u) {
            Some(h) => {
                for e in self.hub_span(h) {
                    f(self.hub_adj.get(e) as VertexId);
                }
            }
            None => self.inner.for_each_neighbor(u, f),
        }
    }

    #[inline]
    fn random_neighbor<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> Option<VertexId> {
        let d = self.degree(u);
        if d == 0 {
            return None;
        }
        let i = sample_index(index_word(d), rng);
        Some(self.nth_neighbor(u, i as usize))
    }

    #[inline]
    fn random_neighbor_nonisolated<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> VertexId {
        let d = self.degree(u);
        assert!(d != 0, "random_neighbor_nonisolated on isolated vertex {u}");
        let i = sample_index(index_word(d), rng);
        self.nth_neighbor(u, i as usize)
    }

    #[inline]
    fn random_neighbor_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<VertexId> {
        let d = self.degree(u);
        if d == 0 {
            return None;
        }
        if d == 1 {
            // Forced outcome; the unused draw is never computed — matching
            // the inner backend's stream consumption exactly.
            return Some(self.nth_neighbor(u, 0));
        }
        let mut rng = make_rng();
        let i = sample_index(index_word(d), &mut rng);
        Some(self.nth_neighbor(u, i as usize))
    }

    #[inline]
    fn sample_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> VertexId {
        self.inner.sample_stationary(rng)
    }

    #[inline]
    fn sample_stationary_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        out: &mut Vec<u32>,
    ) {
        self.inner.sample_stationary_into(count, rng, out);
    }

    fn is_bipartite(&self) -> bool {
        self.inner.is_bipartite()
    }

    fn regular_degree(&self) -> Option<usize> {
        self.inner.regular_degree()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.cache_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn chung_lu(n: usize, seed: u64) -> GeneratedGraph {
        GeneratedGraph::chung_lu(n, 2.5, 6.0, seed).unwrap()
    }

    /// Packs `values` through writers that start at each of `splits` (plus
    /// entry 0), as parallel fill workers would.
    fn pack(values: &[u32], width: u32, splits: &[usize]) -> PackedIds {
        let words: Vec<AtomicU64> = (0..PackedIds::word_count(values.len(), width))
            .map(|_| AtomicU64::new(0))
            .collect();
        let mut starts = vec![0];
        starts.extend_from_slice(splits);
        starts.push(values.len());
        for pair in starts.windows(2) {
            let mut out = PackedWriter::new(&words, width, pair[0]);
            for &v in &values[pair[0]..pair[1]] {
                out.push(v);
            }
            out.finish();
        }
        PackedIds {
            width,
            words: words.into_iter().map(AtomicU64::into_inner).collect(),
        }
    }

    /// Bytes of the packed adjacency, padding word included.
    fn packed_bytes(entries: usize, width: u32) -> usize {
        PackedIds::word_count(entries, width) * 8
    }

    /// The selection this module used before the stub-count histogram:
    /// sort a copy of the counts for the budget prefix, select the k-th
    /// largest, then sweep.
    fn select_hubs_by_sort(
        inner: &GeneratedGraph,
        k_limit: Option<usize>,
        entry_budget: Option<u64>,
    ) -> Vec<u32> {
        let n = inner.num_vertices();
        let mut sorted: Vec<u32> = (0..n).map(|u| inner.stub_degree(u) as u32).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let k_budget = match entry_budget {
            None => n,
            Some(budget) => {
                let mut acc = 0u64;
                sorted
                    .iter()
                    .take_while(|&&c| {
                        acc += u64::from(c);
                        acc <= budget
                    })
                    .count()
            }
        };
        let k = k_limit.unwrap_or(n).min(k_budget).min(n);
        if k == 0 {
            return Vec::new();
        }
        let threshold = sorted[k - 1];
        let greater = sorted.iter().filter(|&&c| c > threshold).count();
        let mut ties_left = k - greater;
        (0..n as u32)
            .filter(|&u| {
                let c = inner.stub_degree(u as usize) as u32;
                let take = c > threshold || (c == threshold && ties_left > 0);
                if take && c == threshold {
                    ties_left -= 1;
                }
                take
            })
            .collect()
    }

    #[test]
    fn packed_entries_round_trip_at_every_width() {
        for width in 1..=32u32 {
            let max = u32::MAX >> (32 - width);
            // Lengths cover one entry, a single word, exact word fills
            // (64 entries end on a word boundary, so the last read touches
            // the padding word) and entries straddling words.
            for len in [1usize, 3, 63, 64, 65, 200] {
                let values: Vec<u32> = (0..len)
                    .map(|e| match e % 4 {
                        0 => max,
                        1 => 0,
                        2 => (e as u32).wrapping_mul(0x9E37_79B9) & max,
                        _ => max ^ (max >> 1),
                    })
                    .collect();
                let packed = pack(&values, width, &[]);
                assert_eq!(packed.words.len(), PackedIds::word_count(len, width));
                assert_eq!(*packed.words.last().unwrap(), 0, "padding word stays zero");
                for (e, &v) in values.iter().enumerate() {
                    assert_eq!(packed.get(e), v, "width {width}, len {len}, entry {e}");
                }
                // Writers splitting the stream anywhere share boundary
                // words and still produce the same bits.
                for split in 1..len {
                    assert_eq!(
                        pack(&values, width, &[split]).words,
                        packed.words,
                        "width {width}, len {len}, split {split}"
                    );
                }
            }
            let all_ones = vec![max; 97];
            let packed = pack(&all_ones, width, &[5, 40, 41]);
            assert!((0..97).all(|e| packed.get(e) == max), "all ones at {width}");
        }
    }

    #[test]
    fn id_width_covers_every_vertex_id() {
        assert_eq!(id_width(0), 1);
        assert_eq!(id_width(1), 1);
        assert_eq!(id_width(2), 1);
        assert_eq!(id_width(3), 2);
        for k in 1..32 {
            assert_eq!(id_width(1 << k), k);
            assert_eq!(id_width((1 << k) + 1), k + 1);
        }
        assert_eq!(id_width(u32::MAX as usize + 1), 32);
    }

    #[test]
    fn histogram_selection_matches_sort_based_selection() {
        let graphs = [
            chung_lu(3_000, 11),
            GeneratedGraph::chung_lu(2_000, 2.1, 12.0, 4).unwrap(),
            GeneratedGraph::gnp(1_500, 0.004, 9).unwrap(),
            GeneratedGraph::gnp(700, 0.0, 2).unwrap(),
        ];
        for inner in &graphs {
            let n = inner.num_vertices();
            let total = inner.total_degree() as u64;
            let budgets = [
                None,
                Some(0),
                Some(1),
                Some(37),
                Some(total / 7),
                Some(total),
                Some(u64::MAX / 2),
            ];
            let limits = [None, Some(0), Some(1), Some(n / 10), Some(n), Some(n + 5)];
            for budget in budgets {
                for limit in limits {
                    assert_eq!(
                        select_hubs(inner, limit, budget),
                        select_hubs_by_sort(inner, limit, budget),
                        "n {n}, limit {limit:?}, budget {budget:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hub_selection_takes_top_k_by_stub_count_with_low_id_ties() {
        let inner = chung_lu(400, 3);
        let k = 25;
        let cached = HubCachedGraph::with_hub_count(inner.clone(), k);
        assert_eq!(cached.hub_count(), k);
        // Every cached vertex's stub count is >= every uncached vertex's,
        // and among equal counts the cached ids are the smallest.
        let min_cached = (0..400)
            .filter(|&u| cached.is_hub(u))
            .map(|u| inner.stub_degree(u))
            .min()
            .unwrap();
        for u in 0..400 {
            if !cached.is_hub(u) {
                let c = inner.stub_degree(u);
                assert!(c <= min_cached, "uncached {u} outranks a hub");
                if c == min_cached {
                    let larger_tie_cached =
                        (0..u).any(|v| !cached.is_hub(v) && inner.stub_degree(v) == min_cached);
                    assert!(
                        !larger_tie_cached || !cached.is_hub(u),
                        "tie-break must prefer lower ids"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_lists_equal_inner_lists_everywhere() {
        let small = chung_lu(500, 7);
        // Over 3 × PAR_FILL_FLOOR entries when fully cached, so that fill
        // runs one worker per configured thread, up to 3 — CI runs this
        // suite at RUMOR_THREADS=1 and 3.
        let large = chung_lu(12_000, 10);
        assert!(large.total_degree() > 3 * PAR_FILL_FLOOR);
        let cases = [0usize, 1, 13, 100, 500, 5000].map(|k| (&small, k));
        for (inner, k) in cases.into_iter().chain([(&large, 12_000)]) {
            let n = inner.num_vertices();
            let cached = HubCachedGraph::with_hub_count(inner.clone(), k);
            assert_eq!(cached.hub_count(), k.min(n));
            for u in 0..n {
                assert_eq!(cached.degree(u), inner.degree(u));
                let mut a = Vec::new();
                cached.for_each_neighbor(u, |v| a.push(v));
                let mut b = Vec::new();
                inner.for_each_neighbor(u, |v| b.push(v));
                assert_eq!(a, b, "neighbor list diverged at {u} (n={n}, k={k})");
            }
        }
    }

    #[test]
    fn draw_streams_are_bit_identical_to_the_inner_backend() {
        let inner = chung_lu(300, 1);
        let cached = HubCachedGraph::with_hub_count(inner.clone(), 40);
        for u in 0..300 {
            let mut a = StdRng::seed_from_u64(u as u64);
            let mut b = a.clone();
            for _ in 0..20 {
                assert_eq!(
                    cached.random_neighbor(u, &mut a),
                    inner.random_neighbor(u, &mut b)
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "stream position at {u}");
        }
        let mut a = StdRng::seed_from_u64(9);
        let mut b = a.clone();
        for _ in 0..500 {
            assert_eq!(
                cached.sample_stationary(&mut a),
                inner.sample_stationary(&mut b)
            );
        }
    }

    #[test]
    fn membership_agrees_with_the_inner_backend() {
        let inner = chung_lu(120, 5);
        let cached = HubCachedGraph::with_hub_count(inner.clone(), 12);
        for u in 0..120 {
            for v in 0..120 {
                assert_eq!(
                    cached.contains_edge(u, v),
                    inner.contains_edge(u, v),
                    "membership ({u}, {v})"
                );
            }
        }
        assert!(!cached.contains_edge(0, 120));
        assert!(!cached.contains_edge(120, 0));
        assert!(!cached.is_hub(120) && !cached.is_hub(usize::MAX));
    }

    #[test]
    fn budget_builder_respects_the_byte_ceiling() {
        let inner = chung_lu(1000, 2);
        let budget = 2 << 10; // 2 KiB of packed 10-bit entries = 1,632 entries
        let cached = HubCacheBuilder::new()
            .cache_budget_bytes(budget)
            .build(inner.clone());
        assert!(cached.hub_count() > 0, "2 KiB must afford some hubs");
        let adj_bytes = cached.hub_adj.words.len() * std::mem::size_of::<u64>();
        assert_eq!(
            adj_bytes,
            packed_bytes(cached.hub_offsets[cached.hub_count()] as usize, 10)
        );
        assert!(
            adj_bytes <= budget,
            "cached adjacency {adj_bytes} bytes exceeds the {budget} budget"
        );
        // Adding a count limit takes the smaller cache.
        let both = HubCacheBuilder::new()
            .cache_budget_bytes(budget)
            .hub_count(3)
            .build(inner);
        assert_eq!(both.hub_count(), 3);
    }

    #[test]
    fn budget_takes_the_largest_fitting_prefix_at_width_boundaries() {
        for n in [2usize, 64, 256, 257, 1024, 1025] {
            let inner = GeneratedGraph::gnp(n, (8.0 / n as f64).min(1.0), n as u64).unwrap();
            let width = id_width(n);
            // Stub counts in selection order: descending, ties by id.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&u| std::cmp::Reverse(inner.stub_degree(u)));
            let prefix_stubs = |k: usize| {
                order[..k]
                    .iter()
                    .map(|&u| inner.stub_degree(u))
                    .sum::<usize>()
            };
            let mut budgets = vec![0, 7, 8, 15, 16];
            for k in [1, n / 3, n] {
                let exact = packed_bytes(prefix_stubs(k), width);
                budgets.extend([exact.saturating_sub(1), exact, exact + 1]);
            }
            for budget in budgets {
                let cached = HubCacheBuilder::new()
                    .cache_budget_bytes(budget)
                    .build(inner.clone());
                let k = cached.hub_count();
                let bytes = cached.hub_adj.words.len() * 8;
                assert!(
                    bytes <= budget,
                    "n {n}: {bytes} bytes over the {budget} budget"
                );
                assert!(
                    packed_bytes(prefix_stubs(k), width) <= budget,
                    "n {n}: top-{k} stubs overflow the {budget} budget"
                );
                if k < n {
                    assert!(
                        packed_bytes(prefix_stubs(k + 1), width) > budget,
                        "n {n}: top-{} also fits the {budget} budget",
                        k + 1
                    );
                }
                for u in 0..n {
                    let mut a = Vec::new();
                    cached.for_each_neighbor(u, |v| a.push(v));
                    let mut b = Vec::new();
                    inner.for_each_neighbor(u, |v| b.push(v));
                    assert_eq!(a, b, "n {n}, budget {budget}, vertex {u}");
                }
            }
        }
    }

    #[test]
    fn default_policy_caches_a_64th_of_the_graph() {
        let inner = chung_lu(640, 4);
        let cached = HubCachedGraph::over(inner);
        assert_eq!(cached.hub_count(), 10);
        assert!(cached.hub_hit_fraction() > 0.0);
        assert!(cached.cache_bytes() > 0);
        assert!(Topology::memory_bytes(&cached) > cached.inner().memory_bytes());
    }

    #[test]
    fn hub_hit_fraction_is_the_cached_stationary_mass() {
        let inner = chung_lu(500, 6);
        let cached = HubCachedGraph::with_hub_count(inner.clone(), 30);
        let cached_degree: usize = (0..500)
            .filter(|&u| cached.is_hub(u))
            .map(|u| inner.degree(u))
            .sum();
        let want = cached_degree as f64 / inner.total_degree() as f64;
        assert!((cached.hub_hit_fraction() - want).abs() < 1e-12);
        // Full cache absorbs everything; empty cache nothing.
        assert_eq!(
            HubCachedGraph::with_hub_count(inner.clone(), 500).hub_hit_fraction(),
            1.0
        );
        assert_eq!(
            HubCachedGraph::with_hub_count(inner, 0).hub_hit_fraction(),
            0.0
        );
    }

    #[test]
    fn fill_is_thread_invariant() {
        let inner = chung_lu(800, 8);
        let hub_ids = select_hubs(&inner, Some(200), None);
        let mut hub_offsets = vec![0u32];
        for &u in &hub_ids {
            hub_offsets.push(hub_offsets.last().unwrap() + inner.degree(u as usize) as u32);
        }
        let width = id_width(800);
        let reference = fill_cache(&inner, &hub_ids, &hub_offsets, width, 1);
        for workers in [2, 3, 5, 8, 200, 500] {
            let words = fill_cache(&inner, &hub_ids, &hub_offsets, width, workers).words;
            assert_eq!(words, reference.words, "{workers} workers");
        }
    }

    #[test]
    fn edgeless_graphs_degenerate_cleanly() {
        let inner = GeneratedGraph::gnp(50, 0.0, 1).unwrap();
        let cached = HubCachedGraph::over(inner);
        assert_eq!(cached.hub_hit_fraction(), 0.0);
        assert_eq!(cached.degree(0), 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(cached.random_neighbor(0, &mut rng), None);
    }
}
