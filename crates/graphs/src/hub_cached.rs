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
//! (`GeneratedGraph`'s block kernel, a batch of hubs per run) and stores it
//! as an **Elias–Fano list**. For `d` ids below `n`, each id keeps its low
//! `l = ⌊log₂(n/d)⌋` bits in a fixed-width array, and its high bits go in
//! unary: entry `i` sets bit `(id >> l) + i` of an upper bit array. A select
//! sample every 64 entries (entry `64j`'s high bits) bounds the search for
//! entry `i`'s one to a word or two, found by broadword select — so entry
//! `i` is `O(1)`. Lists are byte-aligned behind `u32` byte offsets, and `l`
//! and every region length follow from `n` and `d`, so a list carries no
//! header. Hub membership is a bitmap with a per-word rank prefix, so a
//! vertex's cache slot is an `O(1)` popcount rather than a search.
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
//!   cached lists are produced by the hashed path's own list kernel, whose
//!   entries its draws return — a hub hit and a hash miss return the same
//!   vertex.
//!
//! `k = 0` degenerates to the pure hashed backend and `k = n` to a fully
//! materialized adjacency, both bit-identical to each other — pinned by
//! the property suite in `tests/generated_properties.rs` and the
//! differential grids in `tests/generated_equivalence.rs`.
//!
//! # Cost model
//!
//! A list of `d` ids spends `d·l` lower bits, `d + ⌊(n − 1)/2^l⌋` upper
//! bits (between `2d` and `3d`) and `⌈d/64⌉` samples of `⌈log₂ n⌉ − l`
//! bits, rounded up to a whole byte: about `⌊log₂(n/d)⌋ + 2.5` bits per
//! entry, where a fixed-width array spends `⌈log₂ n⌉`. A non-empty cache
//! adds `12·⌈n/64⌉` bytes of membership bitmap and rank, `4·(k + 1)` bytes
//! of offsets and 7 bytes of read padding to the inner backend's `≈ 8n`.
//! The budget builder charges all of it, pricing each list at its stub
//! count (the size grows with `d`, and a stub count bounds the simple
//! degree), so [`HubCachedGraph::cache_bytes`] never exceeds the budget.
//! Queries on cached vertices cost an `O(1)` bitmap probe and popcount plus
//! two field reads and a select instead of `O(deg)` pairing evaluations;
//! tail vertices take the same bitmap probe and continue on the hashed
//! path unchanged. A block of draws ([`Topology::resolve_block`]) resolves
//! all of its misses in one call of the inner backend's block kernel, so
//! their derivations overlap, and its hits stage by stage, so their loads
//! overlap too: a hit is a chain of dependent loads (membership word, list
//! offset, then the entry's lower-half, sample and upper-bit lines), each
//! likely a cache miss under stationary walks. The win is
//! workload-dependent: agent walks
//! (visit/meet-exchange) spend most draws on hubs and speed up by the
//! cached fraction of stationary mass ([`HubCachedGraph::hub_hit_fraction`]);
//! vertex protocols (push/pull) query every vertex equally often and gain
//! little. On perfbench's `chunglu-hub` graph (n = 2·10⁵, β = 2.5, budget
//! a quarter of the CSR-equivalent bytes) the budget buys 60,922 hubs at
//! hit fraction 0.68, where fixed-width lists bought 42,327 at 0.59 while
//! overrunning the budget. A miss there, a tail vertex of about six
//! stubs, almost always clean, takes the inner backend's draw path: in a
//! block of misses it costs about 380 TSC cycles (190 ns) of kernel work,
//! one owner search among them, where deriving, sorting and indexing its
//! whole list cost about 630 (the inner backend's cost model has the stage
//! split). A hit costs a few tens of nanoseconds when its list is already
//! cached, but in blocks of stationary draws, where it seldom is, it cost
//! about 100–170 ns when each hit ran its chain alone and costs about half
//! that staged (README has the measured figures).
//! `BENCH_random.json` records the measured speedups.
//!
//! Lists are addressed by `u32` byte offsets, so the lists of one cache
//! total at most 4 GiB: selection stops at the longest prefix within that,
//! even under an explicit hub count.

use std::ops::Range;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::generated::{configured_threads, equal_shares, GeneratedGraph};
use crate::graph::{index_word, prefetch, sample_index, VertexId};
use crate::topology::{Deferred, DeferredNeighbor, DrawBlock, Topology};

/// Fallback hub count when the builder gets neither a count nor a budget:
/// one cached vertex per this many graph vertices. On Chung–Lu exponents in
/// `(2, 3]` the top `n/64` vertices carry most of the stationary mass while
/// their adjacency stays well below the inner backend's own table
/// footprint.
const DEFAULT_HUB_DIVISOR: usize = 64;

/// Parallel cache fills below this many total adjacency entries stay on one
/// worker (mirrors the generated backend's per-worker chunk floor).
const PAR_FILL_FLOOR: usize = 16_384;

/// Zero bytes after the last list, so that every read can load eight bytes.
const READ_PAD: usize = 7;

/// Bytes per hub of list offset.
const OFFSET_BYTES: u64 = 4;

/// Bytes per 64 vertices of membership bitmap (8) and rank prefix (4).
const MEMBERSHIP_BYTES: u64 = 12;

/// A hub-cached hybrid over [`GeneratedGraph`]: exact Elias–Fano adjacency
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
    /// `hub_offsets[h]..hub_offsets[h + 1]` brackets the bytes of the list
    /// of the hub in slot `h` (slots ascend with vertex id). It, the two
    /// tables above and `lists` are all empty when no vertex is cached.
    hub_offsets: Vec<u32>,
    /// The concatenated Elias–Fano lists (see [`Shape`]), then
    /// [`READ_PAD`] zero bytes.
    lists: Vec<u8>,
    /// `Σ deg(hub)`: how many entries the lists hold.
    entries: usize,
}

/// The layout of one Elias–Fano list of `len` ascending ids below `n`, a
/// pure function of the two: `len` lower halves of `low` bits, then one
/// `high`-bit select sample per 64 entries (entry `64j`'s upper half), then
/// the upper bits, where entry `i` sets bit `(id >> low) + i`.
#[derive(Debug, Clone, Copy)]
struct Shape {
    len: usize,
    low: u32,
    high: u32,
}

impl Shape {
    /// `low = ⌊log₂(n/len)⌋` (0 once `len ≥ n`) from bit lengths, without a
    /// division; `high` is the bit length of the largest upper half,
    /// `(n − 1) >> low`. `len` must be positive.
    #[inline]
    fn new(n: usize, len: usize) -> Self {
        // ⌊log₂ n⌋ − ⌊log₂ len⌋, less one when n/len falls short of that
        // power of two.
        let t = len.leading_zeros().saturating_sub(n.leading_zeros());
        let low = t.saturating_sub(u32::from(n < len << t));
        Shape {
            len,
            low,
            high: id_width(n).saturating_sub(low),
        }
    }

    /// Bit offset of the select samples from the list start.
    #[inline]
    fn samples(&self) -> usize {
        self.len * self.low as usize
    }

    /// Bit offset of the upper bits from the list start.
    #[inline]
    fn upper(&self) -> usize {
        self.samples() + self.len.div_ceil(64) * self.high as usize
    }

    /// Bytes a list of `len` ids below `n` occupies (0 when empty). Never
    /// decreases as `len` grows, so a stub count prices the list of any
    /// simple degree at or below it.
    fn bytes(n: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let shape = Shape::new(n, len);
        (shape.upper() + len + ((n - 1) >> shape.low)).div_ceil(8)
    }
}

/// Bits for a vertex id of an `n`-vertex graph: `max(1, ⌈log₂ n⌉)`.
fn id_width(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// The bits of `bytes` from bit `bit` on, in the low end of the word: 57
/// to 64 of them (those past the eight loaded bytes read as zero).
#[inline]
fn load(bytes: &[u8], bit: usize) -> u64 {
    let at = bit >> 3;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes")) >> (bit & 7)
}

/// Starts loading the line holding bit `bit` of `bytes`.
#[inline(always)]
fn prefetch_bit(bytes: &[u8], bit: usize) {
    prefetch(bytes.as_ptr().wrapping_add(bit >> 3));
}

/// The `width`-bit field at bit `bit` (`width ≤ 57`).
#[inline]
fn field(bytes: &[u8], bit: usize, width: u32) -> u64 {
    load(bytes, bit) & ((1u64 << width) - 1)
}

/// `SELECT_IN_BYTE[256·r + b]`: the position of the one of rank `r` in
/// byte `b`.
const SELECT_IN_BYTE: [u8; 2048] = {
    let mut table = [0u8; 2048];
    let mut byte = 0;
    while byte < 256 {
        let (mut rank, mut bit) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[rank * 256 + byte] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The position of `word`'s one of rank `rank` (0-based), or, when `word`
/// holds `rank` ones or fewer, `Err` with its popcount. Broadword select:
/// byte popcounts and their running sums in SWAR, all eight sums compared
/// against `rank` at once, then a table lookup inside the chosen byte.
#[inline]
fn select(word: u64, rank: u32) -> Result<u32, u32> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte b of `sums` counts the ones in bytes 0..=b.
    let sums = s.wrapping_mul(ONES);
    let total = (sums >> 56) as u32;
    if rank >= total {
        return Err(total);
    }
    // The high bit of every byte whose running sum is at most `rank`: those
    // bytes lie wholly below the target one.
    let below = (((u64::from(rank) * ONES) | HIGHS) - sums) & HIGHS;
    let shift = (((below >> 7).wrapping_mul(ONES) >> 56) * 8) as u32;
    let before = ((sums << 8) >> shift) as u32 & 0xFF;
    let byte = (word >> shift) as usize & 0xFF;
    Ok(shift + u32::from(SELECT_IN_BYTE[(rank - before) as usize * 256 + byte]))
}

/// One encoded list: its bytes start at byte `start` of `bytes`.
#[derive(Clone, Copy)]
struct List<'a> {
    bytes: &'a [u8],
    start: usize,
    shape: Shape,
}

impl List<'_> {
    /// Entry `i` (`i < len`): the lower half read in place, the upper half
    /// by selecting entry `i`'s one, searched from its block's sample.
    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.get_from(i, self.search_start(i))
    }

    /// Bit offset of entry `i`'s lower half.
    #[inline]
    fn lower_bit(&self, i: usize) -> usize {
        (self.start << 3) + i * self.shape.low as usize
    }

    /// Bit offset of the select sample of entry `i`'s 64-entry block.
    #[inline]
    fn sample_bit(&self, i: usize) -> usize {
        (self.start << 3) + self.shape.samples() + (i >> 6) * self.shape.high as usize
    }

    /// Bit offset of the one of entry `64·⌊i/64⌋`, where the search for
    /// entry `i`'s one starts: past that entry's upper half in zeros and
    /// `64·⌊i/64⌋` earlier ones. Reads the block's select sample.
    #[inline]
    fn search_start(&self, i: usize) -> usize {
        let sample = field(self.bytes, self.sample_bit(i), self.shape.high);
        (self.start << 3) + self.shape.upper() + sample as usize + (i & !63)
    }

    /// Entry `i`, its one searched from bit `at` ([`List::search_start`]).
    #[inline]
    fn get_from(&self, i: usize, mut at: usize) -> u32 {
        let low = self.shape.low;
        let lower = field(self.bytes, self.lower_bit(i), low);
        let upper = (self.start << 3) + self.shape.upper();
        let mut rank = (i & 63) as u32;
        loop {
            match select(load(self.bytes, at), rank) {
                Ok(offset) => {
                    let high_half = (at + offset as usize - upper - i) as u64;
                    return (high_half << low | lower) as u32;
                }
                Err(ones) => {
                    rank -= ones;
                    // The load ended on a byte boundary; resume there.
                    at += 64 - (at & 7);
                }
            }
        }
    }

    /// Every entry in order, decoding the upper bits one word at a time.
    fn for_each(&self, mut f: impl FnMut(u32)) {
        let low = self.shape.low;
        let base = self.start << 3;
        let upper = base + self.shape.upper();
        let (mut at, mut word) = (upper, load(self.bytes, upper));
        for i in 0..self.shape.len {
            while word == 0 {
                at += 64 - (at & 7);
                word = load(self.bytes, at);
            }
            let high_half = (at + word.trailing_zeros() as usize - upper - i) as u64;
            word &= word - 1;
            f((high_half << low | field(self.bytes, base + i * low as usize, low)) as u32);
        }
    }

    /// Whether the list holds `id`: a binary search over [`List::get`].
    fn contains(&self, id: u32) -> bool {
        let (mut lo, mut hi) = (0, self.shape.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(&id) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        false
    }
}

/// Writes the ascending list `ids` (all below `n`) into `out`, which holds
/// exactly `Shape::bytes(n, ids.len())` zero bytes. `words` is scratch.
fn encode(ids: &[u32], n: usize, out: &mut [u8], words: &mut Vec<u64>) {
    debug_assert_eq!(out.len(), Shape::bytes(n, ids.len()));
    if ids.is_empty() {
        return;
    }
    fn put(words: &mut [u64], bit: usize, value: u64, width: u32) {
        let (i, shift) = (bit >> 6, bit & 63);
        if width > 0 {
            words[i] |= value << shift;
            if shift + width as usize > 64 {
                words[i + 1] |= value >> (64 - shift);
            }
        }
    }
    let shape = Shape::new(n, ids.len());
    let (low, high) = (shape.low, shape.high);
    words.clear();
    words.resize(out.len().div_ceil(8), 0);
    for (i, &id) in ids.iter().enumerate() {
        debug_assert!((id as usize) < n && (i == 0 || ids[i - 1] < id));
        let id = u64::from(id);
        put(words, i * low as usize, id & ((1 << low) - 1), low);
        if i & 63 == 0 {
            put(
                words,
                shape.samples() + (i >> 6) * high as usize,
                id >> low,
                high,
            );
        }
        let bit = shape.upper() + (id >> low) as usize + i;
        words[bit >> 6] |= 1 << (bit & 63);
    }
    for (chunk, word) in out.chunks_mut(8).zip(words.iter()) {
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
    }
}

/// A cache hit of a block being resolved, carried from stage to stage of
/// [`HubCachedGraph`]'s `resolve_block`: output slot `slot` takes entry
/// `index` of a list of `len` ids, whose hub slot `list` holds until the
/// list's start byte replaces it; `at` is where the search for the entry's
/// one starts ([`List::search_start`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedHit {
    slot: u32,
    index: u32,
    len: u32,
    list: u32,
    at: usize,
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
/// // The budget is a ceiling on everything the cache holds.
/// assert!(cached.cache_bytes() <= 64 << 10);
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

    /// Caps everything [`HubCachedGraph::cache_bytes`] reports at `bytes`.
    /// A non-empty cache pays `12·⌈n/64⌉` bytes of membership bitmap and
    /// rank, 4 bytes of offset per hub and one more, and 7 bytes of read
    /// padding; each hub's list costs its Elias–Fano size, about
    /// `⌊log₂(n/d)⌋ + 2.5` bits per entry rounded up to a byte. Lists are
    /// priced at pre-erasure stub counts, which bound the simple degrees,
    /// so the realized cache never exceeds the budget; one too small for
    /// the bitmap and a first hub leaves the cache empty, at 0 bytes.
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
        let hub_ids = select_hubs(&inner, self.hub_count.or(default_k), self.budget_bytes);
        if hub_ids.is_empty() {
            return HubCachedGraph {
                inner,
                hub_bits: Vec::new(),
                hub_rank: Vec::new(),
                hub_offsets: Vec::new(),
                lists: Vec::new(),
                entries: 0,
            };
        }

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
        let (mut end, mut entries) = (0usize, 0usize);
        for &u in &hub_ids {
            let d = inner.degree(u as usize);
            entries += d;
            end += Shape::bytes(n, d);
            hub_offsets.push(
                u32::try_from(end).expect("selection keeps the lists within u32 byte offsets"),
            );
        }
        let workers = configured_threads()
            .min(hub_ids.len())
            .min(entries.div_ceil(PAR_FILL_FLOOR))
            .max(1);
        let lists = fill_cache(&inner, &hub_ids, &hub_offsets, workers);
        HubCachedGraph {
            inner,
            hub_bits,
            hub_rank,
            hub_offsets,
            lists,
            entries,
        }
    }
}

/// What a non-empty cache over `n` vertices pays besides its hubs' lists
/// and offsets: membership bitmap and rank, the leading offset and the read
/// padding.
fn fixed_bytes(n: usize) -> u64 {
    MEMBERSHIP_BYTES * n.div_ceil(64) as u64 + OFFSET_BYTES + READ_PAD as u64
}

/// Picks the hub set: the top-k vertices by stub count, ties broken toward
/// lower ids, `k` capped by `k_limit` and by the longest prefix of that
/// order whose cost — [`fixed_bytes`], plus per hub its offset and its list
/// priced at the stub count — fits `budget`, and whose lists fit `u32`
/// byte offsets. Returns the ascending hub ids. One histogram of stub
/// counts, walked from the largest count down, finds both the budget prefix
/// and the weakest hub's count.
fn select_hubs(inner: &GeneratedGraph, k_limit: Option<usize>, budget: Option<usize>) -> Vec<u32> {
    let n = inner.num_vertices();
    let mut hist: Vec<usize> = Vec::new();
    for u in 0..n {
        let c = inner.stub_degree(u);
        if c >= hist.len() {
            hist.resize(c + 1, 0);
        }
        hist[c] += 1;
    }
    // Whole count levels while they fit; the first level that does not fit
    // contributes as many vertices as still fit, and ends the prefix.
    let mut k_fit = 0usize;
    let left = budget.map_or(Some(u64::MAX), |b| (b as u64).checked_sub(fixed_bytes(n)));
    if let Some(mut left) = left {
        let mut lists_left = u64::from(u32::MAX);
        for (c, &count) in hist.iter().enumerate().rev() {
            let list = Shape::bytes(n, c) as u64;
            let fits = (left / (list + OFFSET_BYTES))
                .min(lists_left / list.max(1))
                .min(count as u64);
            k_fit += fits as usize;
            left -= fits * (list + OFFSET_BYTES);
            lists_left -= fits * list;
            if fits < count as u64 {
                break;
            }
        }
    }
    let k = k_limit.unwrap_or(n).min(k_fit).min(n);
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

/// Materializes every hub's exact sorted neighbor list into one byte
/// array, splitting the hub range across `workers` scoped threads at equal
/// shares of the bytes (so one giant hub cannot serialize the pass behind
/// it). Each worker derives its hubs' lists in list-kernel runs of many
/// hubs.
fn fill_cache(
    inner: &GeneratedGraph,
    hub_ids: &[u32],
    hub_offsets: &[u32],
    workers: usize,
) -> Vec<u8> {
    fill_lists(
        inner.num_vertices(),
        hub_offsets,
        &equal_shares(hub_offsets, workers),
        |hubs, emit| {
            let first = hubs.start;
            inner.for_each_list(&hub_ids[hubs], |k, list| emit(first + k, list));
        },
    )
}

/// Encodes lists `0..offsets.len() − 1` into their byte ranges
/// `offsets[h]..offsets[h + 1]`, one scoped worker per range of
/// `bounds`. `lists(range, emit)` calls `emit(h, list)` with list `h` for
/// every `h` of `range`, in order. Lists are byte-aligned, so workers
/// write disjoint slices and the bytes do not depend on where `bounds`
/// cut.
fn fill_lists(
    n: usize,
    offsets: &[u32],
    bounds: &[usize],
    lists: impl Fn(Range<usize>, &mut dyn FnMut(usize, &[u32])) + Sync,
) -> Vec<u8> {
    let total = *offsets.last().expect("offsets never empty") as usize;
    let mut bytes = vec![0u8; total + READ_PAD];
    std::thread::scope(|scope| {
        let mut rest = &mut bytes[..total];
        for range in bounds.windows(2).map(|b| b[0]..b[1]) {
            let first = offsets[range.start];
            let len = (offsets[range.end] - first) as usize;
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            let lists = &lists;
            scope.spawn(move || {
                let mut words = Vec::new();
                lists(range, &mut |h, ids| {
                    let span = (offsets[h] - first) as usize..(offsets[h + 1] - first) as usize;
                    encode(ids, n, &mut chunk[span], &mut words);
                });
            });
        }
    });
    bytes
}

impl HubCachedGraph {
    /// The default policy: caches the top `n / 64` vertices by stub count
    /// (see the module docs for why that covers most stationary mass on
    /// power-law instances).
    pub fn over(inner: GeneratedGraph) -> Self {
        HubCacheBuilder::new().build(inner)
    }

    /// Caches exactly the top `k` vertices by stub count (clamped to `n`,
    /// and to the 4 GiB list limit in the module docs). `k = 0` is the
    /// pure hashed backend; `k = n` materializes every list.
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
        self.hub_offsets.len().saturating_sub(1)
    }

    /// Whether `u`'s neighbor list is answered from the cache.
    pub fn is_hub(&self, u: VertexId) -> bool {
        self.hub_slot(u).is_some()
    }

    /// Bytes held by the cache itself (membership bitmap and rank, offsets,
    /// lists and read padding), on top of the inner backend's footprint; 0
    /// when no vertex is cached.
    pub fn cache_bytes(&self) -> usize {
        self.hub_bits.capacity() * std::mem::size_of::<u64>()
            + (self.hub_rank.capacity() + self.hub_offsets.capacity()) * std::mem::size_of::<u32>()
            + self.lists.capacity()
    }

    /// The fraction of stationary probability mass the cache absorbs —
    /// i.e. the expected hub-hit rate of a stationary agent's neighbor
    /// draws: `Σ deg(hub) / 2m`. `0.0` on edgeless graphs.
    pub fn hub_hit_fraction(&self) -> f64 {
        let total = self.inner.total_degree();
        if total == 0 {
            return 0.0;
        }
        self.entries as f64 / total as f64
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

    /// The list of hub slot `h`, whose vertex has degree `d ≥ 1`.
    #[inline]
    fn list(&self, h: usize, d: usize) -> List<'_> {
        List {
            bytes: &self.lists,
            start: self.hub_offsets[h] as usize,
            shape: Shape::new(self.inner.num_vertices(), d),
        }
    }

    /// The list of a staged hit whose start byte is known.
    #[inline]
    fn staged_list(&self, hit: &StagedHit) -> List<'_> {
        List {
            bytes: &self.lists,
            start: hit.list as usize,
            shape: Shape::new(self.inner.num_vertices(), hit.len as usize),
        }
    }

    /// The `i`-th neighbor of `u` in ascending order — identical to the
    /// inner backend's [`GeneratedGraph::nth_neighbor`], read from the
    /// cache when `u` is a hub.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    pub fn nth_neighbor(&self, u: VertexId, i: usize) -> VertexId {
        self.neighbor_at(u, self.degree(u), i)
    }

    /// [`HubCachedGraph::nth_neighbor`] for a caller that holds `d = deg(u)`.
    #[inline]
    fn neighbor_at(&self, u: VertexId, d: usize, i: usize) -> VertexId {
        match self.hub_slot(u) {
            Some(h) => {
                assert!(i < d, "neighbor index {i} out of range at {u}");
                self.list(h, d).get(i) as VertexId
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
                let d = self.degree(a);
                return d > 0 && self.list(h, d).contains(b as u32);
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
                let d = self.degree(u);
                if d > 0 {
                    self.list(h, d).for_each(|v| f(v as VertexId));
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
        Some(self.neighbor_at(u, d, i as usize))
    }

    #[inline]
    fn random_neighbor_nonisolated<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> VertexId {
        let d = self.degree(u);
        assert!(d != 0, "random_neighbor_nonisolated on isolated vertex {u}");
        let i = sample_index(index_word(d), rng);
        self.neighbor_at(u, d, i as usize)
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
            return Some(self.neighbor_at(u, d, 0));
        }
        let mut rng = make_rng();
        let i = sample_index(index_word(d), &mut rng);
        Some(self.neighbor_at(u, d, i as usize))
    }

    /// Like the inner backend: the block's misses reach its block kernel
    /// together.
    #[inline]
    fn defers_reads(&self) -> bool {
        true
    }

    /// Draws exactly like the inner backend and, like it, leaves reading
    /// the neighbor to [`Topology::resolve_block`].
    #[inline]
    fn draw_deferred<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> DeferredNeighbor {
        self.inner.draw_deferred(u, rng)
    }

    #[inline]
    fn draw_deferred_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<DeferredNeighbor> {
        self.inner.draw_deferred_with(u, make_rng)
    }

    fn resolve_deferred(&self, token: DeferredNeighbor) -> VertexId {
        match token.0 {
            Deferred::Draw { vertex, index } => self.nth_neighbor(vertex as usize, index as usize),
            _ => self.inner.resolve_deferred(token),
        }
    }

    /// Resolves the block's hits stage by stage, so that their dependent
    /// loads overlap across the block rather than queue behind one
    /// another: find every hit's slot and load its list offset; then each
    /// list's shape, loading the lines of the entry's lower half and select
    /// sample; then, while the block's misses run through the inner
    /// backend's block kernel together, read each sample and load the line
    /// where the entry's one is searched; then decode.
    fn resolve_block(&self, block: &mut DrawBlock) {
        let mut hits = std::mem::take(&mut block.hits);
        hits.clear();
        self.inner.queue_block(block, |slot, vertex, index| {
            let Some(h) = self.hub_slot(vertex as usize) else {
                return false;
            };
            prefetch(self.hub_offsets.as_ptr().wrapping_add(h));
            hits.push(StagedHit {
                slot: slot as u32,
                index,
                len: self.degree(vertex as usize) as u32,
                list: h as u32,
                at: 0,
            });
            true
        });
        for hit in &mut hits {
            hit.list = self.hub_offsets[hit.list as usize];
            let list = self.staged_list(hit);
            prefetch_bit(&self.lists, list.lower_bit(hit.index as usize));
            prefetch_bit(&self.lists, list.sample_bit(hit.index as usize));
        }
        for hit in &mut hits {
            hit.at = self.staged_list(hit).search_start(hit.index as usize);
            prefetch_bit(&self.lists, hit.at);
        }
        self.inner.resolve_queued(block);
        for hit in &hits {
            block.resolved[hit.slot as usize] =
                self.staged_list(hit).get_from(hit.index as usize, hit.at);
        }
        block.hits = hits;
    }

    /// Loads `u`'s degree offsets, which the draw reads, and its membership
    /// word and rank, which [`Topology::resolve_block`] reads.
    #[inline(always)]
    fn prefetch_sampler(&self, u: VertexId) {
        self.inner.prefetch_sampler(u);
        prefetch(self.hub_bits.as_ptr().wrapping_add(u >> 6));
        prefetch(self.hub_rank.as_ptr().wrapping_add(u >> 6));
    }

    /// Hubs' lists decode from the cache; the others go to the inner
    /// backend's block kernel, many per run.
    fn neighbor_lists(&self, vertices: &[u32], out: &mut [u32], block: &mut DrawBlock) -> bool {
        self.inner
            .lists_with(vertices, out, &mut block.scratch, |u, span| {
                let Some(h) = self.hub_slot(u as usize) else {
                    return false;
                };
                let mut at = 0;
                self.list(h, span.len()).for_each(|v| {
                    span[at] = v;
                    at += 1;
                });
                true
            });
        true
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

    /// Encodes `lists` back to back with one worker per range of `bounds`,
    /// returning the bytes and the offsets.
    fn fill(n: usize, lists: &[Vec<u32>], bounds: &[usize]) -> (Vec<u8>, Vec<u32>) {
        let mut offsets = vec![0u32];
        for ids in lists {
            offsets.push(offsets.last().unwrap() + Shape::bytes(n, ids.len()) as u32);
        }
        let bytes = fill_lists(n, &offsets, bounds, |range, emit| {
            for h in range {
                emit(h, &lists[h]);
            }
        });
        (bytes, offsets)
    }

    /// `len` distinct ascending ids below `n`: both ends of the range, a
    /// run of consecutive ids, and the rest at random.
    fn sample_ids(n: usize, len: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut ids = std::collections::BTreeSet::new();
        if len == 0 {
            return Vec::new();
        }
        if len == 1 {
            ids.insert(if rng.next_u64() & 1 == 0 { 0 } else { n - 1 });
        } else {
            ids.extend([0, n - 1]);
        }
        let run = len.saturating_sub(2) / 4;
        let from = rng.gen_range(0..n - run + 1);
        ids.extend(from..from + run);
        while ids.len() < len {
            ids.insert(rng.gen_range(0..n));
        }
        ids.into_iter().map(|id| id as u32).collect()
    }

    /// Random access, sequential decode and membership all read back `ids`.
    fn assert_round_trip(n: usize, ids: &[u32]) {
        let (bytes, offsets) = fill(n, &[ids.to_vec()], &[0, 1]);
        assert_eq!(bytes.len(), Shape::bytes(n, ids.len()) + READ_PAD);
        assert!(
            bytes[offsets[1] as usize..].iter().all(|&b| b == 0),
            "padding stays zero"
        );
        let list = List {
            bytes: &bytes,
            start: 0,
            shape: Shape::new(n, ids.len()),
        };
        let low = list.shape.low;
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                list.get(i),
                id,
                "n {n}, len {}, low {low}, entry {i}",
                ids.len()
            );
        }
        let mut seen = Vec::new();
        list.for_each(|id| seen.push(id));
        assert_eq!(
            seen,
            ids,
            "n {n}, len {}, low {low}: sequential decode",
            ids.len()
        );
        for &id in ids.iter().take(200) {
            assert!(list.contains(id));
            if id > 0 {
                assert_eq!(list.contains(id - 1), ids.binary_search(&(id - 1)).is_ok());
            }
        }
    }

    #[test]
    fn elias_fano_lists_round_trip_at_every_lower_width() {
        let mut rng = StdRng::seed_from_u64(17);
        // Lengths around the 64-entry sample stride.
        for len in [1usize, 2, 63, 64, 65, 128, 129, 4097] {
            for low in 0..=31u32 {
                // Ids are u32, so n = len · 2^low must stay within 2^32.
                let n = len << low;
                if n > 1 << 32 {
                    continue;
                }
                assert_eq!(Shape::new(n, len).low, low, "n {n}, len {len}");
                assert_round_trip(n, &sample_ids(n, len, &mut rng));
            }
            // d = n − 1: every id but one, at l = 0.
            if len >= 2 {
                let n = len + 1;
                assert_eq!(Shape::new(n, len).low, 0);
                let skip = rng.gen_range(0..n) as u32;
                let ids: Vec<u32> = (0..n as u32).filter(|&id| id != skip).collect();
                assert_round_trip(n, &ids);
            }
        }
    }

    #[test]
    fn elias_fano_fills_split_at_every_boundary_agree() {
        let n = 5_000;
        let mut rng = StdRng::seed_from_u64(3);
        let lists: Vec<Vec<u32>> = [1usize, 65, 0, 129, 64, 3, 4097, 2]
            .iter()
            .map(|&len| sample_ids(n, len, &mut rng))
            .collect();
        let hubs = lists.len();
        let (reference, offsets) = fill(n, &lists, &[0, hubs]);
        for split in 0..=hubs {
            assert_eq!(
                fill(n, &lists, &[0, split, hubs]).0,
                reference,
                "split {split}"
            );
        }
        let every: Vec<usize> = (0..=hubs).collect();
        assert_eq!(fill(n, &lists, &every).0, reference, "every boundary");
        for (h, ids) in lists.iter().enumerate() {
            let list = List {
                bytes: &reference,
                start: offsets[h] as usize,
                shape: Shape::new(n, ids.len().max(1)),
            };
            assert!(
                ids.iter().enumerate().all(|(i, &id)| list.get(i) == id),
                "list {h}"
            );
        }
    }

    #[test]
    fn list_shapes_follow_the_width_rule_and_never_shrink() {
        for n in [1usize, 2, 3, 7, 64, 100, 1_000, 4_096, 65_537, 200_000] {
            let mut last = 0;
            // Past n: stub counts can exceed the simple-degree range.
            for len in 0..=(3 * n).min(700_000) {
                if len > 0 {
                    // The division-free width is ⌊log₂(n/len)⌋, floored at 0.
                    let shape = Shape::new(n, len);
                    assert_eq!(shape.low, (n / len).max(1).ilog2(), "n {n}, len {len}");
                    assert_eq!(shape.high, id_width(n).saturating_sub(shape.low));
                }
                let bytes = Shape::bytes(n, len);
                assert!(
                    bytes >= last,
                    "n {n}: {len} ids take {bytes} < {last} bytes"
                );
                last = bytes;
            }
        }
        // About ⌊log₂(n/d)⌋ + 2.5 bits per entry, against ⌈log₂ n⌉ fixed.
        assert!(Shape::bytes(200_000, 1_000) * 8 <= 1_000 * (7 + 3) + 16 * 11 + 7);
    }

    #[test]
    fn select_finds_every_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut words = vec![0, 1, 1 << 63, u64::MAX, 0x8000_0000_0000_0001, 0xFF00];
        words.extend((0..300).map(|_| rng.next_u64() & rng.next_u64()));
        words.extend((0..300).map(|_| rng.next_u64() | rng.next_u64()));
        for word in words {
            let ones: Vec<u32> = (0..64).filter(|&b| word >> b & 1 == 1).collect();
            for rank in 0..64u32 {
                let want = ones.get(rank as usize).copied().ok_or(ones.len() as u32);
                assert_eq!(select(word, rank), want, "word {word:#x}, rank {rank}");
            }
        }
    }

    /// The selection this module used before the stub-count histogram:
    /// sort a copy of the counts for the budget prefix, select the k-th
    /// largest, then sweep.
    fn select_hubs_by_sort(
        inner: &GeneratedGraph,
        k_limit: Option<usize>,
        budget: Option<usize>,
    ) -> Vec<u32> {
        let n = inner.num_vertices();
        let mut sorted: Vec<u32> = (0..n).map(|u| inner.stub_degree(u) as u32).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let k_budget = match budget {
            None => n,
            Some(budget) => {
                let mut acc = fixed_bytes(n);
                sorted
                    .iter()
                    .take_while(|&&c| {
                        acc += Shape::bytes(n, c as usize) as u64 + OFFSET_BYTES;
                        acc <= budget as u64
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
            let total = inner.total_degree();
            let fixed = fixed_bytes(n) as usize;
            let budgets = [
                None,
                Some(0),
                Some(1),
                Some(37),
                Some(fixed - 1),
                Some(fixed),
                Some(fixed + 1),
                Some(fixed + 37),
                Some(total / 7),
                Some(total),
                Some(usize::MAX / 2),
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

    /// Index draws of `cached`'s hubs of degree above 64: for each, entries
    /// 0, 63 and a random one of every 64-entry block and its last entry,
    /// so that every select sample is read. Also returns how many hubs of
    /// degree above 128 it drew from.
    fn deep_hub_draws(cached: &HubCachedGraph, rng: &mut StdRng) -> (Vec<DeferredNeighbor>, usize) {
        let mut draws = Vec::new();
        let mut above_128 = 0;
        for u in (0..cached.num_vertices()).filter(|&u| cached.is_hub(u)) {
            let d = cached.degree(u);
            if d <= 64 {
                continue;
            }
            above_128 += usize::from(d > 128);
            for block in (0..d).step_by(64) {
                let end = (block + 64).min(d);
                for i in [block, block + 63, rng.gen_range(block..end), end - 1] {
                    if i < d {
                        draws.push(DeferredNeighbor::draw(u, i as u64));
                    }
                }
            }
        }
        (draws, above_128)
    }

    #[test]
    fn blocks_mixing_hits_and_misses_resolve_like_single_queries() {
        let sparse = chung_lu(2_000, 21);
        // Hubs of a few hundred neighbors: select samples past the first.
        let dense = GeneratedGraph::chung_lu(3_000, 2.1, 20.0, 8).unwrap();
        // Misses on clean tail vertices take the inner pick kernel, those
        // on unclean ones (a self-loop, a parallel pair or the unmatched
        // stub) its list kernel: both must resolve among hits.
        let (mut hits, mut clean_misses, mut unclean_misses) = (0, 0, 0);
        for (inner, k) in [(&sparse, 150usize), (&dense, 200)] {
            let n = inner.num_vertices();
            let cached = HubCachedGraph::with_hub_count(inner.clone(), k);
            let unclean: Vec<usize> = (0..n)
                .filter(|&u| {
                    let d = inner.degree(u);
                    !cached.is_hub(u) && d > 0 && d != inner.stub_degree(u)
                })
                .collect();
            assert!(!unclean.is_empty(), "no unclean tail vertex");
            let mut rng = StdRng::seed_from_u64(4);
            let (deep, above_128) = deep_hub_draws(&cached, &mut rng);
            assert!(deep.len() > 50, "{} deep hub draws", deep.len());
            if std::ptr::eq(inner, &dense) {
                assert!(above_128 > 5, "{above_128} hubs above degree 128");
            }
            let (mut cached_block, mut inner_block) = (DrawBlock::default(), DrawBlock::default());
            // Mixed blocks, hit-only blocks and miss-only blocks.
            for kind in 0..3 {
                for size in [0usize, 1, 63, 64, 65, 127, 128, 129] {
                    for _ in 0..20 {
                        cached_block.clear();
                        inner_block.clear();
                        let mut drawn = Vec::new();
                        for k in 0..size {
                            let token = match kind {
                                // Stationary vertices (mostly hubs), deep
                                // hub entries, uniform vertices (mostly
                                // tail) and unclean tail vertices, with
                                // resolved tokens between them.
                                0 => {
                                    let u = match k % 3 {
                                        0 => cached.sample_stationary(&mut rng),
                                        _ if k % 5 == 2 => unclean[rng.gen_range(0..unclean.len())],
                                        _ => rng.gen_range(0..n),
                                    };
                                    if k % 7 == 3 {
                                        DeferredNeighbor::vertex(u)
                                    } else if k % 3 == 1 {
                                        deep[rng.gen_range(0..deep.len())]
                                    } else {
                                        cached.draw_deferred(u, &mut rng)
                                    }
                                }
                                // Hits only: stationary hubs and deep entries.
                                1 => {
                                    let u = cached.sample_stationary(&mut rng);
                                    if k % 2 == 0 && cached.is_hub(u) {
                                        cached.draw_deferred(u, &mut rng)
                                    } else {
                                        deep[rng.gen_range(0..deep.len())]
                                    }
                                }
                                // Misses only: tail vertices, isolated ones
                                // staying put as resolved tokens.
                                _ => {
                                    let u = loop {
                                        let u = rng.gen_range(0..n);
                                        if !cached.is_hub(u) {
                                            break u;
                                        }
                                    };
                                    cached.draw_deferred(u, &mut rng)
                                }
                            };
                            drawn.push(token);
                            cached_block.push(token);
                            inner_block.push(token);
                        }
                        cached.resolve_block(&mut cached_block);
                        inner.resolve_block(&mut inner_block);
                        assert_eq!(cached_block.resolved().len(), size);
                        let block_hits = drawn
                            .iter()
                            .filter(|token| match token.0 {
                                Deferred::Draw { vertex, .. } => cached.is_hub(vertex as usize),
                                _ => false,
                            })
                            .count();
                        hits += block_hits;
                        for (k, (&token, &v)) in
                            drawn.iter().zip(cached_block.resolved()).enumerate()
                        {
                            let want = match token.0 {
                                Deferred::Draw { vertex, index } => {
                                    let u = vertex as usize;
                                    if !cached.is_hub(u) && block_hits > 0 {
                                        if inner.degree(u) == inner.stub_degree(u) {
                                            clean_misses += 1;
                                        } else {
                                            unclean_misses += 1;
                                        }
                                    }
                                    inner.nth_neighbor(u, index as usize)
                                }
                                _ => token.resolved().unwrap(),
                            };
                            assert_eq!(v as usize, want, "block of {size}, entry {k}");
                            assert_eq!(cached.resolve_deferred(token), want);
                        }
                        assert_eq!(
                            cached_block.resolved(),
                            inner_block.resolved(),
                            "block of {size}"
                        );
                    }
                }
            }
        }
        assert!(
            hits > 1_000 && clean_misses > 1_000 && unclean_misses > 100,
            "{hits} hits; among hits, {clean_misses} clean and {unclean_misses} unclean misses"
        );
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

    /// What the builder charges for the top `k` hubs: nothing for an empty
    /// cache, else the fixed part plus each list priced at its stub count
    /// and its offset.
    fn cost(n: usize, stubs: &[usize], k: usize) -> usize {
        if k == 0 {
            return 0;
        }
        let lists: usize = stubs[..k].iter().map(|&c| Shape::bytes(n, c) + 4).sum();
        fixed_bytes(n) as usize + lists
    }

    /// Lists plus read padding, at the hubs' simple degrees.
    fn list_bytes(cached: &HubCachedGraph) -> usize {
        let n = cached.num_vertices();
        let lists: usize = (0..n)
            .filter(|&u| cached.is_hub(u))
            .map(|u| Shape::bytes(n, cached.degree(u)))
            .sum();
        lists + READ_PAD
    }

    #[test]
    fn budget_builder_respects_the_byte_ceiling() {
        let inner = chung_lu(1000, 2);
        let budget = 2 << 10;
        let cached = HubCacheBuilder::new()
            .cache_budget_bytes(budget)
            .build(inner.clone());
        assert!(cached.hub_count() > 0, "2 KiB must afford some hubs");
        assert_eq!(cached.lists.len(), list_bytes(&cached));
        assert!(
            cached.cache_bytes() <= budget,
            "cache {} bytes exceeds the {budget} budget",
            cached.cache_bytes()
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
            // Stub counts in selection order: descending, ties by id.
            let mut stubs: Vec<usize> = (0..n).map(|u| inner.stub_degree(u)).collect();
            stubs.sort_by_key(|&c| std::cmp::Reverse(c));
            let fixed = fixed_bytes(n) as usize;
            let mut budgets = vec![0, 7, 8, 15, 16, fixed - 1, fixed, fixed + 1];
            for k in [1, n / 3, n] {
                let exact = cost(n, &stubs, k);
                budgets.extend([exact.saturating_sub(1), exact, exact + 1]);
            }
            for budget in budgets {
                let cached = HubCacheBuilder::new()
                    .cache_budget_bytes(budget)
                    .build(inner.clone());
                let k = cached.hub_count();
                let bytes = cached.cache_bytes();
                assert!(
                    bytes <= budget,
                    "n {n}: {bytes} bytes over the {budget} budget"
                );
                assert!(
                    cost(n, &stubs, k) <= budget,
                    "n {n}: top-{k} stubs overflow the {budget} budget"
                );
                if k < n {
                    assert!(
                        cost(n, &stubs, k + 1) > budget,
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
    fn cache_bytes_never_exceed_the_budget() {
        for inner in [
            chung_lu(3_000, 12),
            GeneratedGraph::chung_lu(1_000, 2.1, 20.0, 6).unwrap(),
            GeneratedGraph::gnp(300, 0.0, 1).unwrap(),
        ] {
            let n = inner.num_vertices();
            let fixed = fixed_bytes(n) as usize;
            let full = HubCachedGraph::with_hub_count(inner.clone(), n).cache_bytes();
            let mut budgets = vec![0, 1, fixed - 1, fixed, fixed + 1, fixed + 4, fixed + 40];
            budgets.extend((1..=40).map(|i| full * i / 32));
            for budget in budgets {
                let cached = HubCacheBuilder::new()
                    .cache_budget_bytes(budget)
                    .build(inner.clone());
                let bytes = cached.cache_bytes();
                assert!(
                    bytes <= budget,
                    "n {n}: {bytes} bytes over the {budget} budget"
                );
                if budget < fixed + 4 {
                    // Too small for the bitmap and one offset: nothing at all.
                    assert_eq!((cached.hub_count(), bytes), (0, 0), "budget {budget}");
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
            let bytes = Shape::bytes(800, inner.degree(u as usize)) as u32;
            hub_offsets.push(hub_offsets.last().unwrap() + bytes);
        }
        let reference = fill_cache(&inner, &hub_ids, &hub_offsets, 1);
        for workers in [2, 3, 5, 8, 200, 500] {
            let words = fill_cache(&inner, &hub_ids, &hub_offsets, workers);
            assert_eq!(words, reference, "{workers} workers");
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
