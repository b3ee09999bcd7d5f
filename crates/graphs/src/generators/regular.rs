//! Regular-graph generators used by the Theorem 1 / 23 / 24 / 25 experiments.
//!
//! The paper's main technical results hold for every `d`-regular graph with
//! `d = Ω(log n)`. The experiments exercise them on:
//!
//! * random `d`-regular graphs from a repaired pairing (configuration
//!   model, then double-edge swaps; not uniform, see [`random_regular`]),
//! * the hypercube (`d = log2 n`, in [`basic`](crate::generators::basic)),
//! * a cycle of `(d+1)`-cliques (a regular graph with *polynomial* broadcast
//!   time, the "path of d-cliques" example mentioned after Theorem 1), and
//! * the complete graph (`d = n − 1`).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::algorithms::is_connected;
use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// Maximum number of outer restarts (full re-pairings) before giving up.
const RANDOM_REGULAR_MAX_ATTEMPTS: usize = 50;

/// Generates a random simple connected `d`-regular graph on `n` vertices.
///
/// The construction is the configuration (pairing) model followed by a repair
/// phase: stubs are paired uniformly at random, and then self-loops and
/// parallel edges are eliminated by random double-edge swaps (each swap
/// replaces a defective pair `(u,v)` and a random good pair `(x,y)` by
/// `(u,x)` and `(v,y)` when that keeps the graph simple). The repair phase
/// preserves the degree sequence exactly. If the result is disconnected the
/// whole pairing restarts.
///
/// The law of this sampler is not the uniform law on simple connected
/// `d`-regular graphs, and no result cited here bounds its distance from it.
/// Counted over 4.0M draws at `n = 8`, `d = 3` (one `StdRng` sequence, seed
/// 12345), every one of the 19,320 connected labelled cubic graphs appeared,
/// but with counts from 107 to 300 against 207 expected: χ² = 86,955 on
/// 19,319 degrees of freedom, about 344 standard deviations above its mean.
/// Theorem 1 needs none of that: it holds for every `d`-regular graph with
/// `d = Ω(log n)`, so what the experiments need is a graph that is
/// `d`-regular, simple and connected, which every returned graph is.
///
/// The repair hashes nothing. One counting sort of the pairs by their
/// smaller endpoint finds the defective pairs: the self-loops, and every
/// pair after the first with the same endpoints. That sorted array, plus
/// two small sorted lists of the pairs the swaps have added and removed,
/// answers each "is this edge present?" query with binary searches. The
/// defects, the random draws and so the graph are those of a repair that
/// keeps the present edges in a hash set. The swaps rewrite the shuffled
/// stub array in place, as pairs.
///
/// The repaired edge set is the upper half of the graph's CSR: each
/// vertex's neighbors above it, in ascending order. One transpose, which
/// visits those rows in vertex order and writes every edge into both of
/// its rows, fills every row already sorted. No builder copies the edges
/// and no row is sorted. The transpose writes into the stub array, whose
/// `n * d` entries are the adjacency's, so the adjacency is never
/// allocated beside it.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `d == 0`, `d >= n`, or
/// `n * d` is odd; [`GraphError::GenerationFailed`] if no simple connected
/// graph was produced within the retry budget.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = rumor_graphs::generators::random_regular(100, 6, &mut rng)?;
/// assert_eq!(g.regular_degree(), Some(6));
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph> {
    if d == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "random_regular requires d >= 1".into(),
        });
    }
    if d >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("random_regular requires d < n (got d = {d}, n = {n})"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: "random_regular requires n * d to be even".into(),
        });
    }

    for _ in 0..RANDOM_REGULAR_MAX_ATTEMPTS {
        if let Some(g) = pair_and_repair(n, d, rng) {
            if is_connected(&g) {
                return Ok(g);
            }
        }
    }
    Err(GraphError::GenerationFailed {
        reason: format!("configuration model failed for n = {n}, d = {d} after {RANDOM_REGULAR_MAX_ATTEMPTS} attempts"),
    })
}

/// One pairing attempt followed by double-edge-swap repair; `None` if repair
/// did not converge.
fn pair_and_repair<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Option<Graph> {
    let mut stubs = pairing(n, d, rng);
    let repaired = repair(n, stubs.as_chunks_mut().0, rng)?;
    // The repaired set holds every edge; the stubs become the adjacency.
    Some(repaired.into_graph(stubs))
}

/// Repairs the pairing `edges` in place by double-edge swaps and returns
/// the set of its repaired edges; `None` if the swap budget ran out.
fn repair<R: Rng + ?Sized>(n: usize, edges: &mut [[u32; 2]], rng: &mut R) -> Option<EdgeSet> {
    let key = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
    // `seen` holds the first occurrence of every edge; `defective` the
    // indices of self-loops and later copies, ascending.
    let (mut seen, mut defective) = EdgeSet::first_occurrences(n, edges);

    // Repair defective edges by random double-edge swaps. Each iteration
    // either fixes a defective edge or burns one unit of budget.
    let mut budget = 200 * (defective.len() + 1) + 100;
    while let Some(&i) = defective.last() {
        if budget == 0 {
            return None;
        }
        budget -= 1;
        let [u, v] = edges[i];
        let j = rng.gen_range(0..edges.len());
        if j == i || defective.contains(&j) {
            continue;
        }
        let [x, y] = edges[j];
        // Propose replacing (u,v),(x,y) with (u,x),(v,y); randomize orientation
        // of the partner edge so both swap variants are reachable.
        let (x, y) = if rng.gen_bool(0.5) { (x, y) } else { (y, x) };
        if u == x || v == y {
            continue;
        }
        if seen.contains(key(u, x)) || seen.contains(key(v, y)) {
            continue;
        }
        // The partner edge (x,y) is a good edge: remove it from the seen set.
        seen.remove(key(x, y));
        // The defective edge may or may not be present in `seen` (self-loops
        // and duplicates never were); removal is a no-op in that case because
        // the surviving original copy keeps its entry.
        seen.insert(key(u, x));
        seen.insert(key(v, y));
        edges[i] = [u, x];
        edges[j] = [v, y];
        defective.pop();
    }
    Some(seen)
}

/// A uniformly random pairing of `d` stubs per vertex: the configuration
/// model's multigraph, with self-loops and repeated edges. Stubs `2i` and
/// `2i + 1` are paired.
fn pairing<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Vec<u32> {
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for u in 0..n {
        for _ in 0..d {
            stubs.push(u as u32);
        }
    }
    stubs.shuffle(rng);
    stubs
}

/// The repair's set of undirected edges `(a, b)`, `a < b`, without hashing.
///
/// The pairing's non-loop edges sit in a sorted array bucketed by the
/// smaller endpoint, built by one counting sort. The few edges a swap adds
/// or removes afterwards go into two small sorted overlays, `added`
/// (never in the array) and `removed` (in the array). A query is one binary
/// search in a bucket of at most `d` entries and one in each overlay.
///
/// Once the repair is done the set is the upper half of the graph's CSR:
/// vertex `a`'s neighbors above it, ascending, are its bucket with repeats
/// skipped, minus `removed`, merged with `added`. [`EdgeSet::into_graph`]
/// transposes those rows in one pass, which fills every row in order.
struct EdgeSet {
    /// `pairs[start[a]..start[a + 1]]` holds `b << 32 | i` for every pairing
    /// edge `i` with endpoints `a < b`, sorted (so by `b`, then by `i`).
    start: Vec<u32>,
    pairs: Vec<u64>,
    added: Vec<(u32, u32)>,
    removed: Vec<(u32, u32)>,
}

impl EdgeSet {
    /// The set of `edges`' non-loop keys, and the indices (ascending) of the
    /// edges that are self-loops or repeat the key of an earlier edge.
    fn first_occurrences(n: usize, edges: &[[u32; 2]]) -> (Self, Vec<usize>) {
        let mut start = vec![0u32; n + 1];
        for &[u, v] in edges {
            if u != v {
                start[u.min(v) as usize + 1] += 1;
            }
        }
        for a in 0..n {
            start[a + 1] += start[a];
        }
        let mut cursor = start[..n].to_vec();
        let mut pairs = vec![0u64; start[n] as usize];
        let mut defective = Vec::new();
        for (i, &[u, v]) in edges.iter().enumerate() {
            if u == v {
                defective.push(i);
                continue;
            }
            let a = u.min(v) as usize;
            pairs[cursor[a] as usize] = u64::from(u.max(v)) << 32 | i as u64;
            cursor[a] += 1;
        }
        for bucket in start.windows(2) {
            let bucket = &mut pairs[bucket[0] as usize..bucket[1] as usize];
            bucket.sort_unstable();
            for w in bucket.windows(2) {
                if w[0] >> 32 == w[1] >> 32 {
                    defective.push(w[1] as u32 as usize);
                }
            }
        }
        defective.sort_unstable();
        let set = EdgeSet {
            start,
            pairs,
            added: Vec::new(),
            removed: Vec::new(),
        };
        (set, defective)
    }

    /// Calls `f(a, b)` for every edge `a < b` of the set, in ascending
    /// order: each bucket's keys with repeats skipped and `removed` left
    /// out, merged with `added`. The overlays are sorted, so each is read
    /// with one cursor.
    fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        let mut added = self.added.iter().copied().peekable();
        let mut removed = self.removed.iter().copied().peekable();
        for (a, bucket) in self.start.windows(2).enumerate() {
            let a = a as u32;
            let mut last = None;
            for &pair in &self.pairs[bucket[0] as usize..bucket[1] as usize] {
                let b = (pair >> 32) as u32;
                if last == Some(b) {
                    continue;
                }
                last = Some(b);
                while let Some((x, c)) = added.next_if(|&key| key < (a, b)) {
                    f(x, c);
                }
                if removed.next_if_eq(&(a, b)).is_none() {
                    f(a, b);
                }
            }
            while let Some((x, c)) = added.next_if(|&(x, _)| x == a) {
                f(x, c);
            }
        }
    }

    /// The CSR graph of the set, its rows written over `adjacency` (twice
    /// the set's length; its contents are ignored). Offsets are counted in
    /// a first pass over the upper rows; the second pass writes each edge
    /// `(a, b)` at the next slot of both rows. Rows are visited in
    /// ascending order, so row `u` receives its lower neighbors, ascending,
    /// before its own upper row: every row fills sorted, with no sort.
    fn into_graph(self, mut adjacency: Vec<u32>) -> Graph {
        let n = self.start.len() - 1;
        let mut offsets = vec![0u32; n + 1];
        self.for_each(|a, b| {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        });
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut cursor = offsets[..n].to_vec();
        assert_eq!(adjacency.len(), offsets[n] as usize);
        self.for_each(|a, b| {
            adjacency[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
            adjacency[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
        });
        drop(self);
        let m = adjacency.len() / 2;
        Graph::from_csr(offsets, adjacency, m)
    }

    /// The pairing's edges `(a, b)` with `a` the smaller endpoint.
    fn bucket(&self, a: u32) -> &[u64] {
        &self.pairs[self.start[a as usize] as usize..self.start[a as usize + 1] as usize]
    }

    /// Whether the pairing held `(a, b)`, `a < b`.
    fn paired(&self, (a, b): (u32, u32)) -> bool {
        self.bucket(a)
            .binary_search_by_key(&b, |&pair| (pair >> 32) as u32)
            .is_ok()
    }

    fn contains(&self, key: (u32, u32)) -> bool {
        if self.paired(key) {
            self.removed.binary_search(&key).is_err()
        } else {
            self.added.binary_search(&key).is_ok()
        }
    }

    fn insert(&mut self, key: (u32, u32)) {
        if self.paired(key) {
            if let Ok(at) = self.removed.binary_search(&key) {
                self.removed.remove(at);
            }
        } else if let Err(at) = self.added.binary_search(&key) {
            self.added.insert(at, key);
        }
    }

    fn remove(&mut self, key: (u32, u32)) {
        if self.paired(key) {
            if let Err(at) = self.removed.binary_search(&key) {
                self.removed.insert(at, key);
            }
        } else if let Ok(at) = self.added.binary_search(&key) {
            self.added.remove(at);
        }
    }
}

/// A cycle of `num_cliques` cliques, each on `d + 1` vertices, giving a
/// connected `d`-regular graph with `num_cliques * (d + 1)` vertices.
///
/// Construction: inside clique `i` (vertices `i*(d+1) .. (i+1)*(d+1)`), all
/// pairs are connected *except* the pair (first, second); the "second" vertex
/// of clique `i` is instead connected to the "first" vertex of clique
/// `i + 1 mod num_cliques`. Every vertex therefore has degree exactly `d`.
///
/// This is the regular family on which broadcast is slow (`Ω(num_cliques)` for
/// every protocol): it plays the role of the "path of `d`-cliques" the paper
/// mentions as the slow extreme among regular graphs.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `num_cliques < 3` or `d < 2`.
pub fn cycle_of_cliques(num_cliques: usize, d: usize) -> Result<Graph> {
    if num_cliques < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "cycle_of_cliques requires num_cliques >= 3".into(),
        });
    }
    if d < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "cycle_of_cliques requires d >= 2".into(),
        });
    }
    let k = d + 1;
    let n = num_cliques * k;
    let mut b = GraphBuilder::with_capacity(n, num_cliques * (k * (k - 1) / 2));
    for i in 0..num_cliques {
        let base = i * k;
        for a in 0..k {
            for c in (a + 1)..k {
                // Omit the (first, second) pair: its two endpoints get the
                // inter-clique edges instead.
                if a == 0 && c == 1 {
                    continue;
                }
                b.add_edge(base + a, base + c)?;
            }
        }
        // Connect this clique's "second" vertex to the next clique's "first".
        let next_base = ((i + 1) % num_cliques) * k;
        b.add_edge(base + 1, next_base)?;
    }
    b.build()
}

/// A `d`-regular "two-community" graph: two random `d/2`-regular-ish halves
/// joined by a perfect matching, built so that the whole graph is exactly
/// `d`-regular. Used as an extra regular topology with a sparse cut, stressing
/// the `T_push ≍ T_visitx` equivalence away from expanders.
///
/// Each half has `half_n` vertices with an internal random `(d-1)`-regular
/// graph; the matching between halves contributes the final degree unit.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `d < 3`, `half_n <= d`, or
/// `half_n * (d - 1)` is odd; [`GraphError::GenerationFailed`] if the
/// internal random-regular generation fails.
pub fn matched_communities<R: Rng + ?Sized>(half_n: usize, d: usize, rng: &mut R) -> Result<Graph> {
    if d < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "matched_communities requires d >= 3".into(),
        });
    }
    if half_n <= d {
        return Err(GraphError::InvalidParameters {
            reason: "matched_communities requires half_n > d".into(),
        });
    }
    if !(half_n * (d - 1)).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: "matched_communities requires half_n * (d - 1) to be even".into(),
        });
    }
    let a = random_regular(half_n, d - 1, rng)?;
    let b_half = random_regular(half_n, d - 1, rng)?;
    let n = 2 * half_n;
    let mut builder = GraphBuilder::with_capacity(n, half_n * (d - 1) + half_n);
    for (u, v) in a.edges() {
        builder.add_edge(u, v)?;
    }
    for (u, v) in b_half.edges() {
        builder.add_edge(u + half_n, v + half_n)?;
    }
    // Perfect matching across the cut.
    let mut right: Vec<usize> = (half_n..n).collect();
    right.shuffle(rng);
    for (u, &v) in right.iter().enumerate() {
        builder.add_edge(u, v)?;
    }
    builder.build()
}

/// Chooses an even degree close to `factor * log2(n)`, suitable for the
/// `d = Θ(log n)` regime of Theorem 1. The returned degree is at least 4 and
/// always makes `n * d` even.
pub fn logarithmic_degree(n: usize, factor: f64) -> usize {
    let log = (n.max(2) as f64).log2();
    let mut d = (factor * log).round() as usize;
    if d < 4 {
        d = 4;
    }
    if d % 2 == 1 {
        d += 1;
    }
    if d >= n {
        d = if n > 2 { ((n - 1) / 2) * 2 } else { 2 };
    }
    d.max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::is_connected;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn random_regular_basic_properties() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = random_regular(64, 6, &mut rng).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 64);
        assert_eq!(g.regular_degree(), Some(6));
        assert!(is_connected(&g));
    }

    #[test]
    fn random_regular_various_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(n, d) in &[(10, 3), (50, 4), (128, 8), (200, 11)] {
            if (n * d) % 2 == 1 {
                continue;
            }
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.regular_degree(), Some(d), "n={n} d={d}");
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn random_regular_rejects_invalid_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_regular(10, 0, &mut rng).is_err());
        assert!(random_regular(10, 10, &mut rng).is_err());
        assert!(random_regular(5, 3, &mut rng).is_err()); // n*d odd
    }

    #[test]
    fn random_regular_is_reproducible_with_same_seed() {
        let g1 = random_regular(40, 4, &mut StdRng::seed_from_u64(5)).unwrap();
        let g2 = random_regular(40, 4, &mut StdRng::seed_from_u64(5)).unwrap();
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn pinned_restart_cases_fail_their_first_attempt() {
        // `csr_known_answers.rs` pins these two draws as restart cases.
        assert!(pair_and_repair(8, 6, &mut StdRng::seed_from_u64(7)).is_none());
        let first = pair_and_repair(8, 2, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(!is_connected(&first));
    }

    #[test]
    fn pinned_repair_cases_start_with_loops_and_repeats() {
        // The pairings behind `csr_known_answers.rs`'s repaired cases.
        for (n, d, seed) in [(4096, 16, 7), (1000, 7, 3)] {
            let stubs = pairing(n, d, &mut StdRng::seed_from_u64(seed));
            let edges = stubs.as_chunks().0;
            let (_, defective) = EdgeSet::first_occurrences(n, edges);
            let loops = defective
                .iter()
                .filter(|&&i| edges[i][0] == edges[i][1])
                .count();
            assert!(
                loops > 0 && defective.len() > loops,
                "n={n} d={d}: {defective:?}"
            );
        }
    }

    #[test]
    fn edge_set_matches_a_hash_set() {
        use std::collections::HashSet;
        let key = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
        let mut rng = StdRng::seed_from_u64(99);
        for (n, d) in [(12, 5), (40, 6), (300, 8)] {
            let stubs = pairing(n, d, &mut rng);
            let edges = stubs.as_chunks().0;
            // The reference: the repair's former SipHash set.
            let mut reference = HashSet::new();
            let mut expected_defective = Vec::new();
            for (i, &[u, v]) in edges.iter().enumerate() {
                if u == v || !reference.insert(key(u, v)) {
                    expected_defective.push(i);
                }
            }
            let (mut set, defective) = EdgeSet::first_occurrences(n, edges);
            assert_eq!(defective, expected_defective);
            for _ in 0..20_000 {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v {
                    continue;
                }
                let k = key(u, v);
                match rng.gen_range(0..3) {
                    0 => {
                        reference.insert(k);
                        set.insert(k);
                    }
                    1 => {
                        reference.remove(&k);
                        set.remove(k);
                    }
                    _ => {}
                }
                assert_eq!(set.contains(k), reference.contains(&k));
            }
        }
    }

    #[test]
    fn assembled_graph_matches_the_builder_on_the_repaired_pairs() {
        // Small graphs, where loops, repeats and swaps are frequent.
        let (mut assembled, mut removed_repeats) = (0, 0);
        for (n, d) in [(10, 3), (24, 7), (64, 9), (200, 15)] {
            for seed in 0..500 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut stubs = pairing(n, d, &mut rng);
                let edges = stubs.as_chunks_mut().0;
                let Some(set) = repair(n, edges, &mut rng) else {
                    continue;
                };
                // A removed pairing edge that its bucket holds twice: the
                // swaps took both copies away, so the skip of repeats and
                // `removed` must agree.
                removed_repeats += set
                    .removed
                    .iter()
                    .filter(|&&(a, b)| {
                        set.bucket(a)
                            .iter()
                            .filter(|&&p| p >> 32 == u64::from(b))
                            .count()
                            > 1
                    })
                    .count();
                let mut builder = GraphBuilder::with_capacity(n, edges.len());
                for &[u, v] in edges.iter() {
                    builder.add_edge(u as usize, v as usize).unwrap();
                }
                let expected = builder.build().unwrap();
                assert_eq!(set.into_graph(stubs), expected, "n={n} d={d} seed={seed}");
                assembled += 1;
            }
        }
        assert!(assembled > 1500, "{assembled} repaired pairings");
        assert!(removed_repeats > 0);
    }

    #[test]
    fn theorem1_size_repairs_use_both_overlays() {
        // The first pairings behind `csr_known_answers.rs`'s Thm 1 pins.
        for seed in [2, 13] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stubs = pairing(1 << 16, 16, &mut rng);
            let set = repair(1 << 16, stubs.as_chunks_mut().0, &mut rng).unwrap();
            assert!(
                !set.added.is_empty() && !set.removed.is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn cycle_of_cliques_is_regular_and_connected() {
        let g = cycle_of_cliques(5, 6).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 5 * 7);
        assert_eq!(g.regular_degree(), Some(6));
        assert!(is_connected(&g));
    }

    #[test]
    fn cycle_of_cliques_small_degree() {
        let g = cycle_of_cliques(4, 2).unwrap();
        assert_eq!(g.regular_degree(), Some(2));
        assert!(is_connected(&g));
    }

    #[test]
    fn cycle_of_cliques_rejects_invalid() {
        assert!(cycle_of_cliques(2, 4).is_err());
        assert!(cycle_of_cliques(5, 1).is_err());
    }

    #[test]
    fn matched_communities_is_regular() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = matched_communities(30, 5, &mut rng).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 60);
        assert_eq!(g.regular_degree(), Some(5));
        assert!(is_connected(&g));
    }

    #[test]
    fn matched_communities_rejects_invalid() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matched_communities(30, 2, &mut rng).is_err());
        assert!(matched_communities(4, 5, &mut rng).is_err());
        assert!(matched_communities(31, 4, &mut rng).is_err()); // odd product
    }

    #[test]
    fn logarithmic_degree_is_even_and_reasonable() {
        for &n in &[16usize, 100, 1000, 10_000, 100_000] {
            let d = logarithmic_degree(n, 2.0);
            assert!(d >= 4);
            assert_eq!(d % 2, 0);
            assert!(d < n);
            let log = (n as f64).log2();
            assert!((d as f64) <= 2.0 * log + 2.0, "n = {n}, d = {d}");
        }
    }

    #[test]
    fn logarithmic_degree_tiny_graphs() {
        assert!(logarithmic_degree(5, 2.0) >= 2);
        assert!(logarithmic_degree(5, 2.0) < 5);
    }
}
