//! The `Topology` abstraction: one sampling contract, four storage
//! backends.
//!
//! Every protocol in the workspace consumes a graph through a handful of
//! operations — `degree`, uniform neighbor sampling, stationary vertex
//! sampling, neighbor enumeration. The [`Topology`] trait captures exactly
//! that surface, with four sealed implementations:
//!
//! * [`Graph`] — the CSR backend: `O(n + m)` arrays, any simple undirected
//!   graph.
//! * [`ImplicitGraph`](crate::ImplicitGraph) — the implicit backend: the
//!   paper's structured families (stars, cycles, cliques, heavy trees,
//!   cycle-of-stars-of-cliques, …) whose adjacency is pure arithmetic.
//!   `O(1)` parameters instead of arrays, so a 10⁸-vertex instance costs
//!   bytes, not gigabytes.
//! * [`GeneratedGraph`](crate::GeneratedGraph) — the generated backend:
//!   seed-keyed random families (G(n, p), Chung–Lu power-law) whose edges
//!   are derived on demand from a counter-based Philox hash. `O(n)` memory
//!   (two offset tables), so 10⁷-vertex random topologies fit where their
//!   CSR builds would not.
//! * [`HubCachedGraph`](crate::HubCachedGraph) — the hub-cached hybrid: a
//!   layer over the generated backend that materializes exact adjacency,
//!   Elias–Fano coded at about `⌊log₂(n/d)⌋ + 2.5` bits per entry, for the
//!   top-k vertices by degree, absorbing the hub-heavy query mix of stationary agent walks
//!   while tail queries stay on the hashed path.
//!
//! **Determinism contract:** for equal degrees all backends consume the
//! RNG stream identically (each draws neighbor indices through the shared
//! degree-specialized sampler in [`crate::Graph`]'s module), and the
//! implicit and generated backends resolve a sampled index to the identical
//! *i*-th sorted neighbor their materialized CSR builds store. A simulation
//! over an [`ImplicitGraph`](crate::ImplicitGraph) or
//! [`GeneratedGraph`](crate::GeneratedGraph) is therefore bit-identical to
//! the same simulation over the corresponding [`Graph`] — the cross-backend
//! equivalence tests in `rumor-core` pin this for every family, protocol,
//! engine, and thread count.
//!
//! **Deferred draws.** Walkers move many agents per round, and each move
//! can wait on memory: a dependent cache miss on a large CSR graph, a chain
//! of table reads and searches on the generated backend. Four hooks let a
//! walker pass overlap that wait across agents without changing a single
//! draw: [`Topology::defers_reads`] picks the pass's shape,
//! [`Topology::prefetch_sampler`] starts loading a vertex's sampling
//! metadata ahead of its draw, [`Topology::draw_deferred`] consumes the RNG
//! exactly like `random_neighbor(u, rng).unwrap_or(u)` and returns a
//! [`DeferredNeighbor`] token, and [`Topology::resolve_deferred`] turns the
//! token into the vertex later. [`Graph`] resolves interval-tagged lists at
//! draw time, while CSR-tagged ones prefetch the selected adjacency slot
//! and return it; the generated and hub-cached backends return the drawn
//! index. The defaults resolve at draw time and do not prefetch; every
//! backend but the implicit one prefetches its sampling metadata.
//!
//! **Block resolution.** Where [`Topology::defers_reads`] holds — the
//! generated and hub-cached backends, and CSR graphs whose read lists
//! outgrow the cache — walker passes, sequential and sharded, draw a whole
//! 64-agent block and resolve it with one [`Topology::resolve_block`]
//! call; elsewhere they draw and store each agent on the spot. The vertex
//! protocols' pass takes the same two shapes with 128-caller blocks,
//! drawing through [`Topology::draw_deferred`] on the sequential engine and
//! [`Topology::draw_deferred_with`] on the sharded one. The default resolves
//! each token in turn, which is all the CSR and implicit backends need.
//! The generated backend instead derives all of the block's neighbors in
//! one batched kernel, and the hub-cached backend passes the block's misses
//! to that kernel together and answers its hits from the cache, stage by
//! stage across the block.
//!
//! **List resolution.** [`Topology::neighbor_lists`] writes the neighbor
//! lists of many vertices at once, in the order
//! [`Topology::for_each_neighbor`] enumerates each. The sharded vertex
//! protocols' merge resolves the lists of a round's newly informed
//! vertices through it, a bounded window at a time, on several workers.
//! The CSR and implicit backends keep the default, which resolves nothing:
//! their lists are a plain read, so the merge enumerates them on the spot.
//!
//! The trait is deliberately **not** object safe (sampling methods are
//! generic over the RNG so they inline); engines monomorphize over it,
//! matching once per run on [`AnyTopology`] and never again — the same
//! pattern the `FastStep` hot path uses for protocols.

use std::ops::Range;

use rand::Rng;

use crate::generated::{BlockScratch, GeneratedGraph};
use crate::graph::{Graph, VertexId};
use crate::hub_cached::{HubCachedGraph, StagedHit};
use crate::implicit::ImplicitGraph;

mod sealed {
    /// Seals [`super::Topology`]: the four backends are the whole design,
    /// and the bit-identity contract between them could not be promised for
    /// foreign implementations.
    pub trait Sealed {}
    impl Sealed for super::Graph {}
    impl Sealed for super::ImplicitGraph {}
    impl Sealed for super::GeneratedGraph {}
    impl Sealed for super::HubCachedGraph {}
}

/// The operations a simulation needs from a graph, implemented by the CSR
/// backend ([`Graph`]), the implicit backend
/// ([`ImplicitGraph`](crate::ImplicitGraph)), and the generated backend
/// ([`GeneratedGraph`](crate::GeneratedGraph)). See the module-level
/// documentation above for the cross-backend determinism contract.
///
/// Sealed: downstream crates consume, and cannot implement, this trait.
pub trait Topology: sealed::Sealed + Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges `|E|`.
    fn num_edges(&self) -> usize;

    /// Sum of all degrees, i.e. `2 |E|` (the stationary normalizer).
    #[inline]
    fn total_degree(&self) -> usize {
        2 * self.num_edges()
    }

    /// Degree of vertex `u`.
    fn degree(&self, u: VertexId) -> usize;

    /// Iterator over all vertices `0..n`.
    #[inline]
    fn vertices(&self) -> Range<VertexId> {
        0..self.num_vertices()
    }

    /// Calls `f` for every neighbor of `u`, in ascending vertex order.
    fn for_each_neighbor(&self, u: VertexId, f: impl FnMut(VertexId));

    /// Calls `f` for every undirected edge `(u, v)` with `u < v`.
    /// `O(n + m)`; the default enumerates each vertex's neighbor list.
    fn for_each_edge(&self, mut f: impl FnMut(VertexId, VertexId)) {
        for u in self.vertices() {
            self.for_each_neighbor(u, |v| {
                if u < v {
                    f(u, v);
                }
            });
        }
    }

    /// Samples a uniformly random neighbor of `u`, or `None` if `u` is
    /// isolated. Stream consumption depends only on `deg(u)` (the
    /// cross-backend determinism contract).
    fn random_neighbor<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> Option<VertexId>;

    /// Samples a uniformly random neighbor of a vertex known to have one
    /// (panics on isolated vertices).
    fn random_neighbor_nonisolated<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> VertexId;

    /// Like [`Topology::random_neighbor`], but the generator is produced
    /// lazily — and never produced at all when `deg(u) == 1`. Only for
    /// counter-based per-entity streams (see
    /// [`Graph::random_neighbor_with`]).
    fn random_neighbor_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<VertexId>;

    /// Which shape a walker or vertex pass takes. `true`: the block shape,
    /// which draws a block of tokens — 64 agents through
    /// [`Topology::draw_deferred`], with [`Topology::prefetch_sampler`]
    /// ahead, or 128 vertex-protocol callers — and resolves it with one
    /// [`Topology::resolve_block`] call — for backends where reading a drawn
    /// neighbor waits on memory that a block can overlap. `false` (the
    /// default): the immediate shape, which resolves every draw on the spot
    /// with no tokens or prefetches. The RNG stream is the same either way.
    #[inline]
    fn defers_reads(&self) -> bool {
        false
    }

    /// Draws the next position of a walker at `u` now and defers reading
    /// it: consumes the RNG exactly like
    /// `random_neighbor(u, rng).unwrap_or(u)` (an isolated walker stays put)
    /// and returns a token that [`Topology::resolve_deferred`] turns into
    /// that vertex later. Between the two a backend can fetch the neighbor
    /// slot in the background, so a caller that draws for several walkers
    /// before resolving the first overlaps their memory misses.
    ///
    /// The default resolves on the spot. The CSR backend resolves
    /// interval-tagged lists arithmetically at draw time and otherwise
    /// prefetches the adjacency slot and returns it.
    #[inline(always)]
    fn draw_deferred<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> DeferredNeighbor {
        DeferredNeighbor::vertex(self.random_neighbor(u, rng).unwrap_or(u))
    }

    /// The vertex a [`Topology::draw_deferred`] token stands for. The token
    /// must come from this topology.
    #[inline(always)]
    fn resolve_deferred(&self, token: DeferredNeighbor) -> VertexId {
        token
            .resolved()
            .expect("a backend without adjacency slots made every draw resolved")
    }

    /// Like [`Topology::random_neighbor_with`], but defers reading the
    /// neighbor like [`Topology::draw_deferred`]: the generator is produced
    /// lazily and never when `deg(u) == 1`, and the returned token is read
    /// by [`Topology::resolve_deferred`] or [`Topology::resolve_block`].
    /// `None` if `u` is isolated. Only for counter-based per-entity streams.
    ///
    /// The default resolves on the spot; the generated and hub-cached
    /// backends return the drawn index, so that a block of draws resolves
    /// together.
    #[inline(always)]
    fn draw_deferred_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<DeferredNeighbor> {
        self.random_neighbor_with(u, make_rng)
            .map(DeferredNeighbor::vertex)
    }

    /// Resolves a block of deferred draws: afterwards
    /// `block.resolved()[k]` is the vertex the `k`-th pushed token stands
    /// for, exactly as [`Topology::resolve_deferred`] would return it.
    ///
    /// The default resolves each token in turn. The generated backend
    /// overrides it with its block kernel, which re-derives the stub
    /// partners of all the block's vertices together, so their independent
    /// table reads and searches overlap; the hub-cached backend answers
    /// hits from its lists and hands all of the block's misses to that
    /// kernel as one block.
    #[inline]
    fn resolve_block(&self, block: &mut DrawBlock) {
        let DrawBlock {
            drawn, resolved, ..
        } = block;
        resolved.clear();
        resolved.extend(
            drawn
                .iter()
                .map(|&token| self.resolve_deferred(token) as u32),
        );
    }

    /// Hints that `u`'s sampling metadata is about to be read by a draw.
    /// Consumes no randomness and changes no result. The CSR backend loads
    /// `u`'s sampler entry, the generated backend its degree offsets, and the
    /// hub-cached backend those and `u`'s membership word and rank, which
    /// [`Topology::resolve_block`] reads next; the implicit backend keeps
    /// the default, which does nothing (its degrees are arithmetic).
    #[inline(always)]
    fn prefetch_sampler(&self, _u: VertexId) {}

    /// Writes the neighbor lists of `vertices` back to back into `out`,
    /// each in the ascending order [`Topology::for_each_neighbor`]
    /// enumerates, and returns `true`. `out` must be exactly as long as the
    /// vertices' degrees sum to, and `block` lends its scratch (nothing in
    /// it is read). Returns `false` and writes nothing where enumerating a
    /// list on the spot is already a plain read: the default, which the CSR
    /// and implicit backends keep, so a caller may probe with empty slices.
    ///
    /// The generated backend derives the lists with its block kernel, many
    /// vertices per run, so their derivations overlap like a block of
    /// draws; the hub-cached backend decodes its hubs' lists and hands the
    /// others to that kernel. A caller that resolves disjoint slices of
    /// `vertices` on several threads, each with its own `block`, writes the
    /// same `out`.
    #[inline]
    fn neighbor_lists(&self, _vertices: &[u32], _out: &mut [u32], _block: &mut DrawBlock) -> bool {
        false
    }

    /// Samples a vertex from the stationary distribution
    /// (degree-proportional). Panics if the graph has no edges.
    fn sample_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> VertexId;

    /// Samples `count` independent stationary vertices into `out` (cleared
    /// first), draw-for-draw identical to `count` calls of
    /// [`Topology::sample_stationary`]. The `u32` output feeds the agent
    /// engines' position arrays without an intermediate `Vec<usize>`.
    /// Panics if the graph has no edges.
    fn sample_stationary_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        out: &mut Vec<u32>,
    );

    /// Whether the graph is bipartite (drives the paper's lazy-walk remedy
    /// for `meet-exchange`). CSR answers by BFS; implicit families answer in
    /// `O(1)` from their structure.
    fn is_bipartite(&self) -> bool;

    /// If the graph is `d`-regular, `Some(d)`. CSR scans degrees; implicit
    /// families answer in `O(1)`.
    fn regular_degree(&self) -> Option<usize>;

    /// Bytes of storage backing the topology (diagnostic; the headline
    /// number behind the implicit backend's ≥20× footprint reduction).
    fn memory_bytes(&self) -> usize;
}

/// A neighbor drawn by [`Topology::draw_deferred`] and not yet read: either
/// the vertex itself or, on the CSR backend, the adjacency slot that holds
/// it, or, on the generated and hub-cached backends, the vertex and the
/// drawn index into its sorted neighbor list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferredNeighbor(pub(crate) Deferred);

/// An enum, not a tagged integer, so that after inlining the compiler knows
/// which kind each draw path produced and branches on it for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Deferred {
    Vertex(VertexId),
    /// An adjacency slot of the backend that made the token.
    Slot(usize),
    /// The `index`-th sorted neighbor of `vertex`.
    Draw {
        vertex: u32,
        index: u32,
    },
}

impl DeferredNeighbor {
    /// A token already resolved to `v` (for a walker that stays put
    /// without drawing a neighbor).
    #[inline(always)]
    pub fn vertex(v: VertexId) -> Self {
        DeferredNeighbor(Deferred::Vertex(v))
    }

    /// The `index`-th sorted neighbor of `vertex`, not yet derived.
    #[inline(always)]
    pub(crate) fn draw(vertex: VertexId, index: u64) -> Self {
        DeferredNeighbor(Deferred::Draw {
            vertex: vertex as u32,
            index: index as u32,
        })
    }

    /// The vertex, if the draw is already resolved (no read pending).
    #[inline(always)]
    pub fn resolved(self) -> Option<VertexId> {
        match self.0 {
            Deferred::Vertex(v) => Some(v),
            Deferred::Slot(_) | Deferred::Draw { .. } => None,
        }
    }
}

/// A block of deferred draws ([`Topology::draw_deferred`],
/// [`Topology::draw_deferred_with`]) with the caller-owned memory that
/// resolves them ([`Topology::resolve_block`]). A caller keeps one and
/// reuses it block after block — walker passes and the sharded engines keep
/// one per shard — so once its buffers have grown to the largest block,
/// resolving allocates nothing.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_graphs::{DrawBlock, GeneratedGraph, Topology};
///
/// let g = GeneratedGraph::gnp(1_000, 0.01, 7)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut block = DrawBlock::default();
/// for u in 0..64 {
///     block.push(g.draw_deferred(u, &mut rng));
/// }
/// g.resolve_block(&mut block);
/// // The same draws one at a time (an isolated vertex stays put).
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// for (u, &v) in block.resolved().iter().enumerate() {
///     assert_eq!(g.random_neighbor(u, &mut rng).unwrap_or(u), v as usize);
/// }
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DrawBlock {
    pub(crate) drawn: Vec<DeferredNeighbor>,
    pub(crate) resolved: Vec<u32>,
    /// The generated backend's kernel scratch; other backends leave it be.
    pub(crate) scratch: BlockScratch,
    /// The hub-cached backend's hits, resolved stage by stage.
    pub(crate) hits: Vec<StagedHit>,
}

impl DrawBlock {
    /// Empties the block for the next draws.
    #[inline]
    pub fn clear(&mut self) {
        self.drawn.clear();
    }

    /// Appends a draw to the block.
    #[inline]
    pub fn push(&mut self, token: DeferredNeighbor) {
        self.drawn.push(token);
    }

    /// The vertices of the block's draws, in push order, after
    /// [`Topology::resolve_block`].
    #[inline]
    pub fn resolved(&self) -> &[u32] {
        &self.resolved
    }
}

/// A topology with the backend chosen at runtime.
///
/// Engines and the experiment harness accept this where the backend is a
/// data-driven choice, match **once**, and run fully monomorphized
/// thereafter — the enum never sits on a sampling hot path.
///
/// # Examples
///
/// ```
/// use rumor_graphs::{AnyTopology, ImplicitGraph, Topology};
///
/// let implicit = AnyTopology::from(ImplicitGraph::star(1_000_000)?);
/// let csr = AnyTopology::from(rumor_graphs::generators::star(1_000)?);
/// assert_eq!(implicit.num_vertices(), 1_000_001);
/// // The million-leaf star costs a few dozen bytes implicitly.
/// assert!(implicit.memory_bytes() < 100);
/// assert!(csr.memory_bytes() > 1_000);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub enum AnyTopology {
    /// The materialized CSR backend.
    Csr(Graph),
    /// The closed-form implicit backend.
    Implicit(ImplicitGraph),
    /// The seed-keyed generated random backend.
    Generated(GeneratedGraph),
    /// The hub-cached hybrid over the generated backend.
    HubCached(HubCachedGraph),
}

impl AnyTopology {
    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        match self {
            AnyTopology::Csr(g) => g.num_vertices(),
            AnyTopology::Implicit(g) => g.num_vertices(),
            AnyTopology::Generated(g) => g.num_vertices(),
            AnyTopology::HubCached(g) => g.num_vertices(),
        }
    }

    /// Number of undirected edges `|E|`.
    pub fn num_edges(&self) -> usize {
        match self {
            AnyTopology::Csr(g) => g.num_edges(),
            AnyTopology::Implicit(g) => g.num_edges(),
            AnyTopology::Generated(g) => g.num_edges(),
            AnyTopology::HubCached(g) => g.num_edges(),
        }
    }

    /// Bytes of storage backing the topology (see
    /// [`Topology::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        match self {
            AnyTopology::Csr(g) => g.memory_bytes(),
            AnyTopology::Implicit(g) => g.memory_bytes(),
            AnyTopology::Generated(g) => g.memory_bytes(),
            AnyTopology::HubCached(g) => Topology::memory_bytes(g),
        }
    }

    /// The CSR backend, if that is what this topology holds.
    pub fn as_csr(&self) -> Option<&Graph> {
        match self {
            AnyTopology::Csr(g) => Some(g),
            _ => None,
        }
    }

    /// The implicit backend, if that is what this topology holds.
    pub fn as_implicit(&self) -> Option<&ImplicitGraph> {
        match self {
            AnyTopology::Implicit(g) => Some(g),
            _ => None,
        }
    }

    /// The generated backend, if that is what this topology holds.
    pub fn as_generated(&self) -> Option<&GeneratedGraph> {
        match self {
            AnyTopology::Generated(g) => Some(g),
            _ => None,
        }
    }

    /// The hub-cached backend, if that is what this topology holds.
    pub fn as_hub_cached(&self) -> Option<&HubCachedGraph> {
        match self {
            AnyTopology::HubCached(g) => Some(g),
            _ => None,
        }
    }
}

impl From<Graph> for AnyTopology {
    fn from(graph: Graph) -> Self {
        AnyTopology::Csr(graph)
    }
}

impl From<ImplicitGraph> for AnyTopology {
    fn from(graph: ImplicitGraph) -> Self {
        AnyTopology::Implicit(graph)
    }
}

impl From<GeneratedGraph> for AnyTopology {
    fn from(graph: GeneratedGraph) -> Self {
        AnyTopology::Generated(graph)
    }
}

impl From<HubCachedGraph> for AnyTopology {
    fn from(graph: HubCachedGraph) -> Self {
        AnyTopology::HubCached(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn any_topology_dispatches_to_both_backends() {
        let csr = AnyTopology::from(generators::cycle(10).unwrap());
        let implicit = AnyTopology::from(ImplicitGraph::cycle(10).unwrap());
        assert_eq!(csr.num_vertices(), implicit.num_vertices());
        assert_eq!(csr.num_edges(), implicit.num_edges());
        assert!(csr.as_csr().is_some() && csr.as_implicit().is_none());
        assert!(implicit.as_implicit().is_some() && implicit.as_csr().is_none());
        assert!(csr.memory_bytes() > implicit.memory_bytes());
    }

    #[test]
    fn any_topology_carries_the_generated_backend() {
        let generated = AnyTopology::from(GeneratedGraph::gnp(64, 0.1, 3).unwrap());
        assert_eq!(generated.num_vertices(), 64);
        assert!(generated.as_generated().is_some());
        assert!(generated.as_csr().is_none() && generated.as_implicit().is_none());
        assert_eq!(
            generated.num_edges(),
            generated.as_generated().unwrap().num_edges()
        );
        assert!(generated.memory_bytes() > 0);
    }

    #[test]
    fn any_topology_carries_the_hub_cached_backend() {
        let inner = GeneratedGraph::gnp(64, 0.1, 3).unwrap();
        let cached = AnyTopology::from(HubCachedGraph::with_hub_count(inner, 8));
        assert_eq!(cached.num_vertices(), 64);
        assert!(cached.as_hub_cached().is_some());
        assert!(cached.as_generated().is_none() && cached.as_csr().is_none());
        assert_eq!(
            cached.num_edges(),
            cached.as_hub_cached().unwrap().num_edges()
        );
        assert!(cached.memory_bytes() > 0);
    }

    /// What [`Topology::neighbor_lists`] writes for `vertices`, resolved
    /// as two halves with one block each (as two merge shards would) and
    /// again whole with a reused block, or `None` where it resolves
    /// nothing. The two must agree.
    fn hook_lists<G: Topology>(g: &G, vertices: &[u32], block: &mut DrawBlock) -> Option<Vec<u32>> {
        let degrees = |vs: &[u32]| -> usize { vs.iter().map(|&v| g.degree(v as usize)).sum() };
        let (front, back) = vertices.split_at(vertices.len() / 2);
        let mut halves = vec![u32::MAX; degrees(vertices)];
        let (a, b) = halves.split_at_mut(degrees(front));
        let wrote = g.neighbor_lists(front, a, block);
        assert_eq!(g.neighbor_lists(back, b, &mut DrawBlock::default()), wrote);
        let mut whole = vec![u32::MAX; halves.len()];
        assert_eq!(g.neighbor_lists(vertices, &mut whole, block), wrote);
        if !wrote {
            assert!(halves.iter().chain(&whole).all(|&v| v == u32::MAX));
            return None;
        }
        assert_eq!(halves, whole);
        Some(whole)
    }

    /// Checks the list hook against `for_each_neighbor` over every vertex
    /// in ascending, descending and a scrambled order with repeats.
    fn assert_hook_matches<G: Topology>(name: &str, g: &G, resolves: bool) {
        let n = g.num_vertices() as u32;
        let ascending: Vec<u32> = (0..n).collect();
        let descending: Vec<u32> = (0..n).rev().collect();
        let scrambled: Vec<u32> = (0..2 * n).map(|i| (i * 7919 + 13) % n).collect();
        let mut block = DrawBlock::default();
        for vertices in [&ascending, &descending, &scrambled] {
            let got = hook_lists(g, vertices, &mut block);
            assert_eq!(got.is_some(), resolves, "{name}: whether the hook resolves");
            if let Some(got) = got {
                let mut want = Vec::new();
                for &u in vertices.iter() {
                    g.for_each_neighbor(u as usize, |v| want.push(v as u32));
                }
                assert_eq!(got, want, "{name}");
            }
        }
    }

    #[test]
    fn neighbor_list_hook_matches_enumeration_on_every_backend() {
        use crate::generated::STACK_NEIGHBORS;
        // Vertex 5 is isolated.
        let csr = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        assert_hook_matches("csr", &csr, false);
        assert_hook_matches("implicit", &ImplicitGraph::star(40).unwrap(), false);
        for generated in [
            GeneratedGraph::chung_lu(3_000, 2.1, 16.0, 2).unwrap(),
            GeneratedGraph::gnp(500, 0.004, 9).unwrap(),
        ] {
            let n = generated.num_vertices();
            assert!(
                (0..n).any(|u| generated.degree(u) == 0),
                "an isolated vertex"
            );
            let csr = generated.materialize().unwrap();
            assert_hook_matches("materialized", &csr, false);
            assert_hook_matches("generated", &generated, true);
            for k in [0, n / 64, n] {
                let cached = HubCachedGraph::with_hub_count(generated.clone(), k);
                assert_hook_matches("hub-cached", &cached, true);
            }
        }
        let heavy = GeneratedGraph::chung_lu(3_000, 2.1, 16.0, 2).unwrap();
        assert!((0..3_000).any(|u| heavy.stub_degree(u) > STACK_NEIGHBORS));
    }

    #[test]
    fn trait_defaults_cover_edges_and_vertices() {
        let g = generators::path(4).unwrap();
        let mut edges = Vec::new();
        Topology::for_each_edge(&g, |u, v| edges.push((u, v)));
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(Topology::vertices(&g), 0..4);
        assert_eq!(Topology::total_degree(&g), 6);
    }
}
