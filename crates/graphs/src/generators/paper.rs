//! The separation-example graphs of the paper's Figure 1(c)–(e).
//!
//! Figure 1(a) (star) and 1(b) (double star) are in
//! [`basic`](crate::generators::basic); this module holds the three composite
//! families that need structural metadata alongside the graph:
//!
//! * the *heavy binary tree* `B_n` (Fig. 1c, Lemma 4),
//! * the *Siamese heavy binary tree* `D_n` (Fig. 1d, Lemma 8), and
//! * the *cycle of stars of cliques* (Fig. 1e, Lemma 9).

use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::{Graph, VertexId};

/// The heavy binary tree `B_n` of Fig. 1(c): a balanced binary tree whose
/// leaves are additionally connected into a clique.
///
/// `push` is fast (`O(log n)`), `visit-exchange` is slow (`Ω(n)`) because the
/// stationary distribution concentrates almost all agents on the leaf clique
/// and the root is visited only every `Ω(n)` rounds, and `meet-exchange`
/// started at a leaf is fast (`O(log n)`).
///
/// Vertices use heap numbering: the root is `0`, vertex `u` has children
/// `2u + 1`, `2u + 2`, and the leaves are the last `2^depth` vertices.
#[derive(Debug, Clone)]
pub struct HeavyBinaryTree {
    graph: Graph,
    depth: u32,
}

impl HeavyBinaryTree {
    /// Builds the heavy binary tree of the given depth
    /// (`2^(depth+1) - 1` vertices).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if `depth == 0` or
    /// `depth > 28`.
    pub fn new(depth: u32) -> Result<Self> {
        if depth == 0 || depth > 28 {
            return Err(GraphError::InvalidParameters {
                reason: "heavy binary tree requires 1 <= depth <= 28".into(),
            });
        }
        let n = (1usize << (depth + 1)) - 1;
        let first_leaf = (1usize << depth) - 1;
        let leaf_count = n - first_leaf;
        let mut b = GraphBuilder::with_capacity(n, (n - 1) + leaf_count * (leaf_count - 1) / 2);
        for u in 1..n {
            b.add_edge(u, (u - 1) / 2)?;
        }
        let leaves: Vec<VertexId> = (first_leaf..n).collect();
        b.add_clique(&leaves)?;
        Ok(HeavyBinaryTree {
            graph: b.build()?,
            depth,
        })
    }

    /// Builds the smallest heavy binary tree with at least `min_vertices`
    /// vertices (convenience for size sweeps).
    ///
    /// # Errors
    ///
    /// Propagates the constraints of [`HeavyBinaryTree::new`].
    pub fn with_at_least(min_vertices: usize) -> Result<Self> {
        let mut depth = 1;
        while ((1usize << (depth + 1)) - 1) < min_vertices {
            depth += 1;
        }
        Self::new(depth)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes `self`, returning the underlying graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Tree depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The root vertex (the slow bottleneck for `visit-exchange`).
    pub fn root(&self) -> VertexId {
        0
    }

    /// The leaf vertices (which induce a clique).
    pub fn leaves(&self) -> std::ops::Range<VertexId> {
        let n = self.graph.num_vertices();
        ((1usize << self.depth) - 1)..n
    }

    /// An arbitrary leaf, used as the source in Lemma 4(c).
    pub fn a_leaf(&self) -> VertexId {
        self.leaves().start
    }

    /// The internal (non-leaf) vertices.
    pub fn internal_vertices(&self) -> std::ops::Range<VertexId> {
        0..((1usize << self.depth) - 1)
    }
}

/// The Siamese heavy binary tree `D_n` of Fig. 1(d): two heavy binary trees
/// whose roots are merged into a single vertex.
///
/// Here *both* agent protocols are slow (`Ω(n)` in expectation) because the
/// rumor must cross the merged root, which agents rarely visit; `push` is
/// still `O(log n)`.
#[derive(Debug, Clone)]
pub struct SiameseHeavyBinaryTree {
    graph: Graph,
    depth: u32,
    tree_size: usize,
}

impl SiameseHeavyBinaryTree {
    /// Builds the Siamese heavy binary tree whose halves have the given depth.
    ///
    /// The shared root is vertex `0`. The first copy occupies vertices
    /// `0..T` in heap order (`T = 2^(depth+1) - 1`); the second copy's
    /// non-root vertices occupy `T..2T - 1`, mirroring the heap order of the
    /// first copy shifted by `T - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if `depth == 0` or `depth > 27`.
    pub fn new(depth: u32) -> Result<Self> {
        if depth == 0 || depth > 27 {
            return Err(GraphError::InvalidParameters {
                reason: "siamese heavy binary tree requires 1 <= depth <= 27".into(),
            });
        }
        let tree_size = (1usize << (depth + 1)) - 1;
        let n = 2 * tree_size - 1;
        let first_leaf = (1usize << depth) - 1;
        let leaf_count = tree_size - first_leaf;
        let mut b = GraphBuilder::with_capacity(
            n,
            2 * ((tree_size - 1) + leaf_count * (leaf_count - 1) / 2),
        );

        // First copy: heap numbering 0..tree_size.
        for u in 1..tree_size {
            b.add_edge(u, (u - 1) / 2)?;
        }
        let leaves_a: Vec<VertexId> = (first_leaf..tree_size).collect();
        b.add_clique(&leaves_a)?;

        // Second copy: vertex `u` of the abstract tree (1..tree_size) maps to
        // `tree_size - 1 + u`; the abstract root 0 maps to the shared root 0.
        let map = |u: usize| if u == 0 { 0 } else { tree_size - 1 + u };
        for u in 1..tree_size {
            b.add_edge(map(u), map((u - 1) / 2))?;
        }
        let leaves_b: Vec<VertexId> = (first_leaf..tree_size).map(map).collect();
        b.add_clique(&leaves_b)?;

        Ok(SiameseHeavyBinaryTree {
            graph: b.build()?,
            depth,
            tree_size,
        })
    }

    /// Builds the smallest instance with at least `min_vertices` vertices.
    ///
    /// # Errors
    ///
    /// Propagates the constraints of [`SiameseHeavyBinaryTree::new`].
    pub fn with_at_least(min_vertices: usize) -> Result<Self> {
        let mut depth = 1;
        while 2 * ((1usize << (depth + 1)) - 1) - 1 < min_vertices {
            depth += 1;
        }
        Self::new(depth)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes `self`, returning the underlying graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Depth of each half.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The shared root vertex.
    pub fn root(&self) -> VertexId {
        0
    }

    /// Leaves of the first copy.
    pub fn leaves_first(&self) -> std::ops::Range<VertexId> {
        ((1usize << self.depth) - 1)..self.tree_size
    }

    /// Leaves of the second copy.
    pub fn leaves_second(&self) -> std::ops::Range<VertexId> {
        let first_leaf = (1usize << self.depth) - 1;
        (self.tree_size - 1 + first_leaf)..self.graph.num_vertices()
    }

    /// An arbitrary leaf of the first copy (a natural source choice).
    pub fn a_leaf(&self) -> VertexId {
        self.leaves_first().start
    }
}

/// The cycle-of-stars-of-cliques graph of Fig. 1(e) and Lemma 9: an (almost)
/// regular graph on which `visit-exchange` beats `meet-exchange` by a
/// `Θ(log n)` factor.
///
/// Structure, for a parameter `m` (the paper uses `m = n^{1/3}`):
/// a cycle of `m` *ring* vertices `c_i`; each `c_i` is the center of a star
/// with `m` *leaf* vertices `l_{i,j}`; and each `l_{i,j}` is attached to a
/// clique of `m` extra vertices `q_{i,j,k}` (so each `Q_{i,j}` is an
/// `(m+1)`-clique containing `l_{i,j}`).
#[derive(Debug, Clone)]
pub struct CycleOfStarsOfCliques {
    graph: Graph,
    m: usize,
}

impl CycleOfStarsOfCliques {
    /// Builds the graph with cycle length / star size / clique size all `m`.
    ///
    /// Total vertex count is `m + m^2 + m^3 = Θ(m^3)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if `m < 3` (the cycle needs
    /// at least three vertices) or if `m > 1000` (size safety valve).
    pub fn new(m: usize) -> Result<Self> {
        if m < 3 {
            return Err(GraphError::InvalidParameters {
                reason: "cycle_of_stars_of_cliques requires m >= 3".into(),
            });
        }
        if m > 1000 {
            return Err(GraphError::InvalidParameters {
                reason: "cycle_of_stars_of_cliques requires m <= 1000".into(),
            });
        }
        let n = m + m * m + m * m * m;
        let edge_estimate = m + m * m + m * m * (m * (m + 1) / 2);
        let mut b = GraphBuilder::with_capacity(n, edge_estimate);

        // Ring vertices c_i are 0..m.
        for i in 0..m {
            b.add_edge(i, (i + 1) % m)?;
        }
        // Star leaves l_{i,j} are m + i*m + j.
        for i in 0..m {
            for j in 0..m {
                b.add_edge(i, Self::leaf_index(m, i, j))?;
            }
        }
        // Clique vertices q_{i,j,k} are m + m^2 + (i*m + j)*m + k; each clique
        // Q_{i,j} is {l_{i,j}} ∪ {q_{i,j,*}}.
        for i in 0..m {
            for j in 0..m {
                let mut clique = Vec::with_capacity(m + 1);
                clique.push(Self::leaf_index(m, i, j));
                for k in 0..m {
                    clique.push(Self::clique_index(m, i, j, k));
                }
                b.add_clique(&clique)?;
            }
        }
        Ok(CycleOfStarsOfCliques {
            graph: b.build()?,
            m,
        })
    }

    /// Builds the smallest instance with at least `min_vertices` vertices,
    /// i.e. `m ≈ min_vertices^{1/3}`.
    ///
    /// # Errors
    ///
    /// Propagates the constraints of [`CycleOfStarsOfCliques::new`].
    pub fn with_at_least(min_vertices: usize) -> Result<Self> {
        let mut m = 3usize;
        while m + m * m + m * m * m < min_vertices {
            m += 1;
        }
        Self::new(m)
    }

    fn leaf_index(m: usize, i: usize, j: usize) -> VertexId {
        m + i * m + j
    }

    fn clique_index(m: usize, i: usize, j: usize, k: usize) -> VertexId {
        m + m * m + (i * m + j) * m + k
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes `self`, returning the underlying graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// The structural parameter `m` (cycle length = star size = clique size).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The `i`-th ring vertex `c_i`.
    pub fn ring_vertex(&self, i: usize) -> VertexId {
        assert!(i < self.m);
        i
    }

    /// All ring vertices.
    pub fn ring_vertices(&self) -> std::ops::Range<VertexId> {
        0..self.m
    }

    /// The star-leaf vertex `l_{i,j}` (also a member of clique `Q_{i,j}`).
    pub fn leaf_vertex(&self, i: usize, j: usize) -> VertexId {
        assert!(i < self.m && j < self.m);
        Self::leaf_index(self.m, i, j)
    }

    /// The clique-interior vertex `q_{i,j,k}`.
    pub fn clique_vertex(&self, i: usize, j: usize, k: usize) -> VertexId {
        assert!(i < self.m && j < self.m && k < self.m);
        Self::clique_index(self.m, i, j, k)
    }

    /// A natural source vertex inside clique `Q_{0,0}`, as in Lemma 9.
    pub fn a_clique_source(&self) -> VertexId {
        self.clique_vertex(0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::is_connected;

    #[test]
    fn heavy_tree_shape() {
        let t = HeavyBinaryTree::new(4).unwrap();
        let g = t.graph();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 31);
        // Tree edges + clique over 16 leaves.
        assert_eq!(g.num_edges(), 30 + 16 * 15 / 2);
        assert_eq!(t.leaves(), 15..31);
        assert_eq!(t.root(), 0);
        assert!(is_connected(g));
        // Root degree 2, internal degree 3, leaf degree = 1 (parent) + 15 (clique).
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        for leaf in t.leaves() {
            assert_eq!(g.degree(leaf), 16);
        }
    }

    #[test]
    fn heavy_tree_volume_concentrates_on_leaves() {
        let t = HeavyBinaryTree::new(6).unwrap();
        let g = t.graph();
        let leaf_degree: usize = t.leaves().map(|u| g.degree(u)).sum();
        let total = g.total_degree();
        assert!(leaf_degree as f64 / total as f64 > 0.9);
    }

    #[test]
    fn heavy_tree_with_at_least() {
        let t = HeavyBinaryTree::with_at_least(100).unwrap();
        assert!(t.graph().num_vertices() >= 100);
        let smaller = HeavyBinaryTree::new(t.depth() - 1).unwrap();
        assert!(smaller.graph().num_vertices() < 100);
    }

    #[test]
    fn heavy_tree_rejects_bad_depth() {
        assert!(HeavyBinaryTree::new(0).is_err());
        assert!(HeavyBinaryTree::new(29).is_err());
    }

    #[test]
    fn siamese_shape() {
        let s = SiameseHeavyBinaryTree::new(3).unwrap();
        let g = s.graph();
        g.validate().unwrap();
        // Two copies of 15 vertices sharing the root.
        assert_eq!(g.num_vertices(), 29);
        assert!(is_connected(g));
        // Shared root has degree 4 (two children per copy).
        assert_eq!(g.degree(s.root()), 4);
        assert_eq!(s.leaves_first().len(), 8);
        assert_eq!(s.leaves_second().len(), 8);
        for leaf in s.leaves_first().chain(s.leaves_second()) {
            assert_eq!(g.degree(leaf), 8); // 1 parent + 7 clique neighbors
        }
    }

    #[test]
    fn siamese_halves_are_disjoint_except_root() {
        let s = SiameseHeavyBinaryTree::new(4).unwrap();
        let g = s.graph();
        // No edge between a first-copy leaf and a second-copy leaf.
        for u in s.leaves_first() {
            for v in s.leaves_second() {
                assert!(!g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn siamese_with_at_least() {
        let s = SiameseHeavyBinaryTree::with_at_least(200).unwrap();
        assert!(s.graph().num_vertices() >= 200);
    }

    #[test]
    fn siamese_rejects_bad_depth() {
        assert!(SiameseHeavyBinaryTree::new(0).is_err());
        assert!(SiameseHeavyBinaryTree::new(28).is_err());
    }

    #[test]
    fn cycle_of_stars_of_cliques_shape() {
        let m = 4;
        let c = CycleOfStarsOfCliques::new(m).unwrap();
        let g = c.graph();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), m + m * m + m * m * m);
        assert!(is_connected(g));
        // Ring vertex degree: 2 ring neighbors + m star leaves.
        for i in 0..m {
            assert_eq!(g.degree(c.ring_vertex(i)), 2 + m);
        }
        // Leaf vertex degree: ring center + m clique members.
        assert_eq!(g.degree(c.leaf_vertex(1, 2)), 1 + m);
        // Clique-interior vertex degree: m (other clique members + leaf).
        assert_eq!(g.degree(c.clique_vertex(1, 2, 3)), m);
    }

    #[test]
    fn cycle_of_stars_is_almost_regular() {
        let c = CycleOfStarsOfCliques::new(8).unwrap();
        let g = c.graph();
        // All degrees are within a factor ~1.25 of m = 8: the graph is
        // "(almost) regular" as the paper says.
        assert!(g.min_degree().unwrap() >= 8);
        assert!(g.max_degree().unwrap() <= 10);
    }

    #[test]
    fn cycle_of_stars_with_at_least() {
        let c = CycleOfStarsOfCliques::with_at_least(500).unwrap();
        assert!(c.graph().num_vertices() >= 500);
        assert!(c.m() >= 3);
    }

    #[test]
    fn cycle_of_stars_rejects_bad_m() {
        assert!(CycleOfStarsOfCliques::new(2).is_err());
        assert!(CycleOfStarsOfCliques::new(1001).is_err());
    }

    #[test]
    fn clique_membership_is_correct() {
        let c = CycleOfStarsOfCliques::new(5).unwrap();
        let g = c.graph();
        // Every pair inside clique Q_{2,3} is adjacent.
        let mut members = vec![c.leaf_vertex(2, 3)];
        members.extend((0..5).map(|k| c.clique_vertex(2, 3, k)));
        for (a, &u) in members.iter().enumerate() {
            for &v in &members[a + 1..] {
                assert!(g.has_edge(u, v), "missing clique edge ({u}, {v})");
            }
        }
        // But vertices in different cliques are not adjacent.
        assert!(!g.has_edge(c.clique_vertex(2, 3, 0), c.clique_vertex(2, 4, 0)));
    }
}
