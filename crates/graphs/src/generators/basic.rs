//! Elementary graph families: paths, cycles, cliques, stars, trees, grids.
//!
//! Vertex numbering conventions are documented per generator so that callers
//! (e.g. the experiment harness) can pick specific source vertices such as
//! "the center of the star" or "a leaf of the tree".

use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// A path `0 - 1 - ... - (n-1)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n == 0`.
///
/// # Examples
///
/// ```
/// let g = rumor_graphs::generators::path(5)?;
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.degree(2), 2);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub fn path(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "path requires n >= 1".into(),
        });
    }
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 1..n {
        b.add_edge(u - 1, u)?;
    }
    b.build()
}

/// A cycle `0 - 1 - ... - (n-1) - 0`. The smallest 2-regular graph family.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "cycle requires n >= 3".into(),
        });
    }
    let mut b = GraphBuilder::with_capacity(n, n);
    for u in 1..n {
        b.add_edge(u - 1, u)?;
    }
    b.add_edge(n - 1, 0)?;
    b.build()
}

/// The complete graph `K_n`, an `(n-1)`-regular graph.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n < 2`.
pub fn complete(n: usize) -> Result<Graph> {
    if n < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "complete requires n >= 2".into(),
        });
    }
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    let vertices: Vec<usize> = (0..n).collect();
    b.add_clique(&vertices)?;
    b.build()
}

/// The star `S_n` of Fig. 1(a): one center (vertex `0`) connected to
/// `leaves` leaf vertices `1..=leaves`.
///
/// On this graph `push` needs `Ω(n log n)` rounds (coupon collector at the
/// center) while `push-pull`, `visit-exchange` and `meet-exchange` are fast.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `leaves == 0`.
pub fn star(leaves: usize) -> Result<Graph> {
    if leaves == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "star requires >= 1 leaf".into(),
        });
    }
    let n = leaves + 1;
    let mut b = GraphBuilder::with_capacity(n, leaves);
    for leaf in 1..n {
        b.add_edge(0, leaf)?;
    }
    b.build()
}

/// The center vertex of a graph produced by [`star`].
pub const STAR_CENTER: usize = 0;

/// The double star `S²_n` of Fig. 1(b): two stars whose centers are joined by
/// an edge. Vertex `0` and vertex `1` are the two centers; vertices
/// `2 ..= leaves_per_star + 1` hang off center `0` and the rest off center `1`.
///
/// On this graph even `push-pull` needs `Ω(n)` rounds in expectation (the
/// center-center edge is sampled with probability `O(1/n)` per round), while
/// both agent-based protocols finish in `O(log n)` rounds w.h.p.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `leaves_per_star == 0`.
pub fn double_star(leaves_per_star: usize) -> Result<Graph> {
    if leaves_per_star == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "double_star requires >= 1 leaf per star".into(),
        });
    }
    let n = 2 * leaves_per_star + 2;
    let mut b = GraphBuilder::with_capacity(n, 2 * leaves_per_star + 1);
    b.add_edge(DOUBLE_STAR_CENTER_A, DOUBLE_STAR_CENTER_B)?;
    for i in 0..leaves_per_star {
        b.add_edge(DOUBLE_STAR_CENTER_A, 2 + i)?;
    }
    for i in 0..leaves_per_star {
        b.add_edge(DOUBLE_STAR_CENTER_B, 2 + leaves_per_star + i)?;
    }
    b.build()
}

/// First center of a [`double_star`] graph.
pub const DOUBLE_STAR_CENTER_A: usize = 0;
/// Second center of a [`double_star`] graph.
pub const DOUBLE_STAR_CENTER_B: usize = 1;

/// A complete (balanced) binary tree with `n = 2^(depth+1) - 1` vertices in
/// heap order: vertex `0` is the root and vertex `u` has children `2u + 1`
/// and `2u + 2`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `depth > 40` (would overflow
/// practical sizes).
pub fn binary_tree(depth: u32) -> Result<Graph> {
    if depth > 40 {
        return Err(GraphError::InvalidParameters {
            reason: "binary_tree depth too large".into(),
        });
    }
    let n = (1usize << (depth + 1)) - 1;
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for u in 1..n {
        b.add_edge(u, (u - 1) / 2)?;
    }
    b.build()
}

/// Number of vertices in a complete binary tree of the given depth.
pub fn binary_tree_size(depth: u32) -> usize {
    (1usize << (depth + 1)) - 1
}

/// Indices of the leaves of a [`binary_tree`] of the given depth
/// (the last `2^depth` heap positions).
pub fn binary_tree_leaves(depth: u32) -> std::ops::Range<usize> {
    let n = binary_tree_size(depth);
    let first_leaf = (1usize << depth) - 1;
    first_leaf..n
}

/// A 2-dimensional grid with `rows * cols` vertices. Vertex `(r, c)` is
/// numbered `r * cols + c`. Not regular (border effects); see [`torus`] for
/// the 4-regular variant.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if either dimension is `0`.
pub fn grid(rows: usize, cols: usize) -> Result<Graph> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "grid requires rows, cols >= 1".into(),
        });
    }
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let u = r * cols + c;
            if c + 1 < cols {
                b.add_edge(u, u + 1)?;
            }
            if r + 1 < rows {
                b.add_edge(u, u + cols)?;
            }
        }
    }
    b.build()
}

/// A 2-dimensional torus (grid with wrap-around), 4-regular when both
/// dimensions are at least 3.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if either dimension is `< 3`.
pub fn torus(rows: usize, cols: usize) -> Result<Graph> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "torus requires rows, cols >= 3".into(),
        });
    }
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let u = r * cols + c;
            let right = r * cols + (c + 1) % cols;
            let down = ((r + 1) % rows) * cols + c;
            b.add_edge_dedup(u, right)?;
            b.add_edge_dedup(u, down)?;
        }
    }
    b.build()
}

/// The `dim`-dimensional hypercube: `2^dim` vertices, each of degree `dim`.
/// Vertices are adjacent iff their indices differ in exactly one bit.
///
/// A standard regular graph with `d = log2 n`, i.e. exactly the logarithmic
/// degree regime of the paper's Theorem 1.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `dim == 0` or `dim > 30`.
pub fn hypercube(dim: u32) -> Result<Graph> {
    if dim == 0 || dim > 30 {
        return Err(GraphError::InvalidParameters {
            reason: "hypercube requires 1 <= dim <= 30".into(),
        });
    }
    let n = 1usize << dim;
    let mut b = GraphBuilder::with_capacity(n, n * dim as usize / 2);
    for u in 0..n {
        for bit in 0..dim {
            let v = u ^ (1usize << bit);
            if u < v {
                b.add_edge(u, v)?;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::is_connected;

    #[test]
    fn path_shape() {
        let g = path(6).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.degree(3), 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn path_of_one_vertex() {
        let g = path(1).unwrap();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn path_rejects_zero() {
        assert!(path(0).is_err());
    }

    #[test]
    fn cycle_is_two_regular() {
        let g = cycle(7).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.regular_degree(), Some(2));
        assert!(is_connected(&g));
    }

    #[test]
    fn cycle_rejects_small() {
        assert!(cycle(2).is_err());
    }

    #[test]
    fn complete_is_n_minus_one_regular() {
        let g = complete(6).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.regular_degree(), Some(5));
    }

    #[test]
    fn complete_rejects_single_vertex() {
        assert!(complete(1).is_err());
    }

    #[test]
    fn star_shape() {
        let g = star(9).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.degree(STAR_CENTER), 9);
        for leaf in 1..10 {
            assert_eq!(g.degree(leaf), 1);
            assert!(g.has_edge(STAR_CENTER, leaf));
        }
    }

    #[test]
    fn star_rejects_zero_leaves() {
        assert!(star(0).is_err());
    }

    #[test]
    fn double_star_shape() {
        let l = 5;
        let g = double_star(l).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 2 * l + 2);
        assert_eq!(g.num_edges(), 2 * l + 1);
        assert_eq!(g.degree(DOUBLE_STAR_CENTER_A), l + 1);
        assert_eq!(g.degree(DOUBLE_STAR_CENTER_B), l + 1);
        assert!(g.has_edge(DOUBLE_STAR_CENTER_A, DOUBLE_STAR_CENTER_B));
        assert!(is_connected(&g));
        // Leaves of A attach only to A, leaves of B only to B.
        for i in 0..l {
            assert!(g.has_edge(DOUBLE_STAR_CENTER_A, 2 + i));
            assert!(g.has_edge(DOUBLE_STAR_CENTER_B, 2 + l + i));
        }
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(3).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.degree(0), 2);
        assert_eq!(binary_tree_leaves(3), 7..15);
        for leaf in binary_tree_leaves(3) {
            assert_eq!(g.degree(leaf), 1);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn binary_tree_size_matches() {
        assert_eq!(binary_tree_size(0), 1);
        assert_eq!(binary_tree_size(4), 31);
        assert_eq!(binary_tree(4).unwrap().num_vertices(), 31);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(1), 3); // border
        assert_eq!(g.degree(5), 4); // interior
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_is_four_regular() {
        let g = torus(4, 5).unwrap();
        g.validate().unwrap();
        assert_eq!(g.regular_degree(), Some(4));
        assert_eq!(g.num_edges(), 2 * 20);
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_rejects_small_dimensions() {
        assert!(torus(2, 5).is_err());
        assert!(torus(5, 2).is_err());
    }

    #[test]
    fn hypercube_is_log_regular() {
        let g = hypercube(5).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 32);
        assert_eq!(g.regular_degree(), Some(5));
        assert_eq!(g.num_edges(), 32 * 5 / 2);
        assert!(is_connected(&g));
    }

    #[test]
    fn hypercube_adjacency_is_single_bit_flips() {
        let g = hypercube(4).unwrap();
        for (u, v) in g.edges() {
            assert_eq!((u ^ v).count_ones(), 1);
        }
    }

    #[test]
    fn hypercube_rejects_bad_dims() {
        assert!(hypercube(0).is_err());
        assert!(hypercube(31).is_err());
    }
}
