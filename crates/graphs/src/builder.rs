//! Incremental construction of [`Graph`] values.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, VertexId};

/// Builder for [`Graph`].
///
/// Collects undirected edges and produces the CSR representation at
/// [`GraphBuilder::build`]. [`GraphBuilder::add_edge`] rejects self-loops and
/// out-of-range endpoints at once. It does not look for repeats: the builder
/// keeps only its edge lists, and [`GraphBuilder::build`] finds a repeated
/// edge in the sorted neighbor lists it produces and reports it as
/// [`GraphError::DuplicateEdge`]. Edges added with
/// [`GraphBuilder::add_edge_dedup`] may repeat any edge; their repeats are
/// dropped at build.
///
/// # Examples
///
/// ```
/// use rumor_graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(2, 3)?;
/// let g = b.build()?;
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Edges from [`GraphBuilder::add_edge`]: a repeat among them is an error.
    edges: Vec<(u32, u32)>,
    /// Edges from [`GraphBuilder::add_edge_dedup`]: repeats are dropped.
    dedup: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Creates a builder for `n` vertices, reserving space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            dedup: Vec::new(),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far, repeats included.
    pub fn num_edges(&self) -> usize {
        self.edges.len() + self.dedup.len()
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if `u == v`. A repeated edge is reported by
    /// [`GraphBuilder::build`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        let edge = self.check(u, v)?;
        self.edges.push(edge);
        Ok(())
    }

    /// Adds the edge `(u, v)`, which may repeat an edge added before or
    /// after; [`GraphBuilder::build`] keeps one copy.
    ///
    /// Useful for generators whose natural description produces some edges
    /// more than once (e.g. overlapping cliques).
    ///
    /// # Errors
    ///
    /// Returns the same range and self-loop errors as [`GraphBuilder::add_edge`].
    pub fn add_edge_dedup(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        let edge = self.check(u, v)?;
        self.dedup.push(edge);
        Ok(())
    }

    /// Adds every edge of `edges`.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`GraphBuilder::add_edge`].
    pub fn add_edges<I>(&mut self, edges: I) -> Result<()>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v)?;
        }
        Ok(())
    }

    /// Adds all `k * (k - 1) / 2` edges of a clique over `vertices`, through
    /// [`GraphBuilder::add_edge_dedup`], so they may overlap existing edges.
    ///
    /// # Errors
    ///
    /// Returns range/self-loop errors if `vertices` contains an out-of-range
    /// index or a repeated vertex.
    pub fn add_clique(&mut self, vertices: &[VertexId]) -> Result<()> {
        for (i, &u) in vertices.iter().enumerate() {
            for &v in &vertices[i + 1..] {
                self.add_edge_dedup(u, v)?;
            }
        }
        Ok(())
    }

    /// Finalizes the builder into an immutable CSR [`Graph`]: a counting sort
    /// of the half-edges into rows, a sort of each row, and one scan for
    /// repeats. No hash set is built.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] for the first edge (in vertex
    /// order) that [`GraphBuilder::add_edge`] added more than once.
    pub fn build(self) -> Result<Graph> {
        let (offsets, adjacency) = sorted_rows(self.n, &self.edges);
        for (u, row) in offsets.windows(2).enumerate() {
            let row = &adjacency[row[0] as usize..row[1] as usize];
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                let v = w[0] as usize;
                return Err(GraphError::DuplicateEdge {
                    u: u.min(v),
                    v: u.max(v),
                });
            }
        }
        if self.dedup.is_empty() {
            let m = self.edges.len();
            return Ok(Graph::from_csr(offsets, adjacency, m));
        }
        let (dedup_offsets, dedup_adjacency) = sorted_rows(self.n, &self.dedup);
        let mut merged_offsets = Vec::with_capacity(self.n + 1);
        let mut merged = Vec::with_capacity(adjacency.len() + dedup_adjacency.len());
        merged_offsets.push(0);
        for u in 0..self.n {
            let a = &adjacency[offsets[u] as usize..offsets[u + 1] as usize];
            let b = &dedup_adjacency[dedup_offsets[u] as usize..dedup_offsets[u + 1] as usize];
            let row_start = merged.len();
            let mut i = 0;
            for &v in b {
                while i < a.len() && a[i] <= v {
                    merged.push(a[i]);
                    i += 1;
                }
                if merged[row_start..].last() != Some(&v) {
                    merged.push(v);
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged_offsets.push(merged.len() as u32);
        }
        let m = merged.len() / 2;
        Ok(Graph::from_csr(merged_offsets, merged, m))
    }

    /// The edge `(u, v)` after the range and self-loop checks.
    fn check(&self, u: VertexId, v: VertexId) -> Result<(u32, u32)> {
        for vertex in [u, v] {
            if vertex >= self.n {
                return Err(GraphError::VertexOutOfRange { vertex, n: self.n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok((u as u32, v as u32))
    }
}

/// CSR rows of `edges` on `n` vertices: a counting sort of both half-edges
/// of every edge by their tail, then a sort of each row. Repeats stay in.
fn sorted_rows(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    assert!(
        2 * edges.len() <= u32::MAX as usize,
        "adjacency array exceeds u32 addressing"
    );
    let mut offsets = vec![0u32; n + 1];
    for &(u, v) in edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut adjacency = vec![0u32; 2 * edges.len()];
    for &(u, v) in edges {
        adjacency[cursor[u as usize] as usize] = v;
        cursor[u as usize] += 1;
        adjacency[cursor[v as usize] as usize] = u;
        cursor[v as usize] += 1;
    }
    for row in offsets.windows(2) {
        adjacency[row[0] as usize..row[1] as usize].sort_unstable();
    }
    (offsets, adjacency)
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    /// Adds edges, panicking on invalid edges.
    ///
    /// Prefer [`GraphBuilder::add_edges`] when the input is untrusted.
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (u, v) in iter {
            self.add_edge(u, v)
                .expect("invalid edge passed to GraphBuilder::extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_adjacency() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(0, 3).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn repeated_add_edge_fails_at_build_in_both_orientations() {
        for repeat in [(1, 0), (0, 1)] {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 1).unwrap();
            b.add_edge(1, 2).unwrap();
            b.add_edge(repeat.0, repeat.1).unwrap();
            assert_eq!(b.build(), Err(GraphError::DuplicateEdge { u: 0, v: 1 }));
        }
    }

    #[test]
    fn add_edge_rejects_self_loops_and_out_of_range_endpoints_at_once() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
        assert_eq!(
            b.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        );
        assert_eq!(
            b.add_edge(7, 0),
            Err(GraphError::VertexOutOfRange { vertex: 7, n: 3 })
        );
        assert_eq!(b.num_edges(), 0);
    }

    #[test]
    fn add_edge_dedup_repeats_are_dropped_at_build() {
        let mut b = GraphBuilder::new(4);
        b.add_edge_dedup(0, 1).unwrap();
        b.add_edge_dedup(1, 0).unwrap();
        b.add_edge_dedup(2, 3).unwrap();
        b.add_edge(3, 2).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge_dedup(2, 1).unwrap();
        assert_eq!(b.num_edges(), 6);
        let g = b.build().unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn add_edge_dedup_does_not_excuse_a_repeated_add_edge() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1).unwrap();
        b.add_edge_dedup(1, 2).unwrap();
        b.add_edge(1, 2).unwrap();
        assert_eq!(b.build(), Err(GraphError::DuplicateEdge { u: 1, v: 2 }));
    }

    #[test]
    fn add_edge_dedup_still_rejects_self_loops() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge_dedup(2, 2),
            Err(GraphError::SelfLoop { vertex: 2 })
        ));
    }

    #[test]
    fn add_clique_creates_all_pairs() {
        let mut b = GraphBuilder::new(5);
        b.add_clique(&[1, 2, 3, 4]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 0);
        for u in 1..5 {
            assert_eq!(g.degree(u), 3);
        }
    }

    #[test]
    fn add_clique_tolerates_existing_edges() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_clique(&[0, 1, 2]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn add_edges_bulk() {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(b.num_edges(), 3);
    }

    #[test]
    fn extend_adds_edges() {
        let mut b = GraphBuilder::new(3);
        b.extend([(0, 1), (1, 2)]);
        assert_eq!(b.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid edge")]
    fn extend_panics_on_invalid_edge() {
        let mut b = GraphBuilder::new(2);
        b.extend([(0, 5)]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(10, 20);
        assert_eq!(b.num_vertices(), 10);
        b.add_edge(0, 9).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn built_graph_validates() {
        let mut b = GraphBuilder::new(6);
        b.add_clique(&[0, 1, 2]).unwrap();
        b.add_edge(2, 3).unwrap();
        b.add_edge(3, 4).unwrap();
        b.add_edge(4, 5).unwrap();
        let g = b.build().unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 6);
    }
}
