//! Random graph models used as additional non-regular test beds.

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// Erdős–Rényi random graph `G(n, p)`: each of the `n(n-1)/2` possible edges
/// is present independently with probability `p`.
///
/// The result may be disconnected; use
/// [`connected_erdos_renyi`] when a connected instance is required.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n == 0` or `p` is not in
/// `[0, 1]`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let g = rumor_graphs::generators::erdos_renyi(50, 0.2, &mut rng)?;
/// assert_eq!(g.num_vertices(), 50);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "erdos_renyi requires n >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameters {
            reason: format!("erdos_renyi requires p in [0, 1], got {p}"),
        });
    }
    let expected_edges = (p * (n * (n - 1) / 2) as f64).ceil() as usize;
    let mut b = GraphBuilder::with_capacity(n, expected_edges);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u, v)?;
            }
        }
    }
    b.build()
}

/// Maximum number of retries for [`connected_erdos_renyi`].
const ER_CONNECT_MAX_ATTEMPTS: usize = 100;

/// Erdős–Rényi `G(n, p)` conditioned on being connected, by rejection sampling.
///
/// # Errors
///
/// In addition to the parameter errors of [`erdos_renyi`], returns
/// [`GraphError::GenerationFailed`] if no connected instance appears within
/// the retry budget (use `p` comfortably above the `ln n / n` connectivity
/// threshold).
pub fn connected_erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    for _ in 0..ER_CONNECT_MAX_ATTEMPTS {
        let g = erdos_renyi(n, p, rng)?;
        if n <= 1 || crate::algorithms::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed {
        reason: format!(
            "no connected G({n}, {p}) instance in {ER_CONNECT_MAX_ATTEMPTS} attempts; increase p"
        ),
    })
}

/// A "barbell": two `k`-cliques joined by a single bridge edge.
///
/// A classic worst case for push-pull-style protocols relative to their
/// bandwidth-fair alternatives: the bridge is sampled with probability
/// `Θ(1/k)` per round per endpoint.
///
/// Vertices `0..k` form the first clique, `k..2k` the second; the bridge is
/// `(k - 1, k)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `k < 2`.
pub fn barbell(k: usize) -> Result<Graph> {
    if k < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "barbell requires k >= 2".into(),
        });
    }
    let n = 2 * k;
    let mut b = GraphBuilder::with_capacity(n, k * (k - 1) + 1);
    let left: Vec<usize> = (0..k).collect();
    let right: Vec<usize> = (k..n).collect();
    b.add_clique(&left)?;
    b.add_clique(&right)?;
    b.add_edge(k - 1, k)?;
    b.build()
}

/// A "lollipop": a `k`-clique with a path of `tail` extra vertices attached.
///
/// Vertices `0..k` form the clique; the tail is `k, k+1, ..., k+tail-1`
/// attached at clique vertex `k - 1`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `k < 2` or `tail == 0`.
pub fn lollipop(k: usize, tail: usize) -> Result<Graph> {
    if k < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "lollipop requires k >= 2".into(),
        });
    }
    if tail == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "lollipop requires tail >= 1".into(),
        });
    }
    let n = k + tail;
    let mut b = GraphBuilder::with_capacity(n, k * (k - 1) / 2 + tail);
    let clique: Vec<usize> = (0..k).collect();
    b.add_clique(&clique)?;
    b.add_edge(k - 1, k)?;
    for u in k + 1..n {
        b.add_edge(u - 1, u)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = erdos_renyi(20, 0.0, &mut rng).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(20, 1.0, &mut rng).unwrap();
        assert_eq!(full.num_edges(), 20 * 19 / 2);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200;
        let p = 0.1;
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.15 * expected,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn erdos_renyi_rejects_invalid() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(erdos_renyi(0, 0.5, &mut rng).is_err());
        assert!(erdos_renyi(10, 1.5, &mut rng).is_err());
        assert!(erdos_renyi(10, -0.1, &mut rng).is_err());
    }

    #[test]
    fn connected_erdos_renyi_is_connected() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = connected_erdos_renyi(80, 0.1, &mut rng).unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn connected_erdos_renyi_gives_up_for_tiny_p() {
        let mut rng = StdRng::seed_from_u64(5);
        let res = connected_erdos_renyi(200, 0.0, &mut rng);
        assert!(matches!(res, Err(GraphError::GenerationFailed { .. })));
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 2 * 10 + 1);
        assert!(g.has_edge(4, 5));
        assert_eq!(g.degree(4), 5);
        assert_eq!(g.degree(0), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn barbell_rejects_small_k() {
        assert!(barbell(1).is_err());
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 6 + 3);
        assert_eq!(g.degree(6), 1);
        assert_eq!(g.degree(3), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn lollipop_rejects_invalid() {
        assert!(lollipop(1, 3).is_err());
        assert!(lollipop(4, 0).is_err());
    }
}
