//! Canonical little-endian CSR wire/disk encoding for [`Graph`].
//!
//! The encoding is the content-addressed interchange format of the serve
//! stack's remote topology upload: a digest over these bytes identifies a
//! graph, so the encoding must be **canonical** — two structurally equal
//! graphs always serialize to the same byte string. That falls out of the
//! CSR invariants [`Graph`] already maintains (sorted neighbor lists, dense
//! offsets) plus a fixed little-endian layout:
//!
//! ```text
//! magic    4 bytes   "RCSR"
//! version  u32 LE    1
//! n        u64 LE    number of vertices
//! m        u64 LE    number of undirected edges
//! offsets  (n+1) × u32 LE   offsets[0] = 0, offsets[n] = 2m
//! adjacency 2m × u32 LE     per-vertex slices sorted strictly ascending
//! ```
//!
//! [`decode_csr`] trusts nothing: it re-validates every structural invariant
//! (exact length, monotone offsets, sorted neighbor lists, vertex range, no
//! self-loops, symmetric edges) and returns a typed [`GraphError`] on any
//! violation, so a decoded [`Graph`] is as sound as a built one. Round-trip
//! is exact: `decode_csr(&encode_csr(&g))` reproduces `g`'s adjacency
//! structure, and `encode_csr(&decode_csr(bytes)?) == bytes` for any bytes
//! that decode at all.

use crate::error::{GraphError, Result};
use crate::graph::{check_csr, Graph};

/// Magic bytes opening every canonical CSR encoding.
pub const CSR_MAGIC: &[u8; 4] = b"RCSR";

/// Version of the encoding emitted by [`encode_csr`].
pub const CSR_VERSION: u32 = 1;

/// Fixed header size: magic + version + n + m.
pub const CSR_HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// Exact encoded size of a graph with `n` vertices and `m` undirected edges.
///
/// Useful for sizing upload transfers without materializing the encoding.
pub fn encoded_len(n: usize, m: usize) -> usize {
    CSR_HEADER_BYTES + 4 * (n + 1) + 8 * m
}

/// Serializes a graph into the canonical little-endian CSR encoding.
///
/// # Examples
///
/// ```
/// use rumor_graphs::{codec, Graph};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let bytes = codec::encode_csr(&g);
/// let back = codec::decode_csr(&bytes)?;
/// assert_eq!(back.num_vertices(), 3);
/// assert_eq!(back.num_edges(), 2);
/// assert_eq!(codec::encode_csr(&back), bytes);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub fn encode_csr(graph: &Graph) -> Vec<u8> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let mut out = Vec::with_capacity(encoded_len(n, m));
    out.extend_from_slice(CSR_MAGIC);
    out.extend_from_slice(&CSR_VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    let mut offset: u32 = 0;
    out.extend_from_slice(&offset.to_le_bytes());
    for u in 0..n {
        offset += graph.degree(u) as u32;
        out.extend_from_slice(&offset.to_le_bytes());
    }
    for u in 0..n {
        for &v in graph.neighbors(u) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

fn malformed(reason: impl Into<String>) -> GraphError {
    GraphError::InvalidEncoding {
        reason: reason.into(),
    }
}

/// Decodes and fully validates a canonical CSR encoding.
///
/// Every structural invariant is re-checked before a [`Graph`] is built:
/// exact byte length, monotone offsets ending at `2m`, neighbor lists sorted
/// strictly ascending (no duplicate edges), all endpoints in range, no
/// self-loops, and edge symmetry. Violations return the precise typed
/// [`GraphError`]; this function never panics on untrusted input. It runs in
/// time and memory linear in the input: the lists pass the same linear
/// check as [`Graph::validate`].
pub fn decode_csr(bytes: &[u8]) -> Result<Graph> {
    if bytes.len() < CSR_HEADER_BYTES {
        return Err(malformed(format!(
            "{} bytes is shorter than the {CSR_HEADER_BYTES}-byte header",
            bytes.len()
        )));
    }
    if &bytes[0..4] != CSR_MAGIC {
        return Err(malformed("bad magic (expected \"RCSR\")"));
    }
    let version = read_u32(bytes, 4);
    if version != CSR_VERSION {
        return Err(malformed(format!(
            "unsupported version {version} (expected {CSR_VERSION})"
        )));
    }
    let n_raw = read_u64(bytes, 8);
    let m_raw = read_u64(bytes, 16);
    if n_raw > u32::MAX as u64 || m_raw > (u32::MAX / 2) as u64 {
        return Err(malformed(format!(
            "dimensions n={n_raw}, m={m_raw} exceed u32 CSR indexing"
        )));
    }
    let n = n_raw as usize;
    let m = m_raw as usize;
    let expected = encoded_len(n, m);
    if bytes.len() != expected {
        return Err(malformed(format!(
            "length {} does not match the declared n={n}, m={m} (expected {expected})",
            bytes.len()
        )));
    }

    let offsets_at = CSR_HEADER_BYTES;
    let adjacency_at = offsets_at + 4 * (n + 1);
    let total_degree = (2 * m) as u32;

    let offsets = read_u32s(&bytes[offsets_at..adjacency_at]);
    if offsets[0] != 0 {
        return Err(malformed(format!(
            "offsets[0] must be 0, got {}",
            offsets[0]
        )));
    }
    for (i, w) in offsets.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(malformed(format!(
                "offsets decrease at vertex {} ({} < {})",
                i + 1,
                w[1],
                w[0]
            )));
        }
        if w[1] > total_degree {
            return Err(malformed(format!(
                "offset {} at vertex {} exceeds adjacency length {total_degree}",
                w[1],
                i + 1
            )));
        }
    }
    if offsets[n] != total_degree {
        return Err(malformed(format!(
            "offsets end at {} but adjacency holds {total_degree} entries",
            offsets[n]
        )));
    }
    let adjacency = read_u32s(&bytes[adjacency_at..]);
    // Rows sorted strictly ascending, in range, loop-free and symmetric: one
    // pass over the rows, then one compare per lower entry against a cursor
    // into the row it names, O(n + m) in all.
    check_csr(&offsets, &adjacency)?;
    Ok(Graph::from_csr(offsets, adjacency, m))
}

/// The little-endian `u32`s of `bytes` (a multiple of four long).
fn read_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|word| u32::from_le_bytes([word[0], word[1], word[2], word[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Graph {
        let mut rng = StdRng::seed_from_u64(42);
        generators::connected_erdos_renyi(40, 0.2, &mut rng).expect("generate")
    }

    #[test]
    fn round_trip_preserves_structure_and_bytes() {
        for graph in [
            sample(),
            generators::complete(9).expect("complete"),
            generators::star(17).expect("star"),
            Graph::from_edges(5, &[]).expect("empty edge set"),
        ] {
            let bytes = encode_csr(&graph);
            assert_eq!(
                bytes.len(),
                encoded_len(graph.num_vertices(), graph.num_edges())
            );
            let back = decode_csr(&bytes).expect("decode");
            assert_eq!(back.num_vertices(), graph.num_vertices());
            assert_eq!(back.num_edges(), graph.num_edges());
            for u in 0..graph.num_vertices() {
                assert_eq!(back.neighbors(u), graph.neighbors(u));
            }
            assert!(back.validate().is_ok());
            assert_eq!(encode_csr(&back), bytes, "re-encode must be canonical");
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_lengths() {
        let bytes = encode_csr(&sample());

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_csr(&bad_magic),
            Err(GraphError::InvalidEncoding { .. })
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(matches!(
            decode_csr(&bad_version),
            Err(GraphError::InvalidEncoding { .. })
        ));

        assert!(matches!(
            decode_csr(&bytes[..bytes.len() - 1]),
            Err(GraphError::InvalidEncoding { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_csr(&trailing),
            Err(GraphError::InvalidEncoding { .. })
        ));
        assert!(matches!(
            decode_csr(&bytes[..CSR_HEADER_BYTES - 2]),
            Err(GraphError::InvalidEncoding { .. })
        ));
    }

    #[test]
    fn rejects_structural_violations() {
        // Hand-build a 3-vertex path 0-1-2 and then corrupt it in typed ways.
        let graph = Graph::from_edges(3, &[(0, 1), (1, 2)]).expect("path");
        let clean = encode_csr(&graph);
        let adjacency_at = CSR_HEADER_BYTES + 4 * 4;

        // Self-loop: vertex 0's single neighbor becomes 0.
        let mut looped = clean.clone();
        looped[adjacency_at..adjacency_at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_csr(&looped),
            Err(GraphError::SelfLoop { vertex: 0 })
        ));

        // Out of range: vertex 0's neighbor becomes 7.
        let mut ranged = clean.clone();
        ranged[adjacency_at..adjacency_at + 4].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            decode_csr(&ranged),
            Err(GraphError::VertexOutOfRange { vertex: 7, n: 3 })
        ));

        // Asymmetry: vertex 0 now points at 2, but 2 still points only at 1.
        let mut asymmetric = clean.clone();
        asymmetric[adjacency_at..adjacency_at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            decode_csr(&asymmetric),
            Err(GraphError::GenerationFailed { .. })
        ));

        // Unsorted row: vertex 1's neighbors (1, 2 at rows 1..3) become (2, 0).
        let mut unsorted = clean.clone();
        unsorted[adjacency_at + 4..adjacency_at + 8].copy_from_slice(&2u32.to_le_bytes());
        unsorted[adjacency_at + 8..adjacency_at + 12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_csr(&unsorted),
            Err(GraphError::DuplicateEdge { .. })
        ));

        // Decreasing offsets.
        let mut offsets_bad = clean.clone();
        let offsets_at = CSR_HEADER_BYTES;
        offsets_bad[offsets_at + 4..offsets_at + 8].copy_from_slice(&3u32.to_le_bytes());
        offsets_bad[offsets_at + 8..offsets_at + 12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_csr(&offsets_bad),
            Err(GraphError::InvalidEncoding { .. })
        ));
    }

    #[test]
    fn decode_never_panics_on_noise() {
        let mut rng_state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) as u8
        };
        for len in [0usize, 3, CSR_HEADER_BYTES, 64, 257, 4096] {
            let noise: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = decode_csr(&noise);
            let mut framed = encode_csr(&sample());
            for byte in framed.iter_mut().skip(CSR_HEADER_BYTES).take(len) {
                *byte = next();
            }
            let _ = decode_csr(&framed);
        }
    }

    /// Raw CSR bytes for `rows`, whatever they hold (`m` is half the entries).
    fn raw(rows: &[Vec<u32>]) -> Vec<u8> {
        let entries: usize = rows.iter().map(Vec::len).sum();
        let mut out = Vec::new();
        out.extend_from_slice(CSR_MAGIC);
        out.extend_from_slice(&CSR_VERSION.to_le_bytes());
        out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        out.extend_from_slice(&(entries as u64 / 2).to_le_bytes());
        let mut offset = 0u32;
        out.extend_from_slice(&offset.to_le_bytes());
        for row in rows {
            offset += row.len() as u32;
            out.extend_from_slice(&offset.to_le_bytes());
        }
        for &v in rows.iter().flatten() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// The checks `decode_csr` made before the linear pass: every row in
    /// order (range, loop, order), then one binary search per half-edge.
    /// `Err(None)` stands for an asymmetric edge; `Ok` holds the half-edges
    /// without a reverse (none on success).
    fn reference(rows: &[Vec<u32>]) -> std::result::Result<(), Option<GraphError>> {
        let n = rows.len();
        for (u, row) in rows.iter().enumerate() {
            for (k, &v) in row.iter().enumerate() {
                if v as usize >= n {
                    return Err(Some(GraphError::VertexOutOfRange {
                        vertex: v as usize,
                        n,
                    }));
                }
                if v as usize == u {
                    return Err(Some(GraphError::SelfLoop { vertex: u }));
                }
                if k > 0 && v <= row[k - 1] {
                    return Err(Some(GraphError::DuplicateEdge { u, v: v as usize }));
                }
            }
        }
        let asymmetric = rows.iter().enumerate().any(|(u, row)| {
            row.iter()
                .any(|&v| rows[v as usize].binary_search(&(u as u32)).is_err())
        });
        if asymmetric {
            Err(None)
        } else {
            Ok(())
        }
    }

    /// The half-edges `(u, v)` of `rows` whose reverse `(v, u)` is missing.
    fn unreturned(rows: &[Vec<u32>]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (u, row) in rows.iter().enumerate() {
            for &v in row {
                if !rows[v as usize].contains(&(u as u32)) {
                    out.push((u, v as usize));
                }
            }
        }
        out
    }

    #[test]
    fn typed_errors_for_each_malformation() {
        // A 4-cycle 0-1-2-3 plus the chord 0-2.
        let rows = vec![vec![1, 2, 3], vec![0, 2], vec![0, 1, 3], vec![0, 2]];
        assert!(decode_csr(&raw(&rows)).is_ok());

        // Asymmetric: 1 drops 2, and 3 drops 0 (both edge counts stay even).
        let mut asymmetric = rows.clone();
        asymmetric[1] = vec![0];
        asymmetric[3] = vec![2];
        let err = decode_csr(&raw(&asymmetric)).unwrap_err();
        assert!(
            matches!(&err, GraphError::GenerationFailed { reason } if reason == "edge (2, 1) is not symmetric"),
            "{err:?}"
        );
        // Duplicate: row 2 lists 1 twice.
        let mut duplicate = rows.clone();
        duplicate[2] = vec![0, 1, 1, 3];
        duplicate[3] = vec![0, 2, 1];
        assert_eq!(
            decode_csr(&raw(&duplicate)).unwrap_err(),
            GraphError::DuplicateEdge { u: 2, v: 1 }
        );
        // Unsorted: row 0 lists 3 before 2.
        let mut unsorted = rows.clone();
        unsorted[0] = vec![1, 3, 2];
        assert_eq!(
            decode_csr(&raw(&unsorted)).unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 2 }
        );
        // Out of range: row 3 names vertex 4 of 4.
        let mut ranged = rows.clone();
        ranged[3] = vec![0, 4];
        assert_eq!(
            decode_csr(&raw(&ranged)).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 4, n: 4 }
        );
        // Truncated anywhere: a typed encoding error, never a panic.
        let bytes = raw(&rows);
        for len in 0..bytes.len() {
            assert!(matches!(
                decode_csr(&bytes[..len]),
                Err(GraphError::InvalidEncoding { .. })
            ));
        }
    }

    #[test]
    fn linear_check_agrees_with_the_binary_search_reference() {
        let mut rng = StdRng::seed_from_u64(2027);
        let (mut accepted, mut asymmetric, mut malformed) = (0, 0, 0);
        for _ in 0..6_000 {
            let n = rng.gen_range(1..9usize);
            // Start from a random simple graph, then perturb a few entries.
            let mut rows = vec![Vec::new(); n];
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.4) {
                        rows[u].push(v as u32);
                        rows[v].push(u as u32);
                    }
                }
            }
            for _ in 0..rng.gen_range(0..4) {
                let u = rng.gen_range(0..n);
                match rng.gen_range(0..4) {
                    0 if !rows[u].is_empty() => {
                        // Move an entry to another row (the count stays even).
                        let k = rng.gen_range(0..rows[u].len());
                        let v = rows[u].remove(k);
                        let w = rng.gen_range(0..n);
                        rows[w].push(v);
                        rows[w].sort_unstable();
                    }
                    1 => rows[u].push(rng.gen_range(0..n as u32 + 1)),
                    2 if !rows[u].is_empty() => {
                        let k = rng.gen_range(0..rows[u].len());
                        rows[u][k] = rng.gen_range(0..n as u32);
                    }
                    _ => {}
                }
                if rng.gen_bool(0.8) {
                    rows[u].sort_unstable();
                }
            }
            let entries: usize = rows.iter().map(Vec::len).sum();
            if entries % 2 == 1 {
                continue;
            }
            let got = decode_csr(&raw(&rows));
            match reference(&rows) {
                Ok(()) => {
                    accepted += 1;
                    let g = got.expect("reference accepts");
                    for (u, row) in rows.iter().enumerate() {
                        assert_eq!(g.neighbors(u), row.as_slice());
                    }
                }
                Err(Some(expected)) => {
                    malformed += 1;
                    assert_eq!(got.unwrap_err(), expected, "{rows:?}");
                }
                Err(None) => {
                    asymmetric += 1;
                    let Err(GraphError::GenerationFailed { reason }) = got else {
                        panic!("{rows:?}: expected an asymmetry, got {got:?}");
                    };
                    let named = unreturned(&rows)
                        .into_iter()
                        .any(|(u, v)| reason == format!("edge ({u}, {v}) is not symmetric"));
                    assert!(named, "{rows:?}: {reason} names no unreturned half-edge");
                }
            }
        }
        assert!(
            accepted > 500 && asymmetric > 500 && malformed > 500,
            "{accepted} {asymmetric} {malformed}"
        );
    }

    #[test]
    fn decode_time_grows_linearly() {
        // 8x the input must cost less than 16x the time, best of 5, so that
        // host speed cancels: a check that grew as m log m or m^2 would not.
        let best_ms = |bytes: &[u8]| {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let g = decode_csr(bytes).expect("decode");
                    std::hint::black_box(g);
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let small = generators::random_regular(1 << 11, 16, &mut StdRng::seed_from_u64(1));
        let large = generators::random_regular(1 << 14, 16, &mut StdRng::seed_from_u64(1));
        let (small, large) = (encode_csr(&small.unwrap()), encode_csr(&large.unwrap()));
        assert_eq!(
            large.len() - CSR_HEADER_BYTES - 4,
            8 * (small.len() - CSR_HEADER_BYTES - 4)
        );
        let (t_small, t_large) = (best_ms(&small), best_ms(&large));
        assert!(
            t_large < 16.0 * t_small,
            "decode took {t_large:.3} ms on {} bytes against {t_small:.3} ms on {}",
            large.len(),
            small.len()
        );
    }
}
