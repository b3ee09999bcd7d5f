//! Known-answer pins for generated edge sets.
//!
//! Every other generated-backend suite compares the backend with its own
//! `materialize()`, and both sides go through the same stub pairing — so a
//! change to the pairing that still yields a valid involution would silently
//! re-draw every generated graph and pass them all. This suite pins an
//! FNV-1a-64 digest of each instance's adjacency (the CSR offsets followed
//! by every neighbor list) to constants captured from the reference
//! implementation, together with the stub total that selects the case.
//!
//! The grid covers both families, an odd stub total (one unmatched stub),
//! stub totals just below and just above a power of four (so the Feistel
//! half width changes and the cycle walk over the ~4× larger domain gets
//! long), and one hub-cached instance read through `for_each_neighbor`.
//! One larger Chung–Lu instance, split across workers by every
//! construction pass and by the hub-cache fill, pins its two offset tables
//! and its cache's hub lists instead of a full adjacency digest.

use rumor_graphs::{GeneratedGraph, HubCacheBuilder, HubCachedGraph, Topology};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The pinned `chung_lu(1500, 2.4, 6, 1)` edge set, shared by the plain and
/// the hub-cached instance (a cache must read back the identical graph).
const CHUNG_LU_DIGEST: u64 = 0xddf7_e683_b4bc_12b3;

fn fnv1a(hash: &mut u64, word: u32) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a-64 over the prefix table of `degree(u)` for `u < n` (`n + 1`
/// little-endian `u32`s, from the leading zero).
fn prefix_digest(n: usize, degree: impl Fn(usize) -> usize) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut offset = 0u32;
    fnv1a(&mut hash, offset);
    for u in 0..n {
        offset += degree(u) as u32;
        fnv1a(&mut hash, offset);
    }
    hash
}

/// FNV-1a-64 over the CSR offsets (`n + 1` little-endian `u32`s) followed
/// by the concatenated sorted neighbor lists, as any [`Topology`] reports
/// them.
fn adjacency_digest<T: Topology>(g: &T) -> u64 {
    let n = g.num_vertices();
    let mut hash = prefix_digest(n, |u| g.degree(u));
    for u in 0..n {
        g.for_each_neighbor(u, |v| fnv1a(&mut hash, v as u32));
    }
    hash
}

/// The stub total `S` — the pairing's domain, which selects the case.
fn stub_total(g: &GeneratedGraph) -> usize {
    (0..g.num_vertices()).map(|u| g.stub_degree(u)).sum()
}

/// Checks the stub total and the materialized adjacency digest of `g`.
fn pin(label: &str, g: &GeneratedGraph, stubs: usize, digest: u64) {
    assert_eq!(stub_total(g), stubs, "{label}: stub total");
    let csr = g.materialize().unwrap();
    let got = adjacency_digest(&csr);
    assert_eq!(got, digest, "{label}: adjacency digest {got:#018x}");
}

#[test]
fn gnp_edge_set_is_pinned() {
    let g = GeneratedGraph::gnp(300, 0.02, 0).unwrap();
    pin("gnp(300, 0.02, 0)", &g, 1870, 0xfbec_f62e_b345_0932);
}

#[test]
fn chung_lu_edge_set_is_pinned() {
    let g = GeneratedGraph::chung_lu(1500, 2.4, 6.0, 1).unwrap();
    pin("chung_lu(1500, 2.4, 6, 1)", &g, 8428, CHUNG_LU_DIGEST);
}

#[test]
fn odd_stub_totals_are_pinned() {
    let g = GeneratedGraph::gnp(300, 0.02, 7).unwrap();
    pin("gnp(300, 0.02, 7)", &g, 1833, 0x7693_063a_38fb_6faf);
    let g = GeneratedGraph::chung_lu(1500, 2.4, 6.0, 7).unwrap();
    pin("chung_lu(1500, 2.4, 6, 7)", &g, 8359, 0x9666_11e3_9b3d_09c5);
}

#[test]
fn stub_totals_around_a_power_of_four_are_pinned() {
    // 4⁷ = 16384 = 2^14: at or below it the walked domain is exactly 2^14
    // (7-bit halves); just above it the halves widen to 8 bits and the
    // domain jumps to 2^16, so most encryptions cycle-walk several times.
    let below = GeneratedGraph::gnp_with_mean_degree(2048, 8.0, 20).unwrap();
    pin("gnp(2048, d=8, 20)", &below, 16380, 0x4edc_f637_65f6_994d);
    let above = GeneratedGraph::gnp_with_mean_degree(2048, 8.0, 10).unwrap();
    pin("gnp(2048, d=8, 10)", &above, 16388, 0x8495_ab03_e953_e2a1);
}

#[test]
fn hub_cached_edge_set_is_pinned() {
    // Read through the cache itself: hub rows come from the packed cache,
    // the rest from the hashed path.
    let inner = GeneratedGraph::chung_lu(1500, 2.4, 6.0, 1).unwrap();
    let h = HubCachedGraph::with_hub_count(inner, 40);
    assert_eq!(h.hub_count(), 40);
    let got = adjacency_digest(&h);
    assert_eq!(
        got, CHUNG_LU_DIGEST,
        "hub-cached adjacency digest {got:#018x}"
    );
}

#[test]
fn multi_worker_chung_lu_construction_is_pinned() {
    // Large enough that the construction passes and the hub-cache fill
    // split across several workers, with the hubs at the low ids, so the
    // pin covers where each pass cuts its worker ranges. The stub offsets
    // come from the degree pass, the slot offsets from the simple-degree
    // pass; the cache (a quarter of the CSR-equivalent bytes, as the
    // `chunglu-hub` benchmark builds it) is read back hub by hub, which
    // fixes its bytes: the encoding is a pure function of `n` and the
    // lists.
    let g = GeneratedGraph::chung_lu(60_000, 2.5, 12.0, 5).unwrap();
    let n = g.num_vertices();
    assert_eq!(stub_total(&g), 701_734, "stub total");
    let stubs = prefix_digest(n, |u| g.stub_degree(u));
    assert_eq!(
        stubs, 0x304c_ac95_e188_ce85,
        "stub offsets digest {stubs:#018x}"
    );
    let slots = prefix_digest(n, |u| g.degree(u));
    assert_eq!(
        slots, 0x3b95_8be9_b42e_b1a0,
        "slot offsets digest {slots:#018x}"
    );

    let budget = g.csr_equivalent_bytes() / 4;
    let h = HubCacheBuilder::new().cache_budget_bytes(budget).build(g);
    assert_eq!(
        (h.hub_count(), h.cache_bytes()),
        (23_060, 935_720),
        "hub count, cache bytes"
    );
    let mut hash = FNV_OFFSET;
    for u in (0..n).filter(|&u| h.is_hub(u)) {
        fnv1a(&mut hash, u as u32);
        h.for_each_neighbor(u, |v| fnv1a(&mut hash, v as u32));
    }
    assert_eq!(hash, 0xbfb4_6e3c_f1ef_fc22, "hub lists digest {hash:#018x}");
}
