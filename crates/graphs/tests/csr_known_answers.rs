//! Known-answer pins for CSR graphs.
//!
//! Each case pins an FNV-1a-64 digest of the built graph's `offsets`
//! (`n + 1` little-endian `u32`s) and, separately, of its `adjacency` (the
//! concatenated sorted neighbor lists), to constants captured from the
//! reference implementation. A change to how a graph is assembled,
//! deduplicated or repaired that alters a single neighbor, or the order of
//! the random draws a generator makes, moves a digest.
//!
//! The random regular cases cover sizes whose pairing leaves self-loops
//! and parallel pairs to repair (among them Theorem 1's `2^16` vertices of
//! degree 16, as the benchmark builds them), a small case whose first pairing fails to
//! repair within budget and restarts, and one whose first repaired pairing
//! is disconnected and restarts (the unit tests in `generators/regular.rs`
//! show that both first attempts fail).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_graphs::generators::{
    self, CycleOfStarsOfCliques, HeavyBinaryTree, SiameseHeavyBinaryTree,
};
use rumor_graphs::{GeneratedGraph, Graph};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, word: u32) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// `(offsets digest, adjacency digest)` of `g`.
fn csr_digests(g: &Graph) -> (u64, u64) {
    let mut offsets = FNV_OFFSET;
    let mut adjacency = FNV_OFFSET;
    let mut offset = 0u32;
    fnv1a(&mut offsets, offset);
    for u in g.vertices() {
        offset += g.degree(u) as u32;
        fnv1a(&mut offsets, offset);
        for &v in g.neighbors(u) {
            fnv1a(&mut adjacency, v);
        }
    }
    (offsets, adjacency)
}

fn pin(label: &str, g: &Graph, edges: usize, expected: (u64, u64)) {
    g.validate().unwrap();
    assert_eq!(g.num_edges(), edges, "{label}: edge count");
    let (offsets, adjacency) = csr_digests(g);
    assert_eq!(
        (offsets, adjacency),
        expected,
        "{label}: digests ({offsets:#018x}, {adjacency:#018x})"
    );
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn random_regular_with_repaired_defects() {
    let g = generators::random_regular(4096, 16, &mut rng(7)).unwrap();
    pin(
        "random_regular(4096, 16, 7)",
        &g,
        32_768,
        (0x3611_7bf6_8355_00cc, 0xeea2_d5d1_f990_c465),
    );
    let g = generators::random_regular(1000, 7, &mut rng(3)).unwrap();
    pin(
        "random_regular(1000, 7, 3)",
        &g,
        3_500,
        (0xfac5_0e6f_b253_8410, 0x0769_8d78_ab11_8c89),
    );
}

#[test]
fn random_regular_at_theorem1_size() {
    // The Thm 1 workload's size: each pairing leaves tens of loops and
    // repeats, so the swaps both add edges and remove pairing edges.
    let g = generators::random_regular(1 << 16, 16, &mut rng(2)).unwrap();
    pin(
        "random_regular(1 << 16, 16, 2)",
        &g,
        1 << 19,
        (0xf5b0_cd24_1a0d_a085, 0x7e08_f110_9edc_d121),
    );
    let g = generators::random_regular(1 << 16, 16, &mut rng(13)).unwrap();
    pin(
        "random_regular(1 << 16, 16, 13)",
        &g,
        1 << 19,
        (0xf5b0_cd24_1a0d_a085, 0x76ae_22f1_cdab_f9dd),
    );
}

#[test]
fn random_regular_after_restarts() {
    let g = generators::random_regular(8, 6, &mut rng(7)).unwrap();
    pin(
        "random_regular(8, 6, 7)",
        &g,
        24,
        (0x6fd9_daca_1c24_b815, 0xd9fe_096c_de9d_3225),
    );
    let g = generators::random_regular(8, 2, &mut rng(1)).unwrap();
    pin(
        "random_regular(8, 2, 1)",
        &g,
        8,
        (0xe383_1975_a971_d485, 0xe084_fa0c_3082_0245),
    );
}

#[test]
fn regular_families() {
    let g = generators::matched_communities(300, 9, &mut rng(11)).unwrap();
    pin(
        "matched_communities(300, 9, 11)",
        &g,
        2_700,
        (0xd81f_73fe_9372_9898, 0x14be_7945_b3b1_e7e5),
    );
    let g = generators::cycle_of_cliques(12, 6).unwrap();
    pin(
        "cycle_of_cliques(12, 6)",
        &g,
        252,
        (0xb7e4_273e_75a3_a415, 0x9cc9_eb3a_dd0e_f495),
    );
    let g = generators::hypercube(9).unwrap();
    pin(
        "hypercube(9)",
        &g,
        2_304,
        (0x574b_f9ed_3b1f_8fb7, 0x6bbc_144a_afde_d545),
    );
    let g = generators::complete(40).unwrap();
    pin(
        "complete(40)",
        &g,
        780,
        (0xcf21_9675_567a_d072, 0xc86c_6964_4773_5e25),
    );
}

#[test]
fn gnp_families() {
    let g = generators::erdos_renyi(700, 0.01, &mut rng(5)).unwrap();
    pin(
        "erdos_renyi(700, 0.01, 5)",
        &g,
        2445,
        (0xff2f_9e73_9f49_c8b1, 0x0c62_c5d5_769d_0cab),
    );
    let g = generators::connected_erdos_renyi(200, 0.05, &mut rng(9)).unwrap();
    pin(
        "connected_erdos_renyi(200, 0.05, 9)",
        &g,
        910,
        (0x9562_559f_aad6_4276, 0xdfe2_17af_e38e_fed1),
    );
    let g = GeneratedGraph::gnp(900, 0.008, 4)
        .unwrap()
        .materialize()
        .unwrap();
    pin(
        "GeneratedGraph::gnp(900, 0.008, 4)",
        &g,
        3139,
        (0x72a2_2457_11c4_083f, 0xa6c3_ff27_617e_1c80),
    );
    let g = GeneratedGraph::chung_lu(900, 2.3, 6.0, 4)
        .unwrap()
        .materialize()
        .unwrap();
    pin(
        "GeneratedGraph::chung_lu(900, 2.3, 6, 4)",
        &g,
        2372,
        (0xc633_b113_ea7f_54b2, 0x831b_c2ca_e623_223c),
    );
}

#[test]
fn lattices() {
    let g = generators::grid(17, 23).unwrap();
    pin(
        "grid(17, 23)",
        &g,
        16 * 23 + 17 * 22,
        (0x1736_5221_718f_7985, 0x2885_0f89_1685_f86f),
    );
    let g = generators::torus(3, 3).unwrap();
    pin(
        "torus(3, 3)",
        &g,
        18,
        (0x3fba_3f25_d27b_f241, 0x9c2c_97c7_5355_3185),
    );
    let g = generators::torus(11, 14).unwrap();
    pin(
        "torus(11, 14)",
        &g,
        2 * 11 * 14,
        (0xd1cc_7bab_38b9_d043, 0x6634_370c_7d1e_81c5),
    );
}

#[test]
fn fig1_families() {
    let g = generators::star(1 << 10).unwrap();
    pin(
        "star(1024)",
        &g,
        1 << 10,
        (0xcc2f_9b0d_584a_e96d, 0x9b19_9120_f762_4b79),
    );
    let g = generators::double_star(300).unwrap();
    pin(
        "double_star(300)",
        &g,
        601,
        (0xe429_f9c2_0106_4641, 0xdffc_0066_9f3c_b760),
    );
    let g = HeavyBinaryTree::new(5).unwrap().into_graph();
    pin(
        "HeavyBinaryTree(5)",
        &g,
        558,
        (0x8393_f78d_2565_1ece, 0x7c60_4fb0_9da2_c9fa),
    );
    let g = SiameseHeavyBinaryTree::new(5).unwrap().into_graph();
    pin(
        "SiameseHeavyBinaryTree(5)",
        &g,
        1116,
        (0x1dc7_0d0f_f19c_8dcd, 0xc215_68f0_44f8_da59),
    );
    let g = CycleOfStarsOfCliques::new(6).unwrap().into_graph();
    pin(
        "CycleOfStarsOfCliques(6)",
        &g,
        798,
        (0x239e_e243_a80b_04e2, 0xa9b3_58db_5dab_17dd),
    );
    let g = generators::barbell(9).unwrap();
    pin(
        "barbell(9)",
        &g,
        73,
        (0xa30d_a472_41f7_e90e, 0xb6d7_c04b_cfb3_b904),
    );
    let g = generators::lollipop(8, 5).unwrap();
    pin(
        "lollipop(8, 5)",
        &g,
        33,
        (0xe009_cbf9_0309_829e, 0xd629_7bd5_e679_aa7e),
    );
}
