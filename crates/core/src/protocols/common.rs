//! Shared hot-path data structures for the protocol implementations.

use std::ops::Range;

use rumor_graphs::{Topology, VertexId};

/// Records one edge-traffic entry per agent that traversed an edge in the
/// most recent walk step (shared by every agent-based protocol's
/// observability path; the step must have been taken with previous-position
/// tracking enabled).
pub(crate) fn record_agent_traffic(
    walks: &rumor_walks::MultiWalk,
    traffic: &mut crate::metrics::EdgeTraffic,
) {
    for agent in 0..walks.num_agents() {
        let from = walks.previous_position(agent);
        let to = walks.position(agent);
        if from != to {
            traffic.record(from, to);
        }
    }
}

/// Whether undoing a finished trial — walking the informed `members`'
/// neighbor lists to restore counters and bits — beats the `O(n)` full
/// refill: budget-walks the members' degree sum and bails once it exceeds
/// half the vertex count. Windowed sweeps (which inform slivers) take the
/// undo branch; completed broadcasts refill.
pub(crate) fn undo_is_cheap<G: Topology>(graph: &G, members: &[u32]) -> bool {
    let budget = graph.num_vertices() / 2;
    let mut degree_sum = 0usize;
    for &v in members {
        degree_sum += graph.degree(v as usize);
        if degree_sum > budget {
            return false;
        }
    }
    true
}

/// A monotone set over a fixed universe `0..n`, engineered for the simulation
/// hot path:
///
/// * **bitset membership** — `contains`/`insert` are O(1) with one word load;
/// * **dense member list** — a `Vec<u32>` of members in insertion order with a
///   cached count, so "iterate only the informed items" is O(|informed|)
///   (used for agent sets, where iteration order is immaterial);
/// * **word-at-a-time ordered iteration** — [`InformedSet::ones`] /
///   [`InformedSet::zeros`] walk members / non-members in ascending order by
///   scanning 64 items per word load, so "iterate only the uninformed items"
///   costs O(n/64 + |uninformed|) instead of O(n) membership tests.
///
/// The ascending iterators are what lets the frontier-based protocol steps
/// consume the RNG in exactly the same order as a naive full 0..n scan, which
/// is the contract the equivalence tests in `tests/equivalence.rs` pin down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InformedSet {
    /// One bit per item; bits at positions `>= universe` are never set.
    bits: Vec<u64>,
    /// Members in insertion order. `dense.len()` is the cached count.
    dense: Vec<u32>,
    universe: usize,
}

impl InformedSet {
    /// An empty set over a universe of `n` items.
    pub(crate) fn new(n: usize) -> Self {
        InformedSet {
            bits: vec![0; n.div_ceil(64)],
            dense: Vec::new(),
            universe: n,
        }
    }

    /// Re-initializes to the empty set over `n` items, reusing the existing
    /// buffers ([`InformedSet::new`] without the allocation — the workspace
    /// reset path).
    pub(crate) fn reset(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        self.dense.clear();
        self.universe = n;
    }

    /// Empties the set by zeroing only the words its members occupy —
    /// `O(|members|)` instead of the full `O(n/64)` memset, the cheap branch
    /// of the workspace reset after a *windowed* trial that informed only a
    /// sliver of the universe. (Zeroing a member's whole word is sound:
    /// every set bit in it belongs to some member, all of which are being
    /// cleared.)
    pub(crate) fn clear_members(&mut self) {
        for &v in &self.dense {
            self.bits[v as usize >> 6] = 0;
        }
        self.dense.clear();
    }

    /// Universe size.
    #[inline]
    pub(crate) fn universe(&self) -> usize {
        self.universe
    }

    /// Number of informed items.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.dense.len()
    }

    /// Whether item `i` is informed.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.universe);
        self.bits[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Marks item `i` informed; returns `true` if it was newly inserted.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.universe);
        let word = &mut self.bits[i >> 6];
        let mask = 1u64 << (i & 63);
        if *word & mask != 0 {
            false
        } else {
            *word |= mask;
            self.dense.push(i as u32);
            true
        }
    }

    /// Whether every item is informed.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.dense.len() == self.universe
    }

    /// The informed items in insertion order (the "frontier list"); also the
    /// undo list the workspace resets walk.
    #[inline]
    pub(crate) fn informed(&self) -> &[u32] {
        &self.dense
    }

    /// Iterator over the informed items in ascending order.
    pub(crate) fn ones(&self) -> SetBits<impl Iterator<Item = (usize, u64)> + '_> {
        SetBits::new(self.bits.iter().copied().enumerate())
    }

    /// Iterator over the *uninformed* items in ascending order.
    pub(crate) fn zeros(&self) -> SetBits<impl Iterator<Item = (usize, u64)> + '_> {
        SetBits::new(self.bits.iter().enumerate().map(|(idx, &w)| {
            // The complement, with out-of-universe bits cleared.
            let rest = self.universe - idx * 64;
            (
                idx,
                if rest >= 64 {
                    !w
                } else {
                    !w & ((1u64 << rest) - 1)
                },
            )
        }))
    }

    /// The raw membership words (bit `i` set ⇔ item `i` informed), for the
    /// sharded engine's word-range scans.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }
}

/// The set bits of a sequence of `(index, word)` pairs with ascending
/// indices, in ascending order: item `64 · index + bit`.
#[derive(Debug, Clone)]
pub(crate) struct SetBits<I> {
    words: I,
    /// Bits of word `word_idx` not yet yielded.
    current: u64,
    word_idx: usize,
}

impl<I> SetBits<I> {
    fn new(words: I) -> Self {
        SetBits {
            words,
            current: 0,
            word_idx: 0,
        }
    }
}

impl<I: Iterator<Item = (usize, u64)>> Iterator for SetBits<I> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        while self.current == 0 {
            (self.word_idx, self.current) = self.words.next()?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.word_idx << 6) | bit)
    }
}

/// Items one summary word covers: one summary bit per 64-item word, 64
/// summary bits per summary word.
const ITEMS_PER_SUMMARY_WORD: usize = 64 * 64;

/// A plain fixed-size bitset with O(1) set/clear and ascending iteration,
/// used for the gossip boundary tracker's active set
/// (`gossip::Frontier`). Unlike [`InformedSet`] it is not monotone — bits
/// are cleared when a vertex saturates.
///
/// **Cost model.** A second level of *summary* words indexes the non-empty
/// words: bit `k` of the summary is set ⇔ word `k` is non-zero, one summary
/// word per 4,096 items. `set` and `clear` stay O(1) (each touches one word
/// and one summary word), so [`Bits::ones`] costs O(n/4096 + active words)
/// and [`Bits::none_set`] O(n/4096). On the paper's star push that is the
/// difference between a 257-word scan per round and a 5-word one, for a
/// frontier of one or two vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bits {
    words: Vec<u64>,
    /// Bit `k & 63` of `summary[k >> 6]` set ⇔ `words[k] != 0`.
    summary: Vec<u64>,
}

impl Bits {
    pub(crate) fn new(n: usize) -> Self {
        Bits {
            words: vec![0; n.div_ceil(64)],
            summary: vec![0; n.div_ceil(ITEMS_PER_SUMMARY_WORD)],
        }
    }

    /// All-clear over `n` items, reusing the buffers (workspace reset path).
    pub(crate) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.summary.clear();
        self.summary.resize(n.div_ceil(ITEMS_PER_SUMMARY_WORD), 0);
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] |= 1u64 << (i & 63);
        self.summary[w >> 6] |= 1u64 << (w & 63);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        let w = i >> 6;
        let word = &mut self.words[w];
        *word &= !(1u64 << (i & 63));
        // Branchless: drops the summary bit exactly when the word emptied.
        self.summary[w >> 6] &= !(u64::from(*word == 0) << (w & 63));
    }

    /// Iterator over set bits in ascending order: walks the summary, then
    /// only the non-empty words it names.
    pub(crate) fn ones(&self) -> SetBits<NonEmptyWords<'_>> {
        self.ones_in(0..self.words.len())
    }

    /// [`Bits::ones`] over the items of the words `words` only (the sharded
    /// engine's ranges), still through the summary.
    pub(crate) fn ones_in(&self, words: Range<usize>) -> SetBits<NonEmptyWords<'_>> {
        SetBits::new(self.nonempty_words(words))
    }

    /// The non-empty words among the words `words`, in ascending order, as
    /// `(index, word)`, found through the summary (the sharded engine cuts
    /// its popcount-balanced ranges from them).
    pub(crate) fn nonempty_words(&self, words: Range<usize>) -> NonEmptyWords<'_> {
        debug_assert!(words.start <= words.end && words.end <= self.words.len());
        let first = words.start >> 6;
        NonEmptyWords {
            words: &self.words,
            summary: &self.summary[..words.end.div_ceil(64)],
            // Summary bits below the first word are masked off.
            summary_bits: self
                .summary
                .get(first)
                .map_or(0, |&s| s & (!0 << (words.start & 63))),
            summary_idx: first,
            end: words.end,
        }
    }

    /// `true` if no bit is set — for the boundary tracker this means no
    /// future draw can change the informed set (stall detection on
    /// disconnected graphs). Reads only the summary.
    #[inline]
    pub(crate) fn none_set(&self) -> bool {
        self.summary.iter().all(|&s| s == 0)
    }
}

/// Ascending iterator over the non-empty words of a [`Bits`] range (see
/// [`Bits::nonempty_words`]).
#[derive(Debug, Clone)]
pub(crate) struct NonEmptyWords<'a> {
    words: &'a [u64],
    /// The summary words that cover the range.
    summary: &'a [u64],
    /// Summary bits of `summary[summary_idx]` not yet visited.
    summary_bits: u64,
    summary_idx: usize,
    /// One past the range's last word.
    end: usize,
}

impl Iterator for NonEmptyWords<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        while self.summary_bits == 0 {
            self.summary_idx += 1;
            self.summary_bits = *self.summary.get(self.summary_idx)?;
        }
        let idx = (self.summary_idx << 6) | self.summary_bits.trailing_zeros() as usize;
        self.summary_bits &= self.summary_bits - 1;
        (idx < self.end).then(|| (idx, self.words[idx]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut s = InformedSet::new(5);
        assert_eq!(s.universe(), 5);
        assert_eq!(s.count(), 0);
        assert!(!s.contains(3));
        assert!(s.insert(3));
        assert!(s.contains(3));
        assert!(!s.insert(3));
        assert_eq!(s.count(), 1);
        assert!(!s.is_full());
        assert_eq!(s.informed(), &[3]);
    }

    #[test]
    fn becomes_full() {
        let mut s = InformedSet::new(3);
        for i in 0..3 {
            s.insert(i);
        }
        assert!(s.is_full());
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(s.zeros().count(), 0);
    }

    #[test]
    fn empty_universe_is_full() {
        let s = InformedSet::new(0);
        assert!(s.is_full());
        assert_eq!(s.ones().count(), 0);
        assert_eq!(s.zeros().count(), 0);
    }

    #[test]
    fn ordered_iteration_across_word_boundaries() {
        let n = 200;
        let mut s = InformedSet::new(n);
        let members = [0usize, 1, 63, 64, 65, 127, 128, 199];
        // Insert out of order; ones() must still be ascending.
        for &i in members.iter().rev() {
            s.insert(i);
        }
        assert_eq!(s.ones().collect::<Vec<_>>(), members);
        // dense keeps insertion order.
        assert_eq!(
            s.informed().iter().map(|&x| x as usize).collect::<Vec<_>>(),
            members.iter().rev().copied().collect::<Vec<_>>()
        );
        // zeros() is exactly the ascending complement.
        let zeros: Vec<usize> = s.zeros().collect();
        let expected: Vec<usize> = (0..n).filter(|i| !members.contains(i)).collect();
        assert_eq!(zeros, expected);
    }

    #[test]
    fn zeros_respects_non_multiple_of_64_universe() {
        let mut s = InformedSet::new(70);
        for i in 0..70 {
            assert!(s.zeros().any(|z| z == i));
            s.insert(i);
        }
        assert_eq!(s.zeros().count(), 0);
        assert!(s.is_full());
        // No phantom items beyond the universe.
        assert_eq!(s.ones().max(), Some(69));
    }

    #[test]
    fn bits_set_clear_and_iterate() {
        let mut b = Bits::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        b.clear(64);
        b.set(64); // idempotent re-set
        b.set(3);
        b.clear(0);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![3, 64, 129]);
    }

    /// `b` agrees with the naive model: `ones()` lists exactly the set
    /// items in ascending order, `ones_in` those of a word range,
    /// `nonempty_words` the occupied words, and `none_set()` answers
    /// emptiness.
    fn assert_bits_match(b: &Bits, model: &[bool], context: &str) {
        let expected: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
        assert_eq!(b.ones().collect::<Vec<_>>(), expected, "{context}");
        assert_eq!(b.none_set(), expected.is_empty(), "{context}");
        let words = model.len().div_ceil(64);
        let occupied: Vec<usize> = (0..words)
            .filter(|&k| model[k * 64..model.len().min(k * 64 + 64)].contains(&true))
            .collect();
        let listed: Vec<(usize, u64)> = b.nonempty_words(0..words).collect();
        assert_eq!(
            listed.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            occupied,
            "{context}"
        );
        assert!(listed.iter().all(|&(k, w)| w == b.words[k]), "{context}");
        for lo in [0, 1, 63, 64, 65, words / 2, words] {
            for hi in [lo, lo + 1, lo + 64, lo + 65, words] {
                let (lo, hi) = (lo.min(words), hi.min(words));
                if lo > hi {
                    continue;
                }
                let inside: Vec<usize> = expected
                    .iter()
                    .copied()
                    .filter(|&i| (lo * 64..hi * 64).contains(&i))
                    .collect();
                let got: Vec<usize> = b.ones_in(lo..hi).collect();
                assert_eq!(got, inside, "{context}, words {lo}..{hi}");
            }
        }
    }

    #[test]
    fn bits_match_a_naive_model_under_random_set_and_clear() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let sizes = [0, 1, 63, 64, 65, 4095, 4096, 4097, 3 * 4096 + 5];
        let mut rng = SmallRng::seed_from_u64(0xB175);
        for n in sizes {
            let mut b = Bits::new(n);
            let mut model = vec![false; n];
            assert_bits_match(&b, &model, &format!("n={n} fresh"));
            if n == 0 {
                continue;
            }
            for phase in 0..3 {
                // Sparse, dense, then draining: exercises words and summary
                // words filling up and emptying again.
                let set_prob = [0.6, 0.9, 0.1][phase];
                for op in 0..4 * n.min(2_000) {
                    let i = rng.gen_range(0..n);
                    if rng.gen_bool(set_prob) {
                        b.set(i);
                        model[i] = true;
                    } else {
                        b.clear(i);
                        model[i] = false;
                    }
                    if op % 97 == 0 {
                        assert_bits_match(&b, &model, &format!("n={n} phase={phase} op={op}"));
                    }
                }
                assert_bits_match(&b, &model, &format!("n={n} after phase {phase}"));
            }
            // Clearing every remaining member empties the set.
            for (i, member) in model.iter_mut().enumerate() {
                b.clear(i);
                *member = false;
            }
            assert_bits_match(&b, &model, &format!("n={n} drained"));
            // Reset after use, also to another size, behaves like `new`.
            b.set(n - 1);
            b.reset(n);
            assert_eq!(b, Bits::new(n), "n={n} reset");
            b.set(n - 1);
            b.reset(n + 4096);
            assert_eq!(b, Bits::new(n + 4096), "n={n} reset to a larger universe");
        }
    }

    #[test]
    fn clearing_a_words_last_bit_clears_its_summary_bit() {
        // Items 4096 and 4097 share word 64, the first word of summary word 1.
        let mut b = Bits::new(3 * 4096 + 5);
        b.set(4096);
        b.set(4097);
        b.set(3 * 4096 + 4);
        b.clear(4096);
        assert_eq!(b.summary, vec![0, 1, 0, 1]);
        b.clear(4097);
        assert_eq!(b.summary, vec![0, 0, 0, 1]);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![3 * 4096 + 4]);
        b.clear(3 * 4096 + 4);
        assert!(b.none_set());
        assert_eq!(b.ones().next(), None);
        // Clearing an item that was never set keeps an occupied word's bit.
        b.set(70);
        b.clear(71);
        assert_eq!(b.summary[0], 1 << 1);
        assert!(!b.none_set());
    }

    #[test]
    fn ones_and_zeros_partition_the_universe() {
        let mut s = InformedSet::new(129);
        for i in (0..129).step_by(3) {
            s.insert(i);
        }
        let mut all: Vec<usize> = s.ones().chain(s.zeros()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..129).collect::<Vec<_>>());
    }
}
