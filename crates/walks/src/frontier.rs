//! The uninformed-agent frontier used by the exchange protocols.

use crate::multiwalk::AgentId;

/// An informed/uninformed partition of the agents, engineered for the
/// exchange protocols' hot loop:
///
/// * **bitset** — `is_informed` is one word load; the words feed straight
///   into [`MultiWalk::step_exchange`](crate::MultiWalk::step_exchange),
///   which maintains per-vertex informed-agent counts during movement;
/// * **dense uninformed list** — the agents still to inform, so the exchange
///   phase of a round costs O(|uninformed|) rather than O(|A|) (late in a
///   broadcast almost every agent is informed);
/// * **slot index** — `mark_informed` removes an agent from the dense list in
///   O(1) by swap-remove, and `mark_uninformed` (an agent replaced under
///   churn) appends it back in O(1), so the structure is allocation-free
///   per round.
///
/// The partition is monotone unless `mark_uninformed` is called. Completion
/// is simply [`UninformedFrontier::is_complete`] — `uninformed.is_empty()`.
///
/// The list order is unspecified (swap-removal shuffles it); none of the
/// protocols draw randomness while iterating it, so the order never
/// influences a trajectory.
///
/// # Examples
///
/// ```
/// use rumor_walks::UninformedFrontier;
///
/// let mut f = UninformedFrontier::new(4);
/// assert_eq!(f.uninformed().len(), 4);
/// assert!(f.mark_informed(2));
/// assert!(!f.mark_informed(2), "already informed");
/// assert!(f.is_informed(2));
/// assert_eq!(f.informed_count(), 1);
/// assert!(!f.is_complete());
/// for agent in [0, 1, 3] {
///     f.mark_informed(agent);
/// }
/// assert!(f.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct UninformedFrontier {
    /// Bit `g` set ⇔ agent `g` is informed.
    informed: Vec<u64>,
    /// Dense list of the uninformed agents (order unspecified).
    uninformed: Vec<u32>,
    /// `slot[g]` = index of `g` in `uninformed`, valid while `g` is uninformed.
    slot: Vec<u32>,
    num_agents: usize,
}

impl UninformedFrontier {
    /// A frontier over `num_agents` agents, all uninformed.
    pub fn new(num_agents: usize) -> Self {
        UninformedFrontier {
            informed: vec![0; num_agents.div_ceil(64)],
            uninformed: (0..num_agents as u32).collect(),
            slot: (0..num_agents as u32).collect(),
            num_agents,
        }
    }

    /// Number of agents tracked.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Re-initializes the frontier in place to "all of `num_agents`
    /// uninformed" — the state [`UninformedFrontier::new`] constructs, but
    /// reusing the existing buffers (the exchange half of the sweep runner's
    /// reusable `SimWorkspace`).
    pub fn reset(&mut self, num_agents: usize) {
        self.informed.clear();
        self.informed.resize(num_agents.div_ceil(64), 0);
        self.uninformed.clear();
        self.uninformed.extend(0..num_agents as u32);
        self.slot.clear();
        self.slot.extend(0..num_agents as u32);
        self.num_agents = num_agents;
    }

    /// Number of informed agents.
    pub fn informed_count(&self) -> usize {
        self.num_agents - self.uninformed.len()
    }

    /// Whether agent `g` is informed.
    #[inline]
    pub fn is_informed(&self, g: AgentId) -> bool {
        debug_assert!(g < self.num_agents);
        self.informed[g >> 6] & (1u64 << (g & 63)) != 0
    }

    /// Marks agent `g` informed; returns `true` if it was newly informed.
    /// O(1) (swap-remove from the dense list).
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.num_agents()`.
    #[inline]
    pub fn mark_informed(&mut self, g: AgentId) -> bool {
        assert!(g < self.num_agents, "agent {g} out of range");
        let word = &mut self.informed[g >> 6];
        let mask = 1u64 << (g & 63);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        let idx = self.slot[g] as usize;
        debug_assert_eq!(self.uninformed[idx] as usize, g);
        self.uninformed.swap_remove(idx);
        if let Some(&moved) = self.uninformed.get(idx) {
            self.slot[moved as usize] = idx as u32;
        }
        true
    }

    /// Marks agent `g` uninformed again; returns `true` if it was informed.
    /// O(1) (appends to the dense list).
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.num_agents()`.
    pub fn mark_uninformed(&mut self, g: AgentId) -> bool {
        assert!(g < self.num_agents, "agent {g} out of range");
        let word = &mut self.informed[g >> 6];
        let mask = 1u64 << (g & 63);
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.slot[g] = self.uninformed.len() as u32;
        self.uninformed.push(g as u32);
        true
    }

    /// The uninformed agents as a dense list (order unspecified).
    pub fn uninformed(&self) -> &[u32] {
        &self.uninformed
    }

    /// Calls `f` for every uninformed agent, picking the cache-friendlier
    /// iteration strategy: while most agents are uninformed, an ascending
    /// bitset scan (so callers that index per-agent arrays walk them
    /// sequentially); once the uninformed set is small, the dense list (O(u)
    /// regardless of |A|). The visit order is unspecified either way — no
    /// caller draws randomness inside the scan, so order never influences a
    /// trajectory.
    pub fn for_each_uninformed(&self, mut f: impl FnMut(AgentId)) {
        if self.uninformed.len() * 4 >= self.num_agents {
            for (word_idx, &word) in self.informed.iter().enumerate() {
                let base = word_idx << 6;
                if word == 0 && base + 64 <= self.num_agents {
                    // Fully uninformed block: no per-bit scanning.
                    for agent in base..base + 64 {
                        f(agent);
                    }
                    continue;
                }
                let mut zeros = !word;
                while zeros != 0 {
                    let agent = base + zeros.trailing_zeros() as usize;
                    zeros &= zeros - 1;
                    if agent >= self.num_agents {
                        break;
                    }
                    f(agent);
                }
            }
        } else {
            for &agent in &self.uninformed {
                f(agent as usize);
            }
        }
    }

    /// `true` once every agent is informed (vacuously true for zero agents).
    pub fn is_complete(&self) -> bool {
        self.uninformed.is_empty()
    }

    /// The informed bitset words (bit `g` ⇔ agent `g` informed), as consumed
    /// by [`MultiWalk::step_exchange`](crate::MultiWalk::step_exchange).
    pub fn informed_words(&self) -> &[u64] {
        &self.informed
    }

    /// Calls `f` for every *informed* agent, in ascending order (word-at-a-
    /// time bitset scan: O(|A|/64 + |informed|)). Used by protocols whose
    /// informed population is much smaller than the graph, where walking the
    /// informed agents beats scanning uninformed vertices.
    pub fn for_each_informed(&self, mut f: impl FnMut(AgentId)) {
        for (word_idx, &word) in self.informed.iter().enumerate() {
            let mut ones = word;
            while ones != 0 {
                let agent = (word_idx << 6) + ones.trailing_zeros() as usize;
                ones &= ones - 1;
                f(agent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_uninformed() {
        let f = UninformedFrontier::new(70);
        assert_eq!(f.num_agents(), 70);
        assert_eq!(f.informed_count(), 0);
        assert_eq!(f.uninformed().len(), 70);
        assert!(!f.is_complete());
        assert!((0..70).all(|g| !f.is_informed(g)));
        assert_eq!(f.informed_words().len(), 2);
    }

    #[test]
    fn mark_informed_is_idempotent_and_consistent() {
        let mut f = UninformedFrontier::new(130);
        // Mark a scattered set, some twice.
        for g in [0usize, 63, 64, 65, 129, 64, 0] {
            f.mark_informed(g);
        }
        assert_eq!(f.informed_count(), 5);
        let mut remaining: Vec<u32> = f.uninformed().to_vec();
        remaining.sort_unstable();
        let expected: Vec<u32> = (0..130u32)
            .filter(|&g| ![0, 63, 64, 65, 129].contains(&g))
            .collect();
        assert_eq!(remaining, expected);
        for g in 0..130 {
            assert_eq!(f.is_informed(g), [0, 63, 64, 65, 129].contains(&g));
        }
    }

    #[test]
    fn completes_in_any_order() {
        let mut f = UninformedFrontier::new(33);
        let mut order: Vec<usize> = (0..33).collect();
        order.reverse();
        order.swap(0, 20);
        for g in order {
            assert!(f.mark_informed(g));
        }
        assert!(f.is_complete());
        assert_eq!(f.informed_count(), 33);
        assert!(f.uninformed().is_empty());
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let mut f = UninformedFrontier::new(100);
        for g in (0..100).step_by(3) {
            f.mark_informed(g);
        }
        f.reset(100);
        let fresh = UninformedFrontier::new(100);
        assert_eq!(f.informed_count(), 0);
        assert_eq!(f.uninformed(), fresh.uninformed());
        assert_eq!(f.informed_words(), fresh.informed_words());
        // Resizing across resets works too.
        f.reset(65);
        assert_eq!(f.num_agents(), 65);
        assert_eq!(f.uninformed().len(), 65);
        assert!(f.mark_informed(64));
        assert_eq!(f.informed_count(), 1);
    }

    #[test]
    fn mark_uninformed_reverses_mark_informed() {
        let mut f = UninformedFrontier::new(130);
        for g in [0usize, 5, 64, 129] {
            f.mark_informed(g);
        }
        assert!(f.mark_uninformed(64));
        assert!(!f.mark_uninformed(64), "already uninformed");
        assert!(!f.mark_uninformed(7), "never informed");
        assert_eq!(f.informed_count(), 3);
        assert!(!f.is_informed(64));
        // The slot index stays consistent: 64 can be informed and dropped
        // again, and every listed agent is exactly the uninformed ones.
        assert!(f.mark_informed(64));
        assert!(f.mark_uninformed(5));
        let mut remaining: Vec<u32> = f.uninformed().to_vec();
        remaining.sort_unstable();
        let expected: Vec<u32> = (0..130u32).filter(|g| ![0, 64, 129].contains(g)).collect();
        assert_eq!(remaining, expected);
        let mut seen = Vec::new();
        f.for_each_uninformed(|g| seen.push(g as u32));
        seen.sort_unstable();
        assert_eq!(seen, expected);
        for g in [0usize, 64, 129] {
            assert!(f.mark_uninformed(g));
        }
        assert_eq!(f.informed_count(), 0);
        assert_eq!(f.uninformed().len(), 130);
    }

    #[test]
    fn zero_agents_is_vacuously_complete() {
        let f = UninformedFrontier::new(0);
        assert!(f.is_complete());
        assert_eq!(f.informed_count(), 0);
    }

    #[test]
    fn informed_words_track_bits() {
        let mut f = UninformedFrontier::new(64);
        f.mark_informed(0);
        f.mark_informed(63);
        assert_eq!(f.informed_words()[0], 1 | (1u64 << 63));
    }
}
