//! Randomized rumor spreading: `push`, `pull` and `push-pull` as one
//! protocol over a compile-time exchange rule.
//!
//! Section 3 of the paper defines `push` and `push-pull` as one process that
//! differs only in which end of a call may act; pull-only is the third
//! member of the family. [`Gossip`] is that process and a [`GossipRule`]
//! names who calls: informed vertices ([`PushRule`]), uninformed ones
//! ([`PullRule`]), or both ([`PushPullRule`]). Rules are zero-sized types
//! with associated consts, so every branch on them folds away at compile
//! time. The same rule and boundary tracker (`Frontier`) serve the
//! sequential protocols, the sharded engine, the combined protocol's vertex
//! phase and the asynchronous variants.
//!
//! Every engine runs a synchronous round's calls in one vertex pass
//! (`Pass`) with two sources and two shapes: it draws from the sequential
//! generator in ascending caller order (`Sequential`) or from one counter
//! stream per caller (`Counter`, so the sharded engine runs it per word
//! range), and it draws and calls each caller in turn or, where
//! [`Topology::defers_reads`] holds, a gathered block at a time. The fast
//! mode walks the summary-indexed boundary; the edge-traffic mode walks the
//! rule's whole caller set and records every realized call.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

use rand::stream::RoundKey;
use rand::{Rng, RngCore};

use rumor_graphs::{DeferredNeighbor, DrawBlock, Graph, Topology, VertexId};

use crate::metrics::{EdgeTraffic, EdgeTrafficStats, RoundRecord};
use crate::options::ProtocolOptions;
use crate::protocol::{FastStep, Protocol};
use crate::protocols::common::{undo_is_cheap, Bits, InformedSet};
use crate::snapshot::{Checkpointable, SimSnapshot};

mod sealed {
    pub trait Sealed {}
}

/// Which end of a call may act: the exchange rule of one member of the
/// rumor-spreading family. Implemented by [`PushRule`], [`PullRule`] and
/// [`PushPullRule`] only.
///
/// Whoever calls, a call between `u` and `v` informs the uninformed one
/// when exactly one of them was informed before the round.
pub trait GossipRule: sealed::Sealed + Copy + Eq + fmt::Debug + Send + Sync + 'static {
    /// The protocol name ([`Protocol::name`]).
    const NAME: &'static str;
    /// Whether informed vertices call (the push side).
    const INFORMED_CALL: bool;
    /// Whether uninformed vertices call (the pull side).
    const UNINFORMED_CALL: bool;
}

/// The `push` rule: informed vertices call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushRule;

/// The pull-only rule: uninformed vertices call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullRule;

/// The `push-pull` rule: every vertex calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushPullRule;

impl sealed::Sealed for PushRule {}
impl sealed::Sealed for PullRule {}
impl sealed::Sealed for PushPullRule {}

impl GossipRule for PushRule {
    const NAME: &'static str = "push";
    const INFORMED_CALL: bool = true;
    const UNINFORMED_CALL: bool = false;
}

impl GossipRule for PullRule {
    const NAME: &'static str = "pull";
    const INFORMED_CALL: bool = false;
    const UNINFORMED_CALL: bool = true;
}

impl GossipRule for PushPullRule {
    const NAME: &'static str = "push-pull";
    const INFORMED_CALL: bool = true;
    const UNINFORMED_CALL: bool = true;
}

/// Whether vertex `u`, in the given membership state, calls under `R`.
#[inline(always)]
pub(crate) fn calls<R: GossipRule>(u_informed: bool) -> bool {
    if u_informed {
        R::INFORMED_CALL
    } else {
        R::UNINFORMED_CALL
    }
}

/// Callers the block shape of the vertex pass gathers before it draws.
const BATCH: usize = 128;

/// Where a vertex pass draws its randomness. The pass asks for one caller
/// at a time, in ascending vertex order, and every caller has a neighbor.
trait DrawSource {
    /// Draws the call target of `u`: through [`Topology::draw_deferred`]
    /// when `DEFER`, resolved on the spot otherwise.
    fn draw<G: Topology, const DEFER: bool>(&mut self, graph: &G, u: usize) -> DeferredNeighbor;
}

/// The sequential engine's source: one shared generator, so the ascending
/// caller order of the pass is the order of the draws.
struct Sequential<'a, X: ?Sized>(&'a mut X);

impl<X: Rng + ?Sized> DrawSource for Sequential<'_, X> {
    #[inline(always)]
    fn draw<G: Topology, const DEFER: bool>(&mut self, graph: &G, u: usize) -> DeferredNeighbor {
        if DEFER {
            graph.draw_deferred(u, self.0)
        } else {
            DeferredNeighbor::vertex(graph.random_neighbor_nonisolated(u, self.0))
        }
    }
}

/// The sharded engine's source: caller `u` draws from its own stream of the
/// round, `round_key.stream(u)`, so a draw does not depend on which shard
/// makes it. A degree-1 caller's target is forced, and it draws nothing
/// ([`Topology::draw_deferred_with`]); star leaves, the hottest class on the
/// paper's instances, skip the block function that way. (A pair-lane
/// block-sharing scheme was tried here and reverted: its pair-detection
/// branch mispredicts on fragmented frontiers and cost more than the shared
/// blocks saved.)
struct Counter<'a>(&'a RoundKey);

impl DrawSource for Counter<'_> {
    #[inline(always)]
    fn draw<G: Topology, const DEFER: bool>(&mut self, graph: &G, u: usize) -> DeferredNeighbor {
        let key = self.0;
        graph
            .draw_deferred_with(u, || key.stream(u as u64))
            .expect("a caller has a neighbor")
    }
}

/// The vertex pass: one round's calls, for both engines and both modes.
/// Every caller draws its target from `source`; each call is recorded in
/// `traffic`, if any, and pushes the vertex it informs to `out`.
struct Pass<'a, G, S> {
    graph: &'a G,
    informed: &'a InformedSet,
    source: S,
    out: &'a mut Vec<u32>,
    traffic: Option<&'a mut EdgeTraffic>,
}

impl<G: Topology, S: DrawSource> Pass<'_, G, S> {
    /// Runs the calls of `callers`, ascending and each with a neighbor, in
    /// the shape [`Topology::defers_reads`] picks. `draws` holds the block
    /// shape's tokens.
    #[inline(always)]
    fn run<R: GossipRule>(mut self, callers: impl Iterator<Item = usize>, draws: &mut DrawBlock) {
        if self.graph.defers_reads() {
            let mut batch = [0u32; BATCH];
            let mut count = 0;
            for u in callers {
                batch[count] = u as u32;
                count += 1;
                if count == BATCH {
                    self.drain::<R>(&batch, draws);
                    count = 0;
                }
            }
            self.drain::<R>(&batch[..count], draws);
        } else {
            for u in callers {
                let v = self
                    .graph
                    .resolve_deferred(self.source.draw::<G, false>(self.graph, u));
                self.call::<R>(u, v);
            }
        }
    }

    /// Draws a gathered batch's tokens, resolves them with one
    /// [`Topology::resolve_block`] call, then runs the calls in caller order.
    /// Never inlined into the gather loop: on a sparse frontier (star push:
    /// ~1.6·10^5 rounds of one caller) that loop is the per-round fixed
    /// cost, and inlining the draw body into it quadrupled that cost.
    #[inline(never)]
    fn drain<R: GossipRule>(&mut self, batch: &[u32], draws: &mut DrawBlock) {
        draws.clear();
        for &u in batch {
            draws.push(self.source.draw::<G, true>(self.graph, u as usize));
        }
        self.graph.resolve_block(draws);
        for (&u, &v) in batch.iter().zip(draws.resolved()) {
            self.call::<R>(u as usize, v as usize);
        }
    }

    /// Applies the call from `u` to `v`. The caller's membership comes from
    /// the rule alone when only one side calls, so push and pull load just
    /// `v`'s bit.
    #[inline(always)]
    fn call<R: GossipRule>(&mut self, u: usize, v: usize) {
        if let Some(traffic) = self.traffic.as_deref_mut() {
            traffic.record(u, v);
        }
        let informed = self.informed;
        let u_informed = if R::INFORMED_CALL && R::UNINFORMED_CALL {
            informed.contains(u)
        } else {
            R::INFORMED_CALL
        };
        if u_informed != informed.contains(v) {
            self.out.push(if u_informed { v as u32 } else { u as u32 });
        }
    }
}

/// The boundary tracker shared by every user of a [`GossipRule`]: the
/// callers whose call can still change the informed set, and the number of
/// messages a round sends.
///
/// A caller is *active* when it has a neighbor in the other membership
/// state — an informed caller with an uninformed neighbor, or an uninformed
/// caller with an informed one. Every other call leaves the state
/// unchanged whatever its draw, so the engines skip its sample and count
/// its message arithmetically. Skipping a draw whose every outcome leaves
/// the state unchanged does not alter the law of the informed-set
/// trajectory; it only advances the RNG stream differently.
///
/// The tracker keeps one uninformed-neighbor count per vertex, updated in
/// `O(deg v)` when `v` becomes informed (`O(|E|)` over a run), so a round
/// draws `O(|boundary|)` times. Messages follow from the counts of
/// non-isolated vertices and of informed non-isolated ones: one per calling
/// vertex with a neighbor, saturated or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frontier<R> {
    /// Per-vertex count of *uninformed* neighbors.
    uninformed_nb: Vec<u32>,
    /// Callers with a neighbor in the other membership state.
    active: Bits,
    /// Vertices with degree > 0 (a graph constant).
    nonisolated: u64,
    /// Informed vertices with degree > 0.
    informed_nonisolated: u64,
    rule: PhantomData<R>,
}

impl<R: GossipRule> Frontier<R> {
    /// The tracker of the empty informed set on `graph`.
    fn new<G: Topology>(graph: &G) -> Self {
        let mut frontier = Frontier {
            uninformed_nb: Vec::new(),
            active: Bits::new(0),
            nonisolated: 0,
            informed_nonisolated: 0,
            rule: PhantomData,
        };
        frontier.reset(graph);
        frontier
    }

    /// Re-initializes to the empty informed set in place (same state as
    /// [`Frontier::new`], reusing the buffers).
    fn reset<G: Topology>(&mut self, graph: &G) {
        self.uninformed_nb.clear();
        self.uninformed_nb
            .extend(graph.vertices().map(|u| graph.degree(u) as u32));
        self.nonisolated = self.uninformed_nb.iter().filter(|&&d| d > 0).count() as u64;
        self.informed_nonisolated = 0;
        self.active.reset(graph.num_vertices());
    }

    /// The `O(Σ deg(members))` alternative to [`Frontier::reset`]: undoes a
    /// run's counter decrements and clears the active bits of the informed
    /// `members` and of their neighbors, which covers every rule's active
    /// set. `members` must be the informed set the tracker was maintained
    /// for, on the same graph.
    fn unwind<G: Topology>(&mut self, graph: &G, members: &[u32]) {
        for &v in members {
            let v = v as usize;
            self.active.clear(v);
            graph.for_each_neighbor(v, |w| {
                self.uninformed_nb[w] += 1;
                self.active.clear(w);
            });
        }
        self.informed_nonisolated = 0;
    }

    /// Must be called exactly once per vertex, immediately after it is
    /// inserted into `informed`. Within a round, call it per vertex in the
    /// merge loop: a vertex informed later in the same batch is re-checked
    /// when its own call runs. `neighbors` is `v`'s neighbor list when the
    /// caller has already resolved it ([`Topology::neighbor_lists`]);
    /// otherwise the graph enumerates it.
    #[inline]
    fn on_informed<G: Topology>(
        &mut self,
        graph: &G,
        v: VertexId,
        informed: &InformedSet,
        neighbors: Option<&[u32]>,
    ) {
        let (counts, active) = (&mut self.uninformed_nb, &mut self.active);
        let visit = |w: VertexId| {
            let c = &mut counts[w];
            *c -= 1;
            if R::UNINFORMED_CALL && !informed.contains(w) {
                // w now has an informed neighbor.
                active.set(w);
            } else if R::INFORMED_CALL && *c == 0 && informed.contains(w) {
                // w just lost its last uninformed neighbor.
                active.clear(w);
            }
        };
        match neighbors {
            Some(list) => list.iter().map(|&w| w as VertexId).for_each(visit),
            None => graph.for_each_neighbor(v, visit),
        }
        if graph.degree(v) > 0 {
            self.informed_nonisolated += 1;
        }
        // v now calls (if at all) as an informed vertex: active while it has
        // an uninformed neighbor.
        if R::INFORMED_CALL && self.uninformed_nb[v] > 0 {
            self.active.set(v);
        } else if R::UNINFORMED_CALL {
            self.active.clear(v);
        }
    }

    /// Messages one round sends: one per calling vertex with a neighbor.
    #[inline]
    fn messages_per_round(&self) -> u64 {
        u64::from(R::INFORMED_CALL) * self.informed_nonisolated
            + u64::from(R::UNINFORMED_CALL) * (self.nonisolated - self.informed_nonisolated)
    }

    /// `true` when no call can change the informed set any more: an
    /// incomplete run is frozen forever.
    #[inline]
    fn is_quiescent(&self) -> bool {
        self.active.none_set()
    }
}

/// Synchronous randomized rumor spreading under the exchange rule `R`: the
/// rumor starts at a source in round 0, and in each round `t ≥ 1` every
/// vertex the rule lets call samples a uniformly random neighbor; if exactly
/// one of the two was informed before round `t`, the other becomes informed.
/// Use it through its aliases [`Push`], [`Pull`] and [`PushPull`].
///
/// Only callers on the boundary draw (see `Frontier`); the other messages
/// are counted arithmetically. With [`ProtocolOptions::record_edge_traffic`]
/// every caller's draw is realized (per-edge traffic must observe it),
/// which is also the mode that is draw-for-draw identical to a naive full
/// `0..n` scan. Either way a round is one vertex pass, with one of two draw
/// sources and in one of two shapes (see the module documentation).
#[derive(Debug, Clone)]
pub struct Gossip<'g, G: Topology, R: GossipRule> {
    graph: &'g G,
    source: VertexId,
    /// Vertices informed so far. Vertices informed during the current round
    /// are buffered in `newly_informed` and merged at the end of the round,
    /// so a vertex informed in round `t` acts as informed from round `t + 1`.
    informed: InformedSet,
    /// Boundary tracker: callers whose call can change the state.
    frontier: Frontier<R>,
    /// Reusable per-round buffer (never reallocated after warm-up).
    newly_informed: Vec<u32>,
    /// The vertex pass's tokens in its block shape (boxed, so that the
    /// workspace's protocol slots, which embed this state, stay compact).
    draws: Box<DrawBlock>,
    round: u64,
    messages_total: u64,
    messages_last: u64,
    edge_traffic: Option<EdgeTraffic>,
}

/// The `push` protocol of Demers et al., as defined in Section 3 of the
/// paper:
///
/// > In round zero, vertex `s` becomes informed. In each round `t ≥ 1`, every
/// > vertex `u` that was informed in a previous round samples a random
/// > neighbor `v` to send the information to, and if `v` is not already
/// > informed, it becomes informed in this round.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::{Protocol, ProtocolOptions, Push};
/// use rumor_graphs::generators::complete;
///
/// let g = complete(64)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut push = Push::new(&g, 0, ProtocolOptions::none());
/// while !push.is_complete() {
///     push.step(&mut rng);
/// }
/// // Push on the complete graph informs everyone in Θ(log n) rounds.
/// assert!(push.round() >= 6 && push.round() < 40);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub type Push<'g, G = Graph> = Gossip<'g, G, PushRule>;

/// Pull-only rumor spreading: in each round every *uninformed* vertex calls
/// a uniformly random neighbor and becomes informed if that neighbor was
/// informed in a previous round.
///
/// The paper studies `push` and `push-pull`; pull-only is the natural third
/// member of the family (and what `push-pull` adds on top of `push`),
/// useful for ablation experiments.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::{Protocol, ProtocolOptions, Pull};
/// use rumor_graphs::generators::star;
///
/// // On the star, pull is fast: every leaf pulls from the center.
/// let g = star(100)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut pull = Pull::new(&g, 0, ProtocolOptions::none());
/// while !pull.is_complete() {
///     pull.step(&mut rng);
/// }
/// assert!(pull.round() <= 2);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub type Pull<'g, G = Graph> = Gossip<'g, G, PullRule>;

/// The `push-pull` protocol (Karp et al.), as defined in Section 3 of the
/// paper:
///
/// > As in `push`, vertex `s` is informed in round zero. In each round
/// > `t ≥ 1`, every vertex `u ∈ V` (informed or not) samples a random
/// > neighbor `v` to exchange information with, and if exactly one of `u` and
/// > `v` was informed before round `t`, then the other vertex becomes informed
/// > as well.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::{Protocol, ProtocolOptions, PushPull};
/// use rumor_graphs::generators::star;
///
/// // Lemma 2(b): push-pull on the star finishes in at most two rounds.
/// let g = star(1000)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut pp = PushPull::new(&g, 5, ProtocolOptions::none());
/// while !pp.is_complete() {
///     pp.step(&mut rng);
/// }
/// assert!(pp.round() <= 2);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub type PushPull<'g, G = Graph> = Gossip<'g, G, PushPullRule>;

impl<'g, G: Topology, R: GossipRule> Gossip<'g, G, R> {
    /// Creates the protocol with the rumor at `source` (round 0), on any
    /// topology backend.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn new(graph: &'g G, source: VertexId, options: ProtocolOptions) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        let mut gossip = Gossip {
            graph,
            source,
            informed: InformedSet::new(graph.num_vertices()),
            frontier: Frontier::new(graph),
            newly_informed: Vec::new(),
            draws: Box::default(),
            round: 0,
            messages_total: 0,
            messages_last: 0,
            edge_traffic: options.record_edge_traffic.then(EdgeTraffic::new),
        };
        gossip.inform(source);
        gossip
    }

    /// Re-initializes the protocol in place for a fresh trial at `source` —
    /// identical state to [`Gossip::new`] without edge traffic, but reusing
    /// every buffer (the workspace reset path; see
    /// [`SimWorkspace`](crate::SimWorkspace)).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub(crate) fn reset(&mut self, source: VertexId) {
        assert!(source < self.graph.num_vertices(), "source out of range");
        self.source = source;
        // Adaptive teardown: a windowed previous trial informed a sliver, so
        // undoing its exact effects beats refilling O(n) arrays.
        if undo_is_cheap(self.graph, self.informed.informed()) {
            self.frontier.unwind(self.graph, self.informed.informed());
            self.informed.clear_members();
        } else {
            self.informed.reset(self.graph.num_vertices());
            self.frontier.reset(self.graph);
        }
        self.inform(source);
        self.newly_informed.clear();
        self.round = 0;
        self.messages_total = 0;
        self.messages_last = 0;
        self.edge_traffic = None;
    }

    /// The graph the protocol runs on.
    pub(crate) fn graph(&self) -> &'g G {
        self.graph
    }

    /// The informed vertex set.
    pub(crate) fn informed(&self) -> &InformedSet {
        &self.informed
    }

    /// The callers whose draw can change the state this round.
    pub(crate) fn active(&self) -> &Bits {
        &self.frontier.active
    }

    /// The edge-traffic recorder, when one was requested.
    pub(crate) fn edge_traffic_mut(&mut self) -> Option<&mut EdgeTraffic> {
        self.edge_traffic.as_mut()
    }

    /// Marks `v` informed now and moves the boundary: the merge step of a
    /// round, the snapshot replay, and how the combined protocol's agents
    /// inform a vertex.
    #[inline]
    pub(crate) fn inform(&mut self, v: VertexId) {
        if self.informed.insert(v) {
            self.frontier
                .on_informed(self.graph, v, &self.informed, None);
        }
    }

    /// [`Gossip::inform`] with `v`'s neighbor list taken from `lists` when
    /// the insert succeeds: the sharded merge resolves the lists of a
    /// round's first occurrences ahead, in order, and a successful insert
    /// is exactly a first occurrence. Returns whether it took a list.
    #[inline]
    pub(crate) fn inform_listed(&mut self, v: VertexId, lists: &mut &[u32]) -> bool {
        if !self.informed.insert(v) {
            return false;
        }
        let (list, rest) = lists.split_at(self.graph.degree(v));
        *lists = rest;
        self.frontier
            .on_informed(self.graph, v, &self.informed, Some(list));
        true
    }

    /// Opens a round: advances the counter and charges its messages, which
    /// depend only on the informed set at the start of the round.
    #[inline]
    pub(crate) fn begin_round(&mut self) -> u64 {
        self.round += 1;
        self.messages_last = self.frontier.messages_per_round();
        self.messages_total += self.messages_last;
        self.round
    }

    /// Adds `messages` sent by another component to the current round (the
    /// combined protocol's agent moves).
    pub(crate) fn charge(&mut self, messages: u64) {
        self.messages_last += messages;
        self.messages_total += messages;
    }

    /// Executes one synchronous round, monomorphized over the RNG.
    ///
    /// This is the hot path: the engine calls it with its concrete fast RNG
    /// so neighbor sampling inlines with no per-sample dynamic dispatch.
    /// [`Protocol::step`] forwards here through `dyn RngCore` for callers
    /// that hold a trait object.
    pub fn step_with<X: Rng + ?Sized>(&mut self, rng: &mut X) {
        self.begin_round();
        self.newly_informed.clear();
        let (graph, informed, draws) = (self.graph, &self.informed, &mut self.draws);
        let pass = Pass {
            graph,
            informed,
            source: Sequential(rng),
            out: &mut self.newly_informed,
            traffic: self.edge_traffic.as_mut(),
        };
        if pass.traffic.is_none() {
            // Fast mode: only boundary callers draw.
            pass.run::<R>(self.frontier.active.ones(), draws);
        } else {
            // Observability mode: every caller with a neighbor draws, so
            // per-edge traffic is complete.
            let nonisolated = |u: &usize| graph.degree(*u) > 0;
            match (R::INFORMED_CALL, R::UNINFORMED_CALL) {
                (true, false) => pass.run::<R>(informed.ones().filter(nonisolated), draws),
                (false, true) => pass.run::<R>(informed.zeros().filter(nonisolated), draws),
                _ => pass.run::<R>(graph.vertices().filter(nonisolated), draws),
            }
        }
        for i in 0..self.newly_informed.len() {
            self.inform(self.newly_informed[i] as usize);
        }
    }

    /// The sharded engine's calls of one round over the boundary words
    /// `words`, each caller drawing from its own stream of `round_key`:
    /// pushes the vertices they inform to `out`.
    pub(crate) fn sharded_calls(
        &self,
        round_key: &RoundKey,
        words: Range<usize>,
        out: &mut Vec<u32>,
        draws: &mut DrawBlock,
    ) {
        let pass = Pass {
            graph: self.graph,
            informed: &self.informed,
            source: Counter(round_key),
            out,
            traffic: None,
        };
        pass.run::<R>(self.frontier.active.ones_in(words), draws);
    }
}

impl<G: Topology, R: GossipRule> FastStep for Gossip<'_, G, R> {
    #[inline]
    fn fast_step<X: Rng + ?Sized>(&mut self, rng: &mut X) {
        self.step_with(rng)
    }

    #[inline]
    fn is_stalled(&self) -> bool {
        !self.informed.is_full() && self.frontier.is_quiescent()
    }
}

impl<G: Topology, R: GossipRule> Checkpointable for Gossip<'_, G, R> {
    fn capture(
        &self,
        spec_digest: u64,
        rng: Option<[u64; 4]>,
        history: &[RoundRecord],
    ) -> SimSnapshot {
        SimSnapshot {
            spec_digest,
            round: self.round,
            messages_total: self.messages_total,
            messages_last: self.messages_last,
            rng,
            informed_vertices: self.informed.informed().to_vec(),
            informed_agents: Vec::new(),
            positions: None,
            walk_round: 0,
            source_active: false,
            history: history.to_vec(),
        }
    }

    fn restore(&mut self, snapshot: &SimSnapshot) {
        self.informed.reset(self.graph.num_vertices());
        self.frontier.reset(self.graph);
        // Replaying the recorded insertion order reproduces the exact
        // insert/on_informed call sequence of the original run, and with it
        // every derived frontier structure, bit for bit.
        for &v in &snapshot.informed_vertices {
            self.inform(v as usize);
        }
        self.newly_informed.clear();
        self.round = snapshot.round;
        self.messages_total = snapshot.messages_total;
        self.messages_last = snapshot.messages_last;
        self.edge_traffic = None;
    }
}

impl<G: Topology, R: GossipRule> Protocol for Gossip<'_, G, R> {
    fn name(&self) -> &'static str {
        R::NAME
    }

    fn source(&self) -> VertexId {
        self.source
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        self.step_with(rng)
    }

    fn is_complete(&self) -> bool {
        self.informed.is_full()
    }

    fn is_vertex_informed(&self, v: VertexId) -> bool {
        self.informed.contains(v)
    }

    fn informed_vertex_count(&self) -> usize {
        self.informed.count()
    }

    fn messages_sent(&self) -> u64 {
        self.messages_total
    }

    fn messages_last_round(&self) -> u64 {
        self.messages_last
    }

    fn edge_traffic(&self) -> Option<&EdgeTraffic> {
        self.edge_traffic.as_ref()
    }

    fn edge_traffic_stats(&self, rounds: u64) -> Option<EdgeTrafficStats> {
        self.edge_traffic
            .as_ref()
            .map(|t| t.stats(self.graph, rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::{SmallRng, StdRng};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rumor_graphs::generators::{
        complete, cycle, double_star, erdos_renyi, path, star, STAR_CENTER,
    };

    fn run<G: Topology, R: GossipRule>(
        p: &mut Gossip<'_, G, R>,
        cap: u64,
        rng: &mut StdRng,
    ) -> u64 {
        while !p.is_complete() && p.round() < cap {
            p.step(rng);
        }
        p.round()
    }

    /// The boundary of rule `R` recomputed from its definition: the callers
    /// with a neighbor in the other membership state, and the messages of a
    /// round — one per caller with a neighbor.
    fn naive_boundary<R: GossipRule>(graph: &Graph, informed: &[bool]) -> (Vec<usize>, u64) {
        let calling = |u: usize| calls::<R>(informed[u]);
        let active = graph
            .vertices()
            .filter(|&u| calling(u))
            .filter(|&u| {
                graph
                    .neighbors(u)
                    .iter()
                    .any(|&w| informed[w as usize] != informed[u])
            })
            .collect();
        let messages = graph
            .vertices()
            .filter(|&u| calling(u) && graph.degree(u) > 0)
            .count();
        (active, messages as u64)
    }

    /// Feeds `order` to a fresh tracker one vertex at a time (as a round's
    /// merge loop does) and compares it with the naive boundary after each.
    fn assert_tracker_matches<R: GossipRule>(name: &str, graph: &Graph, order: &[usize]) {
        let n = graph.num_vertices();
        let mut informed = InformedSet::new(n);
        let mut model = vec![false; n];
        let mut frontier = Frontier::<R>::new(graph);
        for step in 0..=order.len() {
            if step > 0 {
                let v = order[step - 1];
                if informed.insert(v) {
                    frontier.on_informed(graph, v, &informed, None);
                }
                model[v] = true;
            }
            let context = format!("{} on {name}, {step} of {order:?} informed", R::NAME);
            let (active, messages) = naive_boundary::<R>(graph, &model);
            assert_eq!(
                frontier.active.ones().collect::<Vec<_>>(),
                active,
                "{context}"
            );
            assert_eq!(frontier.messages_per_round(), messages, "{context}");
            assert_eq!(frontier.is_quiescent(), active.is_empty(), "{context}");
        }
    }

    #[test]
    fn tracker_matches_the_boundary_definition_for_every_rule() {
        let mut rng = SmallRng::seed_from_u64(0xB0_0DA);
        let graphs = [
            (
                "triangle",
                Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap(),
            ),
            (
                "path-4",
                Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
            ),
            ("star", star(9).unwrap()),
            ("path", path(12).unwrap()),
            // Sparse enough to leave isolated vertices, which never send.
            ("gnp", erdos_renyi(40, 0.06, &mut rng).unwrap()),
        ];
        for (name, graph) in &graphs {
            let ascending: Vec<usize> = graph.vertices().collect();
            let descending: Vec<usize> = ascending.iter().rev().copied().collect();
            let mut shuffled = ascending.clone();
            shuffled.shuffle(&mut rng);
            for order in [&ascending, &descending, &shuffled] {
                assert_tracker_matches::<PushRule>(name, graph, order);
                assert_tracker_matches::<PullRule>(name, graph, order);
                assert_tracker_matches::<PushPullRule>(name, graph, order);
            }
        }
    }

    #[test]
    fn unwind_and_reseed_equal_a_fresh_tracker() {
        fn check<R: GossipRule>(name: &str, graph: &Graph) {
            let mut rng = SmallRng::seed_from_u64(11);
            let mut gossip = Gossip::<Graph, R>::new(graph, 0, ProtocolOptions::none());
            for _ in 0..3 {
                gossip.step_with(&mut rng);
            }
            let context = format!("{} on {name}", R::NAME);
            assert!(
                gossip.informed_vertex_count() > 1,
                "{context}: window informed no one"
            );
            assert!(
                undo_is_cheap(graph, gossip.informed.informed()),
                "{context}: the windowed run must take the undo branch"
            );
            gossip.reset(5);
            let fresh = Gossip::<Graph, R>::new(graph, 5, ProtocolOptions::none());
            assert_eq!(gossip.frontier, fresh.frontier, "{context}");
            assert_eq!(gossip.informed, fresh.informed, "{context}");
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for (name, graph) in [
            ("cycle", cycle(600).unwrap()),
            ("gnp", erdos_renyi(600, 0.005, &mut rng).unwrap()),
        ] {
            check::<PushRule>(name, &graph);
            check::<PullRule>(name, &graph);
            check::<PushPullRule>(name, &graph);
        }
    }

    #[test]
    fn initial_state() {
        let g = complete(8).unwrap();
        let p = Push::new(&g, 3, ProtocolOptions::none());
        assert_eq!(p.name(), "push");
        assert_eq!(p.source(), 3);
        assert_eq!(p.round(), 0);
        assert_eq!(p.informed_vertex_count(), 1);
        assert!(p.is_vertex_informed(3));
        assert!(!p.is_vertex_informed(0));
        assert!(!p.is_complete());
        assert_eq!(p.num_agents(), 0);
        assert_eq!(p.informed_agent_count(), 0);
        assert_eq!(Pull::new(&g, 2, ProtocolOptions::none()).name(), "pull");
        assert_eq!(
            PushPull::new(&g, 1, ProtocolOptions::none()).name(),
            "push-pull"
        );
    }

    #[test]
    fn single_vertex_graph_is_immediately_complete() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(Push::new(&g, 0, ProtocolOptions::none()).is_complete());
        assert!(Pull::new(&g, 0, ProtocolOptions::none()).is_complete());
        assert!(PushPull::new(&g, 0, ProtocolOptions::none()).is_complete());
    }

    #[test]
    fn push_and_pull_inform_everyone_on_complete_graphs() {
        let g = complete(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut push = Push::new(&g, 0, ProtocolOptions::none());
        let rounds = run(&mut push, 10_000, &mut rng);
        assert!(push.is_complete());
        assert!(rounds >= 5, "needs at least log2(n) rounds, got {rounds}");
        assert!(rounds < 100);
        let g = complete(64).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut pull = Pull::new(&g, 0, ProtocolOptions::none());
        run(&mut pull, 10_000, &mut rng);
        assert!(pull.is_complete());
    }

    #[test]
    fn push_is_monotone_and_at_most_doubles_push_pull_is_monotone() {
        let g = complete(64).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Push::new(&g, 0, ProtocolOptions::none());
        let mut prev = p.informed_vertex_count();
        while !p.is_complete() {
            p.step(&mut rng);
            let now = p.informed_vertex_count();
            assert!(now >= prev, "informed set shrank");
            assert!(now <= 2 * prev, "informed more than doubled in one round");
            prev = now;
        }
        let g = complete(32).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = PushPull::new(&g, 0, ProtocolOptions::none());
        let mut prev = 1;
        while !p.is_complete() {
            p.step(&mut rng);
            assert!(p.informed_vertex_count() >= prev);
            prev = p.informed_vertex_count();
        }
    }

    #[test]
    fn messages_count_the_callers_with_a_neighbor() {
        let g = complete(16).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut push = Push::new(&g, 0, ProtocolOptions::none());
        let mut expected_total = 0u64;
        while !push.is_complete() {
            let informed_before = push.informed_vertex_count() as u64;
            push.step(&mut rng);
            assert_eq!(push.messages_last_round(), informed_before);
            expected_total += informed_before;
        }
        assert_eq!(push.messages_sent(), expected_total);

        let mut rng = StdRng::seed_from_u64(3);
        let mut pull = Pull::new(&g, 0, ProtocolOptions::none());
        pull.step(&mut rng);
        assert_eq!(pull.messages_last_round(), 15);

        let g = complete(20).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pp = PushPull::new(&g, 0, ProtocolOptions::none());
        pp.step(&mut rng);
        assert_eq!(pp.messages_last_round(), 20);
        pp.step(&mut rng);
        assert_eq!(pp.messages_sent(), 40);
    }

    #[test]
    fn push_on_the_star_is_coupon_collector_slow() {
        // Lemma 2(a): E[T_push] = Ω(n log n) on the star. With 30 leaves the
        // expected time is ~30 · H(30) ≈ 120 rounds.
        let g = star(30).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 20;
        let total: u64 = (0..trials)
            .map(|_| {
                run(
                    &mut Push::new(&g, 0, ProtocolOptions::none()),
                    100_000,
                    &mut rng,
                )
            })
            .sum();
        let mean = total as f64 / trials as f64;
        assert!(mean > 60.0, "star push mean {mean} suspiciously fast");
    }

    #[test]
    fn push_takes_at_least_distance_rounds_on_a_path() {
        let g = path(20).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let rounds = run(
            &mut Push::new(&g, 0, ProtocolOptions::none()),
            100_000,
            &mut rng,
        );
        assert!(rounds >= 19, "information cannot outrun the graph distance");
    }

    #[test]
    fn pull_on_the_star_is_fast_from_the_center_and_slow_from_a_leaf() {
        // Every leaf pulls from the center, so from the center one round
        // informs everyone; from a leaf the center must find that leaf.
        let g = star(50).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut from_center = Pull::new(&g, STAR_CENTER, ProtocolOptions::none());
        from_center.step(&mut rng);
        assert!(from_center.is_complete());
        let g = star(40).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 10;
        let total: u64 = (0..trials)
            .map(|_| {
                run(
                    &mut Pull::new(&g, 1, ProtocolOptions::none()),
                    100_000,
                    &mut rng,
                )
            })
            .sum();
        let mean = total as f64 / trials as f64;
        assert!(
            mean > 10.0,
            "pull from a leaf took a mean of only {mean} rounds"
        );
    }

    #[test]
    fn push_pull_on_the_star_takes_at_most_two_rounds() {
        // Lemma 2(b): one round from the center, two from a leaf.
        let mut rng = StdRng::seed_from_u64(0);
        let g = star(200).unwrap();
        let mut from_center = PushPull::new(&g, STAR_CENTER, ProtocolOptions::none());
        assert!(run(&mut from_center, 100, &mut rng) <= 1);
        let mut from_leaf = PushPull::new(&g, 7, ProtocolOptions::none());
        assert!(run(&mut from_leaf, 100, &mut rng) <= 2);
    }

    #[test]
    fn push_pull_is_faster_than_push_alone_on_star() {
        // Sanity: push-pull ≤ 2 rounds vs push's Ω(n log n) on the star.
        let g = star(100).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut pp = PushPull::new(&g, STAR_CENTER, ProtocolOptions::none());
        let t_pp = run(&mut pp, 10_000, &mut rng);
        let mut push = Push::new(&g, STAR_CENTER, ProtocolOptions::none());
        let t_push = run(&mut push, u64::MAX, &mut rng);
        assert!(
            t_pp < t_push,
            "push-pull {t_pp} not faster than push {t_push}"
        );
    }

    #[test]
    fn push_pull_on_the_double_star_is_slow() {
        // Lemma 3(a): E[T_ppull] = Ω(n). With 60 leaves per star the
        // center-center edge is sampled with probability ≤ 4/62 per round.
        let g = double_star(60).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 15;
        let total: u64 = (0..trials)
            .map(|_| {
                run(
                    &mut PushPull::new(&g, 2, ProtocolOptions::none()),
                    1_000_000,
                    &mut rng,
                )
            })
            .sum();
        let mean = total as f64 / trials as f64;
        assert!(
            mean > 8.0,
            "double star should take Ω(n) rounds, mean {mean}"
        );
    }

    #[test]
    fn edge_traffic_is_recorded_only_when_requested() {
        let g = complete(8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(Push::new(&g, 0, ProtocolOptions::none())
            .edge_traffic()
            .is_none());
        let mut push = Push::new(&g, 0, ProtocolOptions::with_edge_traffic());
        run(&mut push, 1_000, &mut rng);
        let traffic = push.edge_traffic().expect("edge traffic requested");
        assert_eq!(traffic.total(), push.messages_sent());
        assert!(traffic.used_edges() > 0);
        let g = complete(10).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut pull = Pull::new(&g, 0, ProtocolOptions::with_edge_traffic());
        run(&mut pull, u64::MAX, &mut rng);
        assert_eq!(pull.edge_traffic().unwrap().total(), pull.messages_sent());
    }

    #[test]
    fn push_pull_traffic_starves_the_double_star_bridge() {
        // Fairness contrast (Section 1): every leaf calls its center every
        // round, while the center-center edge is sampled only when a center
        // picks the other center: expected ~2 · 200 / 31 ≈ 13 calls.
        let g = double_star(30).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = PushPull::new(&g, 0, ProtocolOptions::with_edge_traffic());
        for _ in 0..200 {
            p.step(&mut rng);
        }
        let traffic = p.edge_traffic().unwrap();
        let (bridge, leaf_edge) = (traffic.count(0, 1), traffic.count(0, 2));
        assert!(
            bridge < leaf_edge,
            "bridge traffic {bridge} should be far below leaf-edge traffic {leaf_edge}"
        );
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn rejects_out_of_range_source() {
        let g = complete(4).unwrap();
        let _ = Push::new(&g, 4, ProtocolOptions::none());
    }
}
