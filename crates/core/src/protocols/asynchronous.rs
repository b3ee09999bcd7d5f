//! Asynchronous rumor spreading (Poisson-clock model).
//!
//! Section 2 of the paper surveys the line of work comparing synchronous and
//! asynchronous rumor spreading: in the asynchronous model every vertex holds
//! an independent unit-rate Poisson clock and acts (pushes, or push-pulls)
//! whenever its clock rings. Sauerwald \[41\] shows asynchronous `push` matches
//! synchronous `push` on regular graphs, and Giakkoupis–Nazari–Woelfel [27]
//! give tight bounds for asynchronous `push-pull`.
//!
//! The implementation uses the standard discrete equivalent of the Poisson
//! model: one *time unit* consists of `n` activations of uniformly random
//! vertices (with replacement). [`Protocol::round`] therefore counts elapsed
//! time units, directly comparable to synchronous rounds.

use std::marker::PhantomData;

use rand::{Rng, RngCore};

use rumor_graphs::{Graph, VertexId};

use crate::metrics::{EdgeTraffic, EdgeTrafficStats};
use crate::options::ProtocolOptions;
use crate::protocol::{FastStep, Protocol};
use crate::protocols::common::InformedSet;
use crate::protocols::gossip::{calls, GossipRule, PushPullRule, PushRule};

/// Asynchronous rumor spreading under the exchange rule `R`: whenever a
/// vertex's Poisson clock rings it calls a random neighbor if the rule lets
/// it, and the call informs the uninformed end when the other end is
/// informed. Use it through its aliases [`AsyncPush`] and [`AsyncPushPull`].
#[derive(Debug, Clone)]
pub struct AsyncGossip<'g, R: GossipRule> {
    graph: &'g Graph,
    source: VertexId,
    informed: InformedSet,
    round: u64,
    messages_total: u64,
    messages_last: u64,
    edge_traffic: Option<EdgeTraffic>,
    rule: PhantomData<R>,
}

/// Asynchronous `push`: every vertex pushes to a random neighbor whenever
/// its unit-rate Poisson clock rings; [`Protocol::round`] counts elapsed
/// time units (n activations each). Sauerwald \[41\] shows this matches
/// synchronous `push` on regular graphs.
pub type AsyncPush<'g> = AsyncGossip<'g, PushRule>;

/// Asynchronous `push-pull`: every vertex exchanges with a random neighbor
/// whenever its Poisson clock rings; studied by Acan et al. and
/// Giakkoupis–Nazari–Woelfel \[27\] (cited in Section 2 of the paper).
pub type AsyncPushPull<'g> = AsyncGossip<'g, PushPullRule>;

impl<'g, R: GossipRule> AsyncGossip<'g, R> {
    /// Creates the protocol with the rumor at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn new(graph: &'g Graph, source: VertexId, options: ProtocolOptions) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        let mut informed = InformedSet::new(graph.num_vertices());
        informed.insert(source);
        AsyncGossip {
            graph,
            source,
            informed,
            round: 0,
            messages_total: 0,
            messages_last: 0,
            edge_traffic: options.record_edge_traffic.then(EdgeTraffic::new),
            rule: PhantomData,
        }
    }

    /// Executes one time unit (`n` uniformly random vertex activations),
    /// monomorphized over the RNG (the hot path used by the engine;
    /// [`Protocol::step`] forwards here). Unlike the synchronous protocols
    /// there is no "informed before this round" buffer: activations are
    /// sequential, so information can chain within a time unit, exactly as
    /// in the continuous-time model.
    pub fn step_with<X: Rng + ?Sized>(&mut self, rng: &mut X) {
        self.round += 1;
        self.messages_last = 0;
        let n = self.graph.num_vertices();
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            let u_informed = self.informed.contains(u);
            if !calls::<R>(u_informed) {
                continue;
            }
            if let Some(v) = self.graph.random_neighbor(u, rng) {
                self.messages_last += 1;
                if let Some(traffic) = &mut self.edge_traffic {
                    traffic.record(u, v);
                }
                if u_informed {
                    self.informed.insert(v);
                } else if self.informed.contains(v) {
                    self.informed.insert(u);
                }
            }
        }
        self.messages_total += self.messages_last;
    }
}

impl<R: GossipRule> FastStep for AsyncGossip<'_, R> {
    #[inline]
    fn fast_step<X: Rng + ?Sized>(&mut self, rng: &mut X) {
        self.step_with(rng);
    }
}

impl<R: GossipRule> Protocol for AsyncGossip<'_, R> {
    fn name(&self) -> &'static str {
        match (R::INFORMED_CALL, R::UNINFORMED_CALL) {
            (true, true) => "async-push-pull",
            (true, false) => "async-push",
            _ => "async-pull",
        }
    }

    fn source(&self) -> VertexId {
        self.source
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        self.step_with(rng);
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rumor_graphs::generators::{complete, random_regular, star, STAR_CENTER};

    fn run<P: Protocol>(p: &mut P, cap: u64, rng: &mut StdRng) -> u64 {
        while !p.is_complete() && p.round() < cap {
            p.step(rng);
        }
        p.round()
    }

    #[test]
    fn initial_state_and_names() {
        let g = complete(8).unwrap();
        let push = AsyncPush::new(&g, 1, ProtocolOptions::none());
        assert_eq!(push.name(), "async-push");
        assert_eq!(push.informed_vertex_count(), 1);
        let pp = AsyncPushPull::new(&g, 1, ProtocolOptions::none());
        assert_eq!(pp.name(), "async-push-pull");
        assert!(pp.is_vertex_informed(1));
    }

    #[test]
    fn async_push_completes_in_logarithmic_time_units_on_complete_graph() {
        let g = complete(64).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = AsyncPush::new(&g, 0, ProtocolOptions::none());
        let t = run(&mut p, 10_000, &mut rng);
        assert!(p.is_complete());
        assert!((3..60).contains(&t), "async push took {t} time units");
    }

    #[test]
    fn async_matches_sync_push_on_regular_graphs_up_to_constants() {
        // The [41] result: asynchronous push has the same asymptotic broadcast
        // time as synchronous push on regular graphs.
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_regular(256, 16, &mut rng).unwrap();
        let trials = 5;
        let mut sync_total = 0u64;
        let mut async_total = 0u64;
        for _ in 0..trials {
            let mut sync = crate::Push::new(&g, 0, ProtocolOptions::none());
            sync_total += run(&mut sync, 100_000, &mut rng);
            let mut asyn = AsyncPush::new(&g, 0, ProtocolOptions::none());
            async_total += run(&mut asyn, 100_000, &mut rng);
        }
        let ratio = async_total as f64 / sync_total as f64;
        assert!(
            (0.3..3.0).contains(&ratio),
            "async/sync push ratio {ratio} not a constant"
        );
    }

    #[test]
    fn async_push_pull_is_faster_than_async_push_on_star() {
        let g = star(200).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut push = AsyncPush::new(&g, STAR_CENTER, ProtocolOptions::none());
        let t_push = run(&mut push, 1_000_000, &mut rng);
        let mut pp = AsyncPushPull::new(&g, STAR_CENTER, ProtocolOptions::none());
        let t_pp = run(&mut pp, 1_000_000, &mut rng);
        assert!(
            t_pp < t_push,
            "async push-pull ({t_pp}) should beat async push ({t_push})"
        );
    }

    #[test]
    fn messages_and_edge_traffic_accounting() {
        let g = complete(16).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = AsyncPushPull::new(&g, 0, ProtocolOptions::with_edge_traffic());
        p.step(&mut rng);
        // Every one of the n activations sends a message on the complete graph.
        assert_eq!(p.messages_last_round(), 16);
        assert_eq!(p.edge_traffic().unwrap().total(), p.messages_sent());
    }

    #[test]
    fn informed_set_is_monotone() {
        let g = complete(32).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = AsyncPushPull::new(&g, 0, ProtocolOptions::none());
        let mut prev = p.informed_vertex_count();
        while !p.is_complete() {
            p.step(&mut rng);
            assert!(p.informed_vertex_count() >= prev);
            prev = p.informed_vertex_count();
        }
    }
}
