//! The round driver: the one loop that advances every simulation.
//!
//! Each engine exposes its per-round surface through [`Rounds`] — the
//! sequential adaptor [`Seq`] (a protocol plus the generator that drives it)
//! and the two sharded engines in [`crate::parallel`] — and [`drive`] owns
//! everything around a round: the round cap, the stall break, per-round
//! history, and checkpoint capture. The traits are crate-private, so the set
//! of engines is sealed.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::RngCore;

use crate::engine::SimulationSpec;
use crate::metrics::{BroadcastOutcome, RoundRecord};
use crate::protocol::{FastStep, Protocol};
use crate::snapshot::{CheckpointCadence, Checkpointable, ResumableRun, SimSnapshot};

/// One engine's run, as the driver sees it between rounds.
pub(crate) trait Rounds {
    /// Executes one synchronous round.
    fn step(&mut self);

    /// Rounds executed so far.
    fn round(&self) -> u64;

    /// Whether the completion condition holds.
    fn is_complete(&self) -> bool;

    /// Whether the run is provably frozen short of completion (see
    /// [`FastStep::is_stalled`]). Engines that cannot detect it cheaply keep
    /// the default and rely on the round cap.
    fn is_stalled(&self) -> bool {
        false
    }

    /// The history entry for the round just executed.
    fn record(&self) -> RoundRecord;

    /// The run's outcome with the accumulated `history`.
    fn outcome(&self, history: Vec<RoundRecord>) -> BroadcastOutcome;
}

/// The capture half of checkpointing, for the engines that support it (the
/// asynchronous and churn protocols do not, and never see a sink).
pub(crate) trait Capture: Rounds {
    /// Captures the full mid-run state, generator position included.
    fn capture(&self, spec_digest: u64, history: &[RoundRecord]) -> SimSnapshot;
}

/// Where a run's between-round checkpoints go.
pub(crate) trait Sink<D> {
    /// Offered after every round that neither finished nor stalled the run;
    /// a returned snapshot suspends the run there.
    fn offer(&mut self, run: &D, history: &[RoundRecord]) -> Option<SimSnapshot>;
}

/// No sink: nothing is ever captured.
impl<D> Sink<D> for () {
    #[inline(always)]
    fn offer(&mut self, _: &D, _: &[RoundRecord]) -> Option<SimSnapshot> {
        None
    }
}

/// A caller's checkpoint sink armed with its cadence. It is only built when
/// a caller asks for checkpoints, so a plain run computes no spec digest and
/// reads no clock.
pub(crate) struct Checkpoint<'s> {
    spec_digest: u64,
    cadence: CheckpointCadence,
    last: Instant,
    sink: &'s mut dyn FnMut(&SimSnapshot) -> bool,
}

impl<'s> Checkpoint<'s> {
    pub(crate) fn new(
        spec: &SimulationSpec,
        cadence: CheckpointCadence,
        sink: &'s mut dyn FnMut(&SimSnapshot) -> bool,
    ) -> Self {
        Checkpoint {
            spec_digest: spec.digest(),
            cadence,
            last: Instant::now(),
            sink,
        }
    }
}

impl<D: Capture> Sink<D> for Option<Checkpoint<'_>> {
    #[inline]
    fn offer(&mut self, run: &D, history: &[RoundRecord]) -> Option<SimSnapshot> {
        let checkpoint = self.as_mut()?;
        if !checkpoint.cadence.due(run.round(), &mut checkpoint.last) {
            return None;
        }
        let snapshot = run.capture(checkpoint.spec_digest, history);
        if (checkpoint.sink)(&snapshot) {
            None
        } else {
            Some(snapshot)
        }
    }
}

/// Advances `run` until it completes, stalls, or reaches `max_rounds`,
/// appending a [`RoundRecord`] per round to `history` (which carries the
/// rounds recorded before a resume) when `record_history` is set, and
/// offering the state to `sink` after every round that did not end the run.
pub(crate) fn drive<D: Rounds, S: Sink<D>>(
    run: &mut D,
    max_rounds: u64,
    record_history: bool,
    mut history: Vec<RoundRecord>,
    mut sink: S,
) -> ResumableRun {
    while !run.is_complete() && run.round() < max_rounds {
        run.step();
        if record_history {
            history.push(run.record());
        }
        // A stalled run (disconnected graph: boundary empty, broadcast
        // incomplete) can never change state again — stop now with
        // `completed == false` instead of spinning to the cap.
        if run.is_complete() || run.is_stalled() {
            break;
        }
        if let Some(snapshot) = sink.offer(run, &history) {
            return ResumableRun::Suspended(snapshot);
        }
    }
    ResumableRun::Finished(run.outcome(history))
}

/// The sequential adaptor: a protocol and the generator that drives it.
///
/// With the engine's [`SmallRng`] and a [`FastStep`] protocol, the whole
/// run monomorphizes down to the RNG's arithmetic. With a `dyn RngCore` it
/// drives any [`Protocol`] (including `Box<dyn Protocol>`) through the
/// object-safe [`Protocol::step`], with no stall check.
pub(crate) struct Seq<'a, P: ?Sized, R: ?Sized> {
    protocol: &'a mut P,
    rng: &'a mut R,
}

impl<'a, P: ?Sized, R: ?Sized> Seq<'a, P, R> {
    pub(crate) fn new(protocol: &'a mut P, rng: &'a mut R) -> Self {
        Seq { protocol, rng }
    }
}

impl<P: FastStep> Rounds for Seq<'_, P, SmallRng> {
    #[inline]
    fn step(&mut self) {
        self.protocol.fast_step(self.rng);
    }

    #[inline]
    fn round(&self) -> u64 {
        self.protocol.round()
    }

    #[inline]
    fn is_complete(&self) -> bool {
        self.protocol.is_complete()
    }

    #[inline]
    fn is_stalled(&self) -> bool {
        self.protocol.is_stalled()
    }

    fn record(&self) -> RoundRecord {
        record_of(&*self.protocol)
    }

    fn outcome(&self, history: Vec<RoundRecord>) -> BroadcastOutcome {
        outcome_of(&*self.protocol, history)
    }
}

impl<P: Protocol + ?Sized> Rounds for Seq<'_, P, dyn RngCore + '_> {
    fn step(&mut self) {
        self.protocol.step(self.rng);
    }

    fn round(&self) -> u64 {
        self.protocol.round()
    }

    fn is_complete(&self) -> bool {
        self.protocol.is_complete()
    }

    fn record(&self) -> RoundRecord {
        record_of(&*self.protocol)
    }

    fn outcome(&self, history: Vec<RoundRecord>) -> BroadcastOutcome {
        outcome_of(&*self.protocol, history)
    }
}

impl<P: FastStep + Checkpointable> Capture for Seq<'_, P, SmallRng> {
    fn capture(&self, spec_digest: u64, history: &[RoundRecord]) -> SimSnapshot {
        self.protocol
            .capture(spec_digest, Some(self.rng.state()), history)
    }
}

pub(crate) fn record_of<P: Protocol + ?Sized>(protocol: &P) -> RoundRecord {
    RoundRecord {
        round: protocol.round(),
        informed_vertices: protocol.informed_vertex_count(),
        informed_agents: protocol.informed_agent_count(),
        messages: protocol.messages_last_round(),
    }
}

pub(crate) fn outcome_of<P: Protocol + ?Sized>(
    protocol: &P,
    history: Vec<RoundRecord>,
) -> BroadcastOutcome {
    let rounds = protocol.round();
    let edge_traffic = protocol.edge_traffic_stats(rounds.max(1));
    BroadcastOutcome {
        protocol: protocol.name().to_string(),
        rounds,
        completed: protocol.is_complete(),
        informed_vertices: protocol.informed_vertex_count(),
        informed_agents: protocol.informed_agent_count(),
        total_messages: protocol.messages_sent(),
        history,
        edge_traffic,
    }
}
