//! Driving protocols to completion and collecting outcomes.
//!
//! Every entry point here funnels into one private dispatch, which
//! validates the spec, picks the engine, primes the protocol state, and
//! hands the run to the crate's single round loop (`driver::drive`):
//!
//! * [`simulate_on`] — the hot path, over any [`Topology`] backend. It knows
//!   the concrete protocol type from [`ProtocolKind`], so the whole run is
//!   monomorphized over both the protocol and the engine's fast RNG
//!   ([`SmallRng`], xoshiro256++): no per-round virtual calls, no per-sample
//!   `dyn RngCore` dispatch, and no history allocation unless
//!   [`ProtocolOptions::record_history`] asks for it. [`try_simulate_on`] is
//!   its non-panicking twin, [`simulate_topology`] its runtime-backend
//!   front, and [`simulate_in`] its pooled form over a [`SimWorkspace`].
//! * [`simulate_resumable_in`] / [`resume_in`] — the same runs with
//!   checkpointing and bit-identical resume.
//! * [`run_to_completion`] — the flexible path for callers holding any
//!   `P: Protocol` (including `Box<dyn Protocol>` from [`build_protocol`])
//!   and their own `dyn RngCore`. It always records history, as documented.
//!
//! **Determinism guarantee:** a simulation outcome is a pure function of
//! `(graph, source, spec)`. The workspace supports two determinism
//! contracts, selected by [`SimulationSpec::engine`]:
//!
//! * [`Engine::Sequential`] (the default): all randomness comes from one
//!   `SmallRng` seeded with `spec.seed`, and protocols draw their variates
//!   in a fixed documented order (ascending entity order). This is the
//!   reference contract — bit-compatible with the naive implementations the
//!   equivalence tests pin — but inherently single-threaded within a run.
//! * [`Engine::Sharded`]: every vertex or agent draws from its own
//!   counter-based stream (`rand::stream`, keyed by `(seed, round,
//!   entity_id, draw_index)`), so a round can be sharded across worker
//!   threads and the outcome is **bit-identical at every thread count**,
//!   including 1. The two engines produce different (equally valid)
//!   trajectories for the same seed; statistical tests pin their round
//!   distributions against each other.
//!
//! In both cases the parallel trial runner assigns one derived seed per
//! trial, so a sweep's results are independent of scheduling.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use rumor_graphs::{AnyTopology, Graph, Topology, VertexId};

use std::fmt;

use crate::driver::{drive, Checkpoint, Seq};
use crate::metrics::BroadcastOutcome;
use crate::options::{AgentConfig, ProtocolOptions};
use crate::protocol::{Protocol, ProtocolKind};
use crate::protocols::{
    AsyncPush, AsyncPushPull, MeetExchange, Pull, Push, PushPull, PushPullVisitExchange,
    VisitExchange,
};
use crate::snapshot::{
    CheckpointCadence, Checkpointable, ResumableRun, SimSnapshot, SnapshotError,
};
use rumor_walks::{AgentCount, Placement};

/// Runs `protocol` until it completes or `max_rounds` rounds have elapsed, and
/// collects the outcome.
///
/// Per-round history is always recorded on this path (it is cheap relative to
/// a round at this API's typical scales); use [`simulate_on`] for large
/// sweeps — it skips history entirely unless
/// [`ProtocolOptions::record_history`] is set.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::{run_to_completion, ProtocolOptions, PushPull};
/// use rumor_graphs::generators::complete;
///
/// let g = complete(64)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut pp = PushPull::new(&g, 0, ProtocolOptions::none());
/// let outcome = run_to_completion(&mut pp, 1_000, &mut rng);
/// assert!(outcome.completed);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub fn run_to_completion<P>(
    protocol: &mut P,
    max_rounds: u64,
    rng: &mut dyn RngCore,
) -> BroadcastOutcome
where
    P: Protocol + ?Sized,
{
    finished(drive(
        &mut Seq::new(protocol, rng),
        max_rounds,
        true,
        Vec::new(),
        (),
    ))
}

/// One-call simulation over any [`Topology`] backend: builds a protocol of
/// `kind` on `graph` with the rumor at `source`, runs it to completion (or
/// `max_rounds`), and returns the outcome. The run is fully determined by
/// `seed` (see the module docs for the determinism guarantee).
///
/// This is the hot path: the protocol is constructed concretely (no trait
/// object) and driven by the engine's fast RNG, so per-sample costs are fully
/// inlined. The CSR, implicit, generated, and hub-cached instantiations each
/// compile their own fully-inlined run (the `FastStep` pattern, one level
/// up). For equal degrees the backends consume randomness identically and
/// resolve sampled indices to identical neighbors, so the outcome is
/// **bit-identical across backends** — `tests/implicit_topology.rs` and
/// `tests/generated_topology.rs` pin this for every family, protocol,
/// engine, and thread count.
///
/// # Panics
///
/// Panics if the spec fails [`SimulationSpec::validate`] (e.g. `source` out
/// of range, or an agent-based protocol on a graph with no edges); use
/// [`try_simulate_on`] to get the [`SpecError`] instead.
///
/// # Examples
///
/// ```
/// use rumor_core::{simulate_on, ProtocolKind, SimulationSpec};
/// use rumor_graphs::generators::star;
///
/// let g = star(100)?;
/// let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_seed(3);
/// let outcome = simulate_on(&g, 0, &spec);
/// assert!(outcome.completed);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
pub fn simulate_on<G: Topology>(
    graph: &G,
    source: VertexId,
    spec: &SimulationSpec,
) -> BroadcastOutcome {
    simulate_in(graph, source, spec, &mut SimWorkspace::new())
}

/// Non-panicking [`simulate_on`]: validates `(graph, source, spec)` via
/// [`SimulationSpec::validate`] and returns a typed [`SpecError`] instead of
/// panicking on bad user input.
pub fn try_simulate_on<G: Topology>(
    graph: &G,
    source: VertexId,
    spec: &SimulationSpec,
) -> Result<BroadcastOutcome, SpecError> {
    let run = run(graph, source, spec, &mut SimWorkspace::new(), None, None)?;
    Ok(finished(
        run.expect("a run without a snapshot cannot mismatch one"),
    ))
}

/// [`simulate_on`] over a runtime-selected [`AnyTopology`]: matches the backend
/// **once** and hands off to the corresponding monomorphized
/// [`simulate_on`] instantiation — the enum never sits on a sampling hot
/// path.
pub fn simulate_topology(
    topology: &AnyTopology,
    source: VertexId,
    spec: &SimulationSpec,
) -> BroadcastOutcome {
    match topology {
        AnyTopology::Csr(graph) => simulate_on(graph, source, spec),
        AnyTopology::Implicit(graph) => simulate_on(graph, source, spec),
        AnyTopology::Generated(graph) => simulate_on(graph, source, spec),
        AnyTopology::HubCached(graph) => simulate_on(graph, source, spec),
    }
}

/// A pooled simulation state for repeated trials on one graph: the protocol
/// object — bitsets, frontiers, occupancy arrays, touched lists, dense
/// buffers — survives between [`simulate_in`] calls and is `reset()` rather
/// than reallocated, so a sweep's per-trial heap churn drops to zero after
/// the first trial. The sweep runner keeps one workspace per worker thread.
///
/// The workspace remembers what it holds (protocol kind, agent
/// configuration, graph identity); a call with a different fingerprint
/// simply rebuilds the slot, so reuse is always safe — and reset is pinned
/// bit-identical to fresh construction by the equivalence tests.
#[derive(Debug, Default)]
pub struct SimWorkspace<'g, G: Topology = Graph> {
    slot: Option<(WorkspaceKey, Slot<'g, G>)>,
}

/// What must match for a pooled protocol state to be reusable via reset.
#[derive(Debug, Clone, PartialEq)]
struct WorkspaceKey {
    kind: ProtocolKind,
    agents: AgentConfig,
    /// Graph identity (stored as an address; the workspace never
    /// dereferences it — the slot's own borrow keeps the graph alive).
    graph_addr: usize,
}

#[derive(Debug)]
enum Slot<'g, G: Topology> {
    Push(Push<'g, G>),
    Pull(Pull<'g, G>),
    PushPull(PushPull<'g, G>),
    VisitExchange(VisitExchange<'g, G>),
    MeetExchange(MeetExchange<'g, G>),
    Combined(PushPullVisitExchange<'g, G>),
}

impl<'g, G: Topology> SimWorkspace<'g, G> {
    /// An empty workspace; buffers materialize on first use.
    pub fn new() -> Self {
        SimWorkspace { slot: None }
    }

    /// Primes the slot for `(graph, source, spec)` — reset-in-place when
    /// the fingerprint matches, fresh construction otherwise — and returns
    /// the run's generator, which has consumed the construction's placement
    /// draws either way.
    fn prime(&mut self, graph: &'g G, source: VertexId, spec: &SimulationSpec) -> SmallRng {
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let graph_addr = graph as *const G as usize;
        // Compare the fingerprint by reference — the key (and its
        // AgentConfig clone) is only materialized when a slot is actually
        // (re)built, so the per-trial reuse path stays allocation-free. A
        // slot is never reused for an edge-traffic run: reset drops the
        // recorder, which must start empty.
        let reuse = !spec.options.record_edge_traffic
            && matches!(
                &self.slot,
                Some((k, _)) if k.kind == spec.kind && k.graph_addr == graph_addr && k.agents == spec.agents
            );
        if reuse {
            // Reset in place: bit-identical to fresh construction (the agent
            // resets re-draw placements from `rng` exactly like `new`).
            match &mut self.slot.as_mut().expect("slot checked above").1 {
                Slot::Push(p) => p.reset(source),
                Slot::Pull(p) => p.reset(source),
                Slot::PushPull(p) => p.reset(source),
                Slot::VisitExchange(p) => p.reset(source, &spec.agents, &mut rng),
                Slot::MeetExchange(p) => p.reset(source, &spec.agents, &mut rng),
                Slot::Combined(p) => p.reset(source, &spec.agents, &mut rng),
            }
        } else {
            let (agents, options, rng) = (&spec.agents, spec.options, &mut rng);
            let slot = match spec.kind {
                ProtocolKind::Push => Slot::Push(Push::new(graph, source, options)),
                ProtocolKind::Pull => Slot::Pull(Pull::new(graph, source, options)),
                ProtocolKind::PushPull => Slot::PushPull(PushPull::new(graph, source, options)),
                ProtocolKind::VisitExchange => {
                    Slot::VisitExchange(VisitExchange::new(graph, source, agents, options, rng))
                }
                ProtocolKind::MeetExchange => {
                    Slot::MeetExchange(MeetExchange::new(graph, source, agents, options, rng))
                }
                ProtocolKind::PushPullVisitExchange => Slot::Combined(PushPullVisitExchange::new(
                    graph, source, agents, options, rng,
                )),
            };
            let key = WorkspaceKey {
                kind: spec.kind,
                agents: spec.agents.clone(),
                graph_addr,
            };
            self.slot = Some((key, slot));
        }
        rng
    }

    fn slot(&mut self) -> &mut Slot<'g, G> {
        &mut self.slot.as_mut().expect("slot primed").1
    }

    /// Primes this workspace with the exact mid-run state in `snapshot`
    /// (whose spec digest the caller has checked against `spec`) and
    /// returns the sequential generator positioned exactly where the
    /// checkpointed run left off. A snapshot without generator state (one
    /// captured by the sharded engine, whose counter-based streams
    /// re-derive from the round counter) is rejected with
    /// [`SnapshotError::EngineMismatch`].
    pub(crate) fn restore(
        &mut self,
        graph: &'g G,
        source: VertexId,
        spec: &SimulationSpec,
        snapshot: &SimSnapshot,
    ) -> Result<SmallRng, SnapshotError> {
        let state = snapshot.rng.ok_or(SnapshotError::EngineMismatch)?;
        // Prime the slot exactly as a fresh run would (the construction
        // placement draws are discarded — the restored state overwrites
        // them), then overwrite the protocol state from the snapshot.
        self.prime(graph, source, spec);
        let protocol: &mut dyn Checkpointable = match self.slot() {
            Slot::Push(p) => p,
            Slot::Pull(p) => p,
            Slot::PushPull(p) => p,
            Slot::VisitExchange(p) => p,
            Slot::MeetExchange(p) => p,
            Slot::Combined(p) => p,
        };
        protocol.restore(snapshot);
        Ok(SmallRng::from_state(state))
    }
}

/// Like [`simulate_on`], but sourcing all per-trial state from `workspace` —
/// same outcome, bit for bit (protocol `reset` is construction-equivalent,
/// and consumes identical placement draws), with zero heap allocation per
/// trial after the first.
///
/// The sharded engine reuses its own internal buffers per run and leaves
/// the workspace untouched; an edge-traffic run rebuilds the slot, since its
/// recorder must start empty.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate_on`].
pub fn simulate_in<'g, G: Topology>(
    graph: &'g G,
    source: VertexId,
    spec: &SimulationSpec,
    workspace: &mut SimWorkspace<'g, G>,
) -> BroadcastOutcome {
    let run = valid(run(graph, source, spec, workspace, None, None));
    finished(run.expect("a run without a snapshot cannot mismatch one"))
}

/// [`simulate_in`] with checkpointing: runs the broadcast and, whenever
/// `cadence` is due at a round boundary, captures a [`SimSnapshot`] and
/// passes it to `sink`. The sink persists it (e.g.
/// [`SimSnapshot::write_atomic`]) and returns `true` to continue or `false`
/// to suspend the run at that snapshot.
///
/// An uninterrupted resumable run returns
/// [`ResumableRun::Finished`] with **exactly** the outcome
/// [`simulate_on`] produces — checkpoint capture reads state without
/// consuming draws — and a run resumed from any of its snapshots via
/// [`resume_in`] finishes with that same outcome, bit for bit, on every
/// backend, engine, and thread count.
///
/// # Panics
///
/// Panics if the spec fails validation, or if
/// [`ProtocolOptions::record_edge_traffic`] is set (per-edge traffic is the
/// one observability structure snapshots do not carry).
pub fn simulate_resumable_in<'g, G: Topology>(
    graph: &'g G,
    source: VertexId,
    spec: &SimulationSpec,
    workspace: &mut SimWorkspace<'g, G>,
    cadence: CheckpointCadence,
    sink: &mut dyn FnMut(&SimSnapshot) -> bool,
) -> ResumableRun {
    let checkpoint = Checkpoint::new(spec, cadence, sink);
    valid(run(graph, source, spec, workspace, None, Some(checkpoint)))
        .expect("a run without a snapshot cannot mismatch one")
}

/// Continues a suspended or crashed run from `snapshot`, with the same
/// checkpointing contract as [`simulate_resumable_in`]. The caller supplies
/// the same `(graph, source, spec)` the snapshot came from — the topology is
/// reconstructed from its spec rather than serialized — and the snapshot's
/// spec digest is checked against `spec` ([`SnapshotError::SpecMismatch`]
/// otherwise). `spec.max_rounds` may exceed the original run's cap (the
/// digest deliberately ignores it), so a `RoundCapped` run can be extended.
/// The workspace may hold any earlier run; it is re-primed from the
/// snapshot.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate_resumable_in`].
pub fn resume_in<'g, G: Topology>(
    graph: &'g G,
    source: VertexId,
    spec: &SimulationSpec,
    snapshot: &SimSnapshot,
    workspace: &mut SimWorkspace<'g, G>,
    cadence: CheckpointCadence,
    sink: &mut dyn FnMut(&SimSnapshot) -> bool,
) -> Result<ResumableRun, SnapshotError> {
    let checkpoint = Checkpoint::new(spec, cadence, sink);
    valid(run(
        graph,
        source,
        spec,
        workspace,
        Some(snapshot),
        Some(checkpoint),
    ))
}

/// The one dispatch behind every entry point above: validates the spec,
/// picks the sharded or the sequential engine, primes the run's state —
/// fresh, pooled in `workspace`, or restored from `resume` — and hands it
/// to the round driver.
fn run<'g, G: Topology>(
    graph: &'g G,
    source: VertexId,
    spec: &SimulationSpec,
    workspace: &mut SimWorkspace<'g, G>,
    resume: Option<&SimSnapshot>,
    checkpoint: Option<Checkpoint<'_>>,
) -> Result<Result<ResumableRun, SnapshotError>, SpecError> {
    assert!(
        checkpoint.is_none() || !spec.options.record_edge_traffic,
        "checkpointing does not support edge-traffic recording"
    );
    spec.validate(graph, source)?;
    let mut history = Vec::new();
    if let Some(snapshot) = resume {
        let expected = spec.digest();
        if snapshot.spec_digest != expected {
            return Ok(Err(SnapshotError::SpecMismatch {
                expected,
                found: snapshot.spec_digest,
            }));
        }
        let n = graph.num_vertices();
        if let Err(e) = snapshot.check_fits(n, agent_count(spec, n)) {
            return Ok(Err(e));
        }
        history.clone_from(&snapshot.history);
    }
    if let Engine::Sharded { threads } = spec.engine {
        if crate::parallel::supports(spec) {
            let threads = crate::parallel::resolve_threads(threads);
            return Ok(Ok(crate::parallel::drive_sharded(
                graph, source, spec, threads, resume, history, checkpoint,
            )));
        }
        // Unsupported configurations (combined protocol, edge-traffic
        // observability) fall back to the sequential reference engine —
        // still deterministic, just under the draw-order contract.
    }
    let mut rng = match resume {
        Some(snapshot) => match workspace.restore(graph, source, spec, snapshot) {
            Ok(rng) => rng,
            Err(e) => return Ok(Err(e)),
        },
        None => workspace.prime(graph, source, spec),
    };
    let (cap, record, sink) = (spec.max_rounds, spec.options.record_history, checkpoint);
    Ok(Ok(match workspace.slot() {
        Slot::Push(p) => drive(&mut Seq::new(p, &mut rng), cap, record, history, sink),
        Slot::Pull(p) => drive(&mut Seq::new(p, &mut rng), cap, record, history, sink),
        Slot::PushPull(p) => drive(&mut Seq::new(p, &mut rng), cap, record, history, sink),
        Slot::VisitExchange(p) => drive(&mut Seq::new(p, &mut rng), cap, record, history, sink),
        Slot::MeetExchange(p) => drive(&mut Seq::new(p, &mut rng), cap, record, history, sink),
        Slot::Combined(p) => drive(&mut Seq::new(p, &mut rng), cap, record, history, sink),
    }))
}

/// The number of walking agents a run of `spec` on `n` vertices has, or
/// `None` for the vertex protocols.
fn agent_count(spec: &SimulationSpec, n: usize) -> Option<usize> {
    spec.kind
        .uses_agents()
        .then(|| match &spec.agents.placement {
            Placement::OneUniquePerVertex => n,
            Placement::Explicit(starts) => starts.len(),
            _ => spec.agents.count.resolve(n),
        })
}

/// Unwraps a validated run, failing fast with the spec error's message.
fn valid<T>(run: Result<T, SpecError>) -> T {
    run.unwrap_or_else(|e| panic!("invalid simulation spec: {e}"))
}

/// The outcome of a run that had no checkpoint sink, so it cannot suspend.
fn finished(run: ResumableRun) -> BroadcastOutcome {
    run.finished()
        .expect("a run without a checkpoint sink cannot suspend")
}

/// Like [`simulate_on`], but for the asynchronous protocol variants that are
/// not part of [`ProtocolKind`]. Runs `async-push` when `push_pull` is false,
/// `async-push-pull` otherwise, with the same determinism guarantee.
pub fn simulate_async(
    graph: &Graph,
    source: VertexId,
    push_pull: bool,
    options: ProtocolOptions,
    max_rounds: u64,
    seed: u64,
) -> BroadcastOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let record = options.record_history;
    let run = if push_pull {
        let mut p = AsyncPushPull::new(graph, source, options);
        drive(
            &mut Seq::new(&mut p, &mut rng),
            max_rounds,
            record,
            Vec::new(),
            (),
        )
    } else {
        let mut p = AsyncPush::new(graph, source, options);
        drive(
            &mut Seq::new(&mut p, &mut rng),
            max_rounds,
            record,
            Vec::new(),
            (),
        )
    };
    finished(run)
}

/// Which simulation engine drives a run — i.e. which of the two determinism
/// contracts applies (see the crate-level "Engine architecture" docs and the
/// README's "Determinism" section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The sequential reference engine: one generator, consumed in
    /// ascending entity order. Bit-compatible with the naive references in
    /// `tests/equivalence.rs`; supports every protocol and option.
    #[default]
    Sequential,
    /// The sharded engine: counter-based per-entity streams
    /// (`rand::stream`), rounds sharded across `threads` scoped workers.
    /// Output is bit-identical at every thread count (pinned by
    /// `tests/parallel_engine.rs`). Supports `push`, `pull`, `push-pull`,
    /// `visit-exchange`, and `meet-exchange` without
    /// [`ProtocolOptions::record_edge_traffic`]; other configurations fall
    /// back to [`Engine::Sequential`].
    Sharded {
        /// Worker count; `0` = auto (`RUMOR_THREADS` env var, else all
        /// cores) — see [`crate::resolve_threads`].
        threads: usize,
    },
}

/// A complete, reproducible description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationSpec {
    /// Which protocol to run.
    pub kind: ProtocolKind,
    /// Agent configuration (ignored by the vertex-only protocols).
    pub agents: AgentConfig,
    /// Bookkeeping options.
    pub options: ProtocolOptions,
    /// Cap on the number of rounds.
    pub max_rounds: u64,
    /// RNG seed; identical specs with identical seeds produce identical runs.
    pub seed: u64,
    /// Which engine (and so which determinism contract) drives the run.
    pub engine: Engine,
}

impl SimulationSpec {
    /// A spec with the paper's defaults: `α = 1` stationary agents, simple
    /// walks, a generous round cap, seed 0, and the sequential engine.
    pub fn new(kind: ProtocolKind) -> Self {
        SimulationSpec {
            kind,
            agents: AgentConfig::default(),
            options: ProtocolOptions::none(),
            max_rounds: 10_000_000,
            seed: 0,
            engine: Engine::Sequential,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the sharded (thread-invariant) engine with `threads` workers
    /// (`0` = auto; see [`Engine::Sharded`]).
    pub fn with_sharded(mut self, threads: usize) -> Self {
        self.engine = Engine::Sharded { threads };
        self
    }

    /// Sets the agent configuration.
    pub fn with_agents(mut self, agents: AgentConfig) -> Self {
        self.agents = agents;
        self
    }

    /// Sets the bookkeeping options.
    pub fn with_options(mut self, options: ProtocolOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Applies the paper's bipartite-graph remedy (Section 3): if this spec
    /// runs `meet-exchange` with simple (non-lazy) walks on a bipartite
    /// `graph`, the agent walks are switched to lazy walks.
    ///
    /// On a bipartite graph a simple random walk preserves the parity of its
    /// starting side, so agents started on opposite sides never co-locate and
    /// `T_meetx` can be infinite. Lazy walks break the parity and guarantee a
    /// finite expected broadcast time. Specs for the other protocols — and
    /// specs on non-bipartite graphs — are returned unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use rumor_core::{ProtocolKind, SimulationSpec};
    /// use rumor_graphs::generators::{complete, hypercube};
    ///
    /// let spec = SimulationSpec::new(ProtocolKind::MeetExchange);
    /// assert!(spec.clone().adapted_to(&hypercube(6)?).agents.walk.is_lazy());
    /// assert!(!spec.clone().adapted_to(&complete(16)?).agents.walk.is_lazy());
    /// assert!(!SimulationSpec::new(ProtocolKind::VisitExchange)
    ///     .adapted_to(&hypercube(6)?)
    ///     .agents
    ///     .walk
    ///     .is_lazy());
    /// # Ok::<(), rumor_graphs::GraphError>(())
    /// ```
    pub fn adapted_to<G: Topology>(mut self, graph: &G) -> Self {
        if self.kind == ProtocolKind::MeetExchange
            && !self.agents.walk.is_lazy()
            && graph.is_bipartite()
        {
            self.agents = self.agents.lazy();
        }
        self
    }

    /// Checks this spec against `(graph, source)` and returns a typed
    /// [`SpecError`] for every class of invalid *user input* the simulation
    /// entry points previously reached as a mid-construction panic: an empty
    /// graph, an out-of-range source, a non-finite/negative agent density,
    /// an agent protocol resolving to zero agents, and stationary agent
    /// placement on an edgeless graph (the stationary distribution is
    /// undefined there).
    ///
    /// The panicking entry points ([`simulate_on`], [`simulate_in`], and the
    /// resumable variants) all route through this check and fail fast with
    /// the error's message; [`try_simulate_on`] surfaces the error instead.
    pub fn validate<G: Topology>(&self, graph: &G, source: VertexId) -> Result<(), SpecError> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(SpecError::EmptyGraph);
        }
        if source >= n {
            return Err(SpecError::SourceOutOfRange {
                source,
                vertices: n,
            });
        }
        if self.kind.uses_agents() {
            if let AgentCount::Linear { alpha } = self.agents.count {
                if !alpha.is_finite() || alpha < 0.0 {
                    return Err(SpecError::InvalidAgentDensity { alpha });
                }
            }
            if self.agents.count.resolve(n) == 0 {
                return Err(SpecError::NoAgents { kind: self.kind });
            }
            if matches!(self.agents.placement, rumor_walks::Placement::Stationary)
                && graph.vertices().all(|v| graph.degree(v) == 0)
            {
                return Err(SpecError::EdgelessAgentGraph { kind: self.kind });
            }
            match &self.agents.placement {
                rumor_walks::Placement::AllAt(v) if *v >= n => {
                    return Err(SpecError::PlacementOutOfRange {
                        vertex: *v,
                        vertices: n,
                    });
                }
                rumor_walks::Placement::Explicit(starts) => {
                    if let Some(&bad) = starts.iter().find(|&&v| v >= n) {
                        return Err(SpecError::PlacementOutOfRange {
                            vertex: bad,
                            vertices: n,
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The spec's checkpoint-compatibility digest (see
    /// [`SimSnapshot::spec_digest`]): a stable fingerprint of the
    /// trajectory-determining fields — protocol kind, seed, engine contract,
    /// options, agent configuration. `max_rounds` and the sharded thread
    /// count are excluded, so a resume may extend the round cap or change
    /// the worker count without invalidating old checkpoints.
    pub fn digest(&self) -> u64 {
        crate::snapshot::spec_digest(self)
    }
}

/// Why a [`SimulationSpec`] is invalid for a given `(graph, source)` — the
/// typed form of the input-validation panics (see
/// [`SimulationSpec::validate`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// The graph has no vertices, so there is nowhere to place the rumor.
    EmptyGraph,
    /// The source vertex is not a vertex of the graph.
    SourceOutOfRange {
        /// The requested source.
        source: VertexId,
        /// The graph's vertex count.
        vertices: usize,
    },
    /// The agent density `α` is negative, NaN, or infinite.
    InvalidAgentDensity {
        /// The offending density.
        alpha: f64,
    },
    /// An agent-based protocol was requested but the configuration resolves
    /// to zero agents, so the process can never make progress.
    NoAgents {
        /// The agent-based protocol that was requested.
        kind: ProtocolKind,
    },
    /// An agent-based protocol with stationary placement was requested on a
    /// graph with no edges — the stationary distribution is undefined.
    EdgelessAgentGraph {
        /// The agent-based protocol that was requested.
        kind: ProtocolKind,
    },
    /// An explicit agent placement ([`rumor_walks::Placement::AllAt`] or
    /// [`rumor_walks::Placement::Explicit`]) names a vertex the graph does
    /// not have.
    PlacementOutOfRange {
        /// The offending start vertex.
        vertex: VertexId,
        /// The graph's vertex count.
        vertices: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyGraph => write!(f, "graph has no vertices"),
            SpecError::SourceOutOfRange { source, vertices } => {
                write!(f, "source {source} out of range for {vertices} vertices")
            }
            SpecError::InvalidAgentDensity { alpha } => {
                write!(
                    f,
                    "agent density alpha = {alpha} is not a finite non-negative number"
                )
            }
            SpecError::NoAgents { kind } => {
                write!(f, "agent protocol {kind} configured with zero agents")
            }
            SpecError::EdgelessAgentGraph { kind } => write!(
                f,
                "agent protocol {kind} with stationary placement on a graph with no edges"
            ),
            SpecError::PlacementOutOfRange { vertex, vertices } => write!(
                f,
                "agent placement names vertex {vertex}, out of range for {vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rumor_graphs::generators::{complete, double_star, path, star};

    #[test]
    fn run_to_completion_reports_history_and_completion() {
        let g = complete(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut push = crate::Push::new(&g, 0, ProtocolOptions::with_history());
        let outcome = run_to_completion(&mut push, 10_000, &mut rng);
        assert!(outcome.completed);
        assert_eq!(outcome.protocol, "push");
        assert_eq!(outcome.history.len() as u64, outcome.rounds);
        assert_eq!(outcome.history.last().unwrap().informed_vertices, 32);
        assert_eq!(outcome.broadcast_time(), Some(outcome.rounds));
    }

    #[test]
    fn round_cap_is_respected() {
        let g = path(200).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut push = crate::Push::new(&g, 0, ProtocolOptions::none());
        let outcome = run_to_completion(&mut push, 10, &mut rng);
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds, 10);
        assert_eq!(outcome.broadcast_time(), None);
    }

    #[test]
    fn simulate_is_reproducible() {
        let g = star(100).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_seed(42);
        let a = simulate_on(&g, 0, &spec);
        let b = simulate_on(&g, 0, &spec);
        assert_eq!(a, b);
        let c = simulate_on(&g, 0, &spec.clone().with_seed(43));
        // A different seed will almost surely give a different broadcast time
        // or at least a different message count.
        assert!(a.rounds != c.rounds || a.total_messages != c.total_messages);
    }

    #[test]
    fn simulate_async_is_reproducible_and_completes() {
        let g = complete(32).unwrap();
        let a = simulate_async(&g, 0, false, ProtocolOptions::none(), 100_000, 9);
        let b = simulate_async(&g, 0, false, ProtocolOptions::none(), 100_000, 9);
        assert_eq!(a, b);
        assert!(a.completed);
        assert_eq!(a.protocol, "async-push");
        assert!(
            a.history.is_empty(),
            "history must not be allocated unless requested"
        );
        let pp = simulate_async(&g, 0, true, ProtocolOptions::with_history(), 100_000, 9);
        assert!(pp.completed);
        assert_eq!(pp.protocol, "async-push-pull");
        assert_eq!(pp.history.len() as u64, pp.rounds);
    }

    #[test]
    fn simulate_every_kind_completes_on_small_complete_graph() {
        let g = complete(20).unwrap();
        for kind in ProtocolKind::ALL {
            let spec = SimulationSpec::new(kind)
                .with_seed(5)
                .with_max_rounds(100_000);
            let outcome = simulate_on(&g, 3, &spec);
            assert!(outcome.completed, "{kind} did not complete");
            assert_eq!(outcome.protocol, kind.name());
        }
    }

    #[test]
    fn simulate_drops_history_unless_requested() {
        let g = complete(16).unwrap();
        let without = simulate_on(&g, 0, &SimulationSpec::new(ProtocolKind::Push).with_seed(1));
        assert!(without.history.is_empty());
        let with = simulate_on(
            &g,
            0,
            &SimulationSpec::new(ProtocolKind::Push)
                .with_seed(1)
                .with_options(ProtocolOptions::with_history()),
        );
        assert!(!with.history.is_empty());
        assert_eq!(
            with.rounds, without.rounds,
            "history must not perturb the run"
        );
    }

    #[test]
    fn simulate_reports_edge_traffic_when_requested() {
        let g = double_star(20).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange)
            .with_seed(9)
            .with_options(ProtocolOptions::with_edge_traffic());
        let outcome = simulate_on(&g, 0, &spec);
        let stats = outcome.edge_traffic.expect("requested edge traffic");
        assert_eq!(stats.edges, g.num_edges());
        assert!(stats.mean_per_round > 0.0);
    }

    #[test]
    fn adapted_to_switches_meet_exchange_to_lazy_walks_only_on_bipartite_graphs() {
        use rumor_graphs::generators::hypercube;
        let bipartite = hypercube(5).unwrap();
        let clique = complete(8).unwrap();
        // meet-exchange on a bipartite graph: lazy walks are forced.
        let spec = SimulationSpec::new(ProtocolKind::MeetExchange).adapted_to(&bipartite);
        assert!(spec.agents.walk.is_lazy());
        // Already-lazy configurations are left alone (idempotent).
        let lazy = SimulationSpec::new(ProtocolKind::MeetExchange)
            .with_agents(AgentConfig::default().lazy());
        assert_eq!(lazy.clone().adapted_to(&bipartite), lazy);
        // Other protocols and non-bipartite graphs are untouched.
        assert!(!SimulationSpec::new(ProtocolKind::VisitExchange)
            .adapted_to(&bipartite)
            .agents
            .walk
            .is_lazy());
        assert!(!SimulationSpec::new(ProtocolKind::MeetExchange)
            .adapted_to(&clique)
            .agents
            .walk
            .is_lazy());
    }

    #[test]
    fn adapted_meet_exchange_completes_on_the_hypercube() {
        use rumor_graphs::generators::hypercube;
        let g = hypercube(6).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::MeetExchange)
            .with_seed(4)
            .with_max_rounds(200_000)
            .adapted_to(&g);
        let outcome = simulate_on(&g, 0, &spec);
        assert!(
            outcome.completed,
            "lazy meet-exchange must finish on the hypercube"
        );
    }

    #[test]
    fn spec_builder_methods() {
        let spec = SimulationSpec::new(ProtocolKind::MeetExchange)
            .with_seed(11)
            .with_max_rounds(500)
            .with_agents(AgentConfig::with_alpha(2.0))
            .with_options(ProtocolOptions::full());
        assert_eq!(spec.seed, 11);
        assert_eq!(spec.max_rounds, 500);
        assert_eq!(spec.agents.count.resolve(10), 20);
        assert!(spec.options.record_history);
    }

    #[test]
    fn validate_rejects_each_invalid_input_class() {
        use rumor_graphs::generators::complete;
        let g = complete(8).unwrap();

        // Out-of-range source, any protocol.
        let spec = SimulationSpec::new(ProtocolKind::Push);
        assert!(matches!(
            spec.validate(&g, 8),
            Err(SpecError::SourceOutOfRange {
                source: 8,
                vertices: 8
            })
        ));
        assert!(spec.validate(&g, 7).is_ok());

        // Non-finite / negative agent density.
        for alpha in [f64::NAN, f64::INFINITY, -1.0] {
            let spec = SimulationSpec::new(ProtocolKind::VisitExchange)
                .with_agents(AgentConfig::with_alpha(alpha));
            assert!(matches!(
                spec.validate(&g, 0),
                Err(SpecError::InvalidAgentDensity { .. })
            ));
        }

        // Zero agents: an agent protocol that can never spread anything.
        let spec = SimulationSpec::new(ProtocolKind::MeetExchange)
            .with_agents(AgentConfig::with_alpha(0.0));
        assert!(matches!(
            spec.validate(&g, 0),
            Err(SpecError::NoAgents { .. })
        ));
        // The same density is fine for a pure vertex protocol.
        let spec =
            SimulationSpec::new(ProtocolKind::Push).with_agents(AgentConfig::with_alpha(0.0));
        assert!(spec.validate(&g, 0).is_ok());

        // Stationary placement is undefined on an edgeless graph (the
        // distribution is degree-proportional).
        let edgeless = rumor_graphs::Graph::from_edges(3, &[]).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange);
        assert!(matches!(
            spec.validate(&edgeless, 0),
            Err(SpecError::EdgelessAgentGraph { .. })
        ));
        // …but explicit placements sidestep it.
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_agents(AgentConfig {
            placement: rumor_walks::Placement::AllAt(0),
            ..AgentConfig::default()
        });
        assert!(spec.validate(&edgeless, 0).is_ok());

        // Explicit placements must name real vertices — previously a
        // mid-construction panic, now a typed error.
        let spec = SimulationSpec::new(ProtocolKind::VisitExchange).with_agents(AgentConfig {
            placement: rumor_walks::Placement::AllAt(8),
            ..AgentConfig::default()
        });
        assert!(matches!(
            spec.validate(&g, 0),
            Err(SpecError::PlacementOutOfRange {
                vertex: 8,
                vertices: 8
            })
        ));
        let spec = SimulationSpec::new(ProtocolKind::MeetExchange).with_agents(AgentConfig {
            placement: rumor_walks::Placement::Explicit(vec![0, 3, 11]),
            ..AgentConfig::default()
        });
        assert!(matches!(
            spec.validate(&g, 0),
            Err(SpecError::PlacementOutOfRange {
                vertex: 11,
                vertices: 8
            })
        ));
        let spec = SimulationSpec::new(ProtocolKind::MeetExchange).with_agents(AgentConfig {
            placement: rumor_walks::Placement::Explicit(vec![0, 3, 7]),
            ..AgentConfig::default()
        });
        assert!(spec.validate(&g, 0).is_ok());
    }

    #[test]
    fn try_simulate_surfaces_spec_errors_without_panicking() {
        use rumor_graphs::generators::complete;
        let g = complete(6).unwrap();
        let spec = SimulationSpec::new(ProtocolKind::Push).with_seed(3);
        let err = try_simulate_on(&g, 99, &spec).unwrap_err();
        assert_eq!(err.to_string(), "source 99 out of range for 6 vertices");
        assert_eq!(
            try_simulate_on(&g, 0, &spec).unwrap(),
            simulate_on(&g, 0, &spec),
            "the checked path must not change valid outcomes"
        );
    }
}
