//! Layer replays shared by the workloads: each times one lower layer's
//! public function on a fixed sample of the workload's own inputs, plus
//! the per-layer table the traced run writes.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::stream::StreamKey;
use rand::{RngCore, SeedableRng};
use rumor_core::{
    simulate_in, simulate_on, simulate_resumable_in, BroadcastOutcome, CheckpointCadence, Engine,
    SimSnapshot, SimWorkspace, SimulationSpec,
};
use rumor_experiments::serve::protocol::{done_line, parse_json, parse_request, trial_line};
use rumor_experiments::{SubmitRequest, TrialOutcome};
use rumor_graphs::codec::{decode_csr, encode_csr};
use rumor_graphs::{Graph, Topology};
use rumor_walks::{MultiWalk, Placement, UninformedFrontier, WalkConfig};

use crate::trace::SpanTotals;
use crate::{median, mix, Args, Report};

/// Nanoseconds per call of `f`, median over `reps` timed loops of `iters`.
fn ns_per(reps: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&mut samples)
}

/// `rand.xoshiro_ns` (one `SmallRng` u64) and `rand.philox_ns` (one u64
/// from a fresh per-entity `StreamRng`, as the sharded engine draws).
pub fn rand_ns(report: &mut Report, seed: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let xoshiro = ns_per(5, 2_000_000, |_| {
        black_box(rng.next_u64());
    });
    let round = StreamKey::from_seed(seed).round_key(1);
    let philox = ns_per(5, 1_000_000, |i| {
        black_box(round.stream(i as u64).next_u64());
    });
    report.layer("rand.xoshiro_ns", xoshiro, "ns");
    report.layer("rand.philox_ns", philox, "ns");
    (xoshiro, philox)
}

/// Agent positions and per-agent-round costs from a replayed walk.
#[derive(Debug, Default)]
pub struct WalkReplay {
    /// Positions at the start of every replayed round, concatenated.
    pub positions: Vec<u32>,
    pub step_ns: f64,
    pub exchange_ns: f64,
}

/// Replays `rounds` rounds of `agents` stationary simple walks on `graph`
/// through `MultiWalk::step_exchange` (movement plus informed-here marks)
/// and an exchange scan over the uninformed agents (`UninformedFrontier`
/// plus `informed_here`), one agent informed at the start. `sharded`
/// steps with `par_step_exchange` on one thread (counter streams, as the
/// sharded engine does) instead.
pub fn replay_walks<G: Topology>(
    graph: &G,
    agents: usize,
    rounds: usize,
    seed: u64,
    sharded: bool,
) -> WalkReplay {
    let key = StreamKey::from_seed(seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut walk = MultiWalk::new(
        graph,
        agents,
        &Placement::Stationary,
        WalkConfig::simple(),
        &mut rng,
    );
    let mut frontier = UninformedFrontier::new(agents);
    frontier.mark_informed(0);
    let mut out = WalkReplay::default();
    let (mut step_s, mut exchange_s) = (0.0, 0.0);
    let mut newly = Vec::new();
    for _ in 0..rounds {
        out.positions.extend_from_slice(walk.positions());
        let t = Instant::now();
        if sharded {
            black_box(walk.par_step_exchange(graph, &key, frontier.informed_words(), false, 1));
        } else {
            black_box(walk.step_exchange(graph, &mut rng, &frontier, false));
        }
        step_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        newly.clear();
        frontier.for_each_uninformed(|a| {
            if walk.informed_here(walk.position(a)) {
                newly.push(a);
            }
        });
        for &a in &newly {
            frontier.mark_informed(a);
        }
        exchange_s += t.elapsed().as_secs_f64();
    }
    let agent_rounds = (agents * rounds) as f64;
    out.step_ns = step_s * 1e9 / agent_rounds;
    out.exchange_ns = exchange_s * 1e9 / agent_rounds;
    out
}

/// The `(vertex, index)` pairs a neighbor resolution replay asks for: one
/// per non-isolated position, the index spread over the vertex's degree.
pub fn resolve_queries<G: Topology>(graph: &G, positions: &[u32]) -> Vec<(usize, usize)> {
    positions
        .iter()
        .enumerate()
        .filter_map(|(k, &u)| {
            let d = graph.degree(u as usize);
            (d > 0).then(|| (u as usize, (mix(k as u64, 7) % d as u64) as usize))
        })
        .collect()
}

/// Nanoseconds per `nth` call over `queries`, median of three passes.
pub fn resolve_ns(queries: &[(usize, usize)], nth: impl Fn(usize, usize) -> usize) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0usize;
            for &(u, i) in queries {
                acc = acc.wrapping_add(nth(black_box(u), i));
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e9 / queries.len() as f64
        })
        .collect();
    median(&mut samples)
}

/// `graphs.codec_encode_ms` / `graphs.codec_decode_ms` on `graph`; the
/// decoded graph must equal the original.
pub fn codec(report: &mut Report, graph: &Graph) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        bytes = encode_csr(graph);
        enc.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let back = decode_csr(&bytes);
        dec.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(back.as_ref().is_ok_and(|g| g == graph), || {
            "codec round trip changed the graph".to_string()
        });
    }
    report.layer("graphs.codec_encode_ms", median(&mut enc), "ms");
    report.layer("graphs.codec_decode_ms", median(&mut dec), "ms");
    report.layer("graphs.codec_bytes", bytes.len() as f64, "bytes");
}

/// `serve.wire_build_ns.*` / `serve.wire_parse_ns.*`: the submit line of
/// `request`, the trial lines of `outcomes`, and their done line.
pub fn wire(report: &mut Report, request: &SubmitRequest, outcomes: &[BroadcastOutcome]) {
    let submit = request.to_line();
    let build = ns_per(3, 20_000, |_| {
        black_box(black_box(request).to_line());
    });
    let parse = ns_per(3, 20_000, |_| {
        black_box(parse_request(black_box(&submit)).is_ok());
    });
    report.check(parse_request(&submit).is_ok(), || {
        "submit line does not parse".to_string()
    });
    report.layer("serve.wire_build_ns.submit", build, "ns");
    report.layer("serve.wire_parse_ns.submit", parse, "ns");

    let trials: Vec<TrialOutcome> = outcomes
        .iter()
        .cloned()
        .map(TrialOutcome::Completed)
        .collect();
    let lines: Vec<String> = trials
        .iter()
        .enumerate()
        .map(|(i, o)| trial_line(i, o))
        .collect();
    let n = trials.len().max(1);
    let build = ns_per(3, 20_000, |i| {
        black_box(trial_line(i % n, black_box(&trials[i % n])));
    });
    let parse = ns_per(3, 20_000, |i| {
        black_box(parse_json(black_box(&lines[i % n])).is_ok());
    });
    report.check(lines.iter().all(|l| parse_json(l).is_ok()), || {
        "trial line does not parse".to_string()
    });
    report.layer("serve.wire_build_ns.trial", build, "ns");
    report.layer("serve.wire_parse_ns.trial", parse, "ns");

    let digest = request.digest();
    let done = done_line(digest, n as u64 + 1, n, 0, 0, 0, 0, 0, false);
    let build = ns_per(3, 20_000, |i| {
        black_box(done_line(
            black_box(digest),
            n as u64 + 1,
            i % n,
            0,
            0,
            0,
            0,
            0,
            false,
        ));
    });
    let parse = ns_per(3, 20_000, |_| {
        black_box(parse_json(black_box(&done)).is_ok());
    });
    report.layer("serve.wire_build_ns.done", build, "ns");
    report.layer("serve.wire_parse_ns.done", parse, "ns");
}

/// One trial of a workload's own sample: its graph, source and spec.
pub struct Sample<'g, G: Topology> {
    pub graph: &'g G,
    pub source: usize,
    pub spec: SimulationSpec,
}

/// Per-sample medians of a sequential-engine and a one-thread
/// sharded-engine replay, taken interleaved (alternating which engine runs
/// first) so host drift hits both alike.
#[derive(Debug, Default)]
pub struct EngineReplay {
    pub seq_ms: Vec<f64>,
    pub sharded1_ms: Vec<f64>,
}

impl EngineReplay {
    pub fn merge(&mut self, other: EngineReplay) {
        self.seq_ms.extend(other.seq_ms);
        self.sharded1_ms.extend(other.sharded1_ms);
    }

    /// `core.sharded1_over_seq`: Σ sharded medians ÷ Σ sequential medians.
    pub fn ratio(&self) -> f64 {
        self.sharded1_ms.iter().sum::<f64>() / self.seq_ms.iter().sum::<f64>()
    }
}

pub fn replay_engines<G: Topology>(samples: &[Sample<'_, G>], reps: usize) -> EngineReplay {
    let mut seq = vec![Vec::new(); samples.len()];
    let mut sharded = vec![Vec::new(); samples.len()];
    let mut out = EngineReplay::default();
    for rep in 0..reps {
        for (k, s) in samples.iter().enumerate() {
            let seq_spec = s.spec.clone().with_engine(Engine::Sequential);
            let sh_spec = s.spec.clone().with_sharded(1);
            for first in [rep % 2 == 0, rep % 2 == 1] {
                let t = Instant::now();
                if first {
                    let mut ws = SimWorkspace::new();
                    black_box(simulate_in(s.graph, s.source, &seq_spec, &mut ws));
                    seq[k].push(t.elapsed().as_secs_f64() * 1e3);
                } else {
                    black_box(simulate_on(s.graph, s.source, &sh_spec));
                    sharded[k].push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    out.seq_ms = seq.iter_mut().map(|v| median(v)).collect();
    out.sharded1_ms = sharded.iter_mut().map(|v| median(v)).collect();
    out
}

/// Checkpoint replay results (see [`checkpoint`]); merge several sample
/// lists (one per backend type) before reporting.
#[derive(Debug, Default)]
pub struct CheckpointReplay {
    pub snapshots: u64,
    plain_ms: Vec<f64>,
    resumable_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    write_ms: Vec<f64>,
    mismatches: usize,
    write_failures: usize,
}

impl CheckpointReplay {
    pub fn merge(&mut self, other: CheckpointReplay) {
        self.snapshots += other.snapshots;
        self.plain_ms.extend(other.plain_ms);
        self.resumable_ms.extend(other.resumable_ms);
        self.encode_ms.extend(other.encode_ms);
        self.write_ms.extend(other.write_ms);
        self.mismatches += other.mismatches;
        self.write_failures += other.write_failures;
    }

    /// `core.snapshots`, `core.checkpoint_overhead_frac` (Σ per-sample
    /// medians, resumable ÷ plain − 1), and the median snapshot encode and
    /// atomic write times.
    pub fn push(mut self, report: &mut Report) {
        report.check(self.mismatches == 0, || {
            format!(
                "{} checkpointed replays differ from plain runs",
                self.mismatches
            )
        });
        report.check(self.write_failures == 0, || {
            format!("{} snapshot writes failed", self.write_failures)
        });
        report.layer("core.snapshots", self.snapshots as f64, "count");
        let overhead =
            self.resumable_ms.iter().sum::<f64>() / self.plain_ms.iter().sum::<f64>() - 1.0;
        report.layer("core.checkpoint_overhead_frac", overhead, "frac");
        report.layer("core.snapshot_encode_ms", median(&mut self.encode_ms), "ms");
        report.layer("core.snapshot_write_ms", median(&mut self.write_ms), "ms");
    }
}

/// Checkpoint replay: the sample with `simulate_resumable_in` at a
/// 64-round cadence (capture only) against plain `simulate_in`,
/// interleaved; then snapshot encode and atomic write times on up to 32
/// captured snapshots. Resumable outcomes must equal plain ones.
pub fn checkpoint<G: Topology>(
    samples: &[Sample<'_, G>],
    reps: usize,
    dir: &Path,
) -> CheckpointReplay {
    let mut out = CheckpointReplay::default();
    let mut plain = vec![Vec::new(); samples.len()];
    let mut resumable = vec![Vec::new(); samples.len()];
    let mut kept: Vec<SimSnapshot> = Vec::new();
    for rep in 0..reps {
        for (k, s) in samples.iter().enumerate() {
            let (mut plain_run, mut resumed_run) = (None, None);
            for first in [rep % 2 == 0, rep % 2 == 1] {
                let mut ws = SimWorkspace::new();
                let t = Instant::now();
                if first {
                    plain_run = Some(simulate_in(s.graph, s.source, &s.spec, &mut ws));
                    plain[k].push(t.elapsed().as_secs_f64() * 1e3);
                } else {
                    let mut count = 0u64;
                    let mut sink = |snap: &SimSnapshot| {
                        count += 1;
                        if rep == 0 && kept.len() < 32 {
                            kept.push(snap.clone());
                        }
                        true
                    };
                    let cadence = CheckpointCadence::every_rounds(64);
                    let run = simulate_resumable_in(
                        s.graph, s.source, &s.spec, &mut ws, cadence, &mut sink,
                    );
                    resumable[k].push(t.elapsed().as_secs_f64() * 1e3);
                    resumed_run = run.finished();
                    if rep == 0 {
                        out.snapshots += count;
                    }
                }
            }
            if plain_run != resumed_run {
                out.mismatches += 1;
            }
        }
    }
    out.plain_ms = plain.iter_mut().map(|v| median(v)).collect();
    out.resumable_ms = resumable.iter_mut().map(|v| median(v)).collect();
    let snap_dir = dir.join("snapshots");
    for s in &kept {
        let t = Instant::now();
        black_box(s.to_bytes());
        out.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        match s.write_atomic(&snap_dir) {
            Ok(_) => out.write_ms.push(t.elapsed().as_secs_f64() * 1e3),
            Err(_) => out.write_failures += 1,
        }
    }
    let _ = std::fs::remove_dir_all(&snap_dir);
    out
}

/// Layer self times over the timed window. Each entry is `(layer,
/// attributed seconds, parent layer)`: the attributed time of a layer the
/// benchmark calls is its span total; of a lower layer, its exact
/// operation count times the replayed per-operation cost. A layer's self
/// time is its attributed time minus its children's; the residual is the
/// window minus every self time (time outside any attributed call).
pub fn attribute(report: &mut Report, window_s: f64, tree: &[(&str, f64, Option<&str>)]) {
    let mut total_self = 0.0;
    for layer in ["rand", "graphs", "walks", "core", "runner", "serve"] {
        let own: f64 = tree
            .iter()
            .filter(|(l, _, _)| *l == layer)
            .map(|(_, a, _)| a)
            .sum();
        let children: f64 = tree
            .iter()
            .filter(|(_, _, p)| *p == Some(layer))
            .map(|(_, a, _)| a)
            .sum();
        let self_s = own - children;
        total_self += self_s;
        report.layer(&format!("self_s.{layer}"), self_s, "s");
        report.layer(&format!("self_frac.{layer}"), self_s / window_s, "frac");
    }
    report.layer("residual_s", window_s - total_self, "s");
    report.layer("residual_frac", (window_s - total_self) / window_s, "frac");
}

/// Which end-to-end metric each per-layer metric should move, and where.
const MOVES: &[(&str, &str)] = &[
    ("rand.xoshiro_ns", "trials_per_s on paper-sweep"),
    ("rand.philox_ns", "trials_per_s on chunglu-hub"),
    ("graphs.build_s", "setup_s on every workload"),
    (
        "graphs.hub_",
        "setup_s and peak_rss_mb on chunglu-hub (hub_hit_frac: trials_per_s)",
    ),
    ("graphs.resolve_ns", "trials_per_s on chunglu-hub"),
    ("graphs.codec", "setup_s and job_ms_p50 on serve-sweep"),
    ("walks.", "trials_per_s on paper-sweep and chunglu-hub"),
    ("core.trial_ms", "trials_per_s on each workload"),
    ("core.rounds", "trials_per_s on each workload"),
    ("core.messages", "trials_per_s on each workload"),
    ("core.sharded1_over_seq", "trials_per_s on every workload"),
    (
        "core.snapshot",
        "trials_per_s and job_ms_p50 on serve-sweep",
    ),
    (
        "core.checkpoint",
        "trials_per_s and job_ms_p50 on serve-sweep",
    ),
    ("runner.", "trials_per_s on paper-sweep"),
    ("serve.upload", "setup_s on serve-sweep"),
    ("serve.store_resolve_ms", "job_ms_p50 on serve-sweep"),
    ("serve.roundtrip_ms", "job_ms_p50 on serve-sweep"),
    ("serve.wire_", "job_ms_p50 on serve-sweep"),
    ("serve.queue_wait_ms", "job_ms_p99 on serve-sweep"),
    ("serve.cache_hit_frac", "trials_per_s on serve-sweep"),
    ("serve.durability", "trials_per_s on serve-sweep"),
    ("serve.", "completed_frac on serve-sweep"),
    ("self_", "the workload's end-to-end time"),
    ("residual", "the workload's end-to-end time"),
];

/// The traced run's per-layer table (markdown): every per-layer metric
/// with the end-to-end metric it should move, then span totals and self
/// times per span name.
pub fn render_table(
    args: &Args,
    report: &Report,
    spans: std::collections::BTreeMap<&'static str, SpanTotals>,
) -> String {
    let mut out = format!(
        "# {} seed {} (traced)\n\n| metric | value | unit | should move |\n|---|---:|---|---|\n",
        args.workload, args.seed
    );
    for m in &report.layers {
        let moves = MOVES
            .iter()
            .find(|(p, _)| m.name.starts_with(p))
            .map_or("", |(_, t)| t);
        out.push_str(&format!(
            "| {} | {:.6} | {} | {} |\n",
            m.name, m.value, m.unit, moves
        ));
    }
    out.push_str("\n| span | count | total s | self s |\n|---|---:|---:|---:|\n");
    for (name, t) in spans {
        out.push_str(&format!(
            "| {name} | {} | {:.6} | {:.6} |\n",
            t.count, t.total_s, t.self_s
        ));
    }
    out
}
