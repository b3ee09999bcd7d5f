//! `serve-sweep`: a closed loop of two `ServeClient` connections, each with
//! one 16-trial job in flight, against an in-process `Server` with default
//! workers. Jobs cycle through uploaded push-pull, uploaded meet-exchange,
//! `double-star` 256 push (over 64 rounds, so checkpoint captures fire)
//! and `hypercube` 10 visit-exchange; one job in eight repeats an earlier
//! uploaded one and is answered from the result cache. Wire build/parse,
//! scheduling, store resolution and sockets dominate; engine work is about
//! a millisecond per trial.
//!
//! The timed server has no state directory: with one, every trial rewrites
//! its job manifest on disk, and on a shared virtual disk that moved
//! throughput by ±20% between identical runs (±3% without). Durability is
//! measured instead by the traced run, which runs the same job sample on a
//! server with a state directory and one without, and checks that every
//! job left its manifest.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rumor_core::{simulate_topology, BroadcastOutcome, SimulationSpec};
use rumor_experiments::serve::protocol::{crc32, parse_json, Json, MAX_LINE_BYTES};
use rumor_experiments::serve::store::{manifest_for, ContentStore};
use rumor_experiments::{
    ClientError, JobResult, ServeClient, ServeConfig, ServeStats, Server, ServerHandle,
    ServerStatus, SubmitRequest, TopologySpec,
};
use rumor_graphs::codec::encode_csr;
use rumor_graphs::generators::random_regular;
use rumor_graphs::{AnyTopology, Graph, ImplicitGraph, Topology};

use crate::layers::{self, Sample};
use crate::{job_percentiles, median, mix, peak_rss_mb, secs, Args, Digest, Report, Trace};

const CLIENTS: usize = 2;
const TRIALS: usize = 16;
const SETUPS: usize = 3;
/// Jobs each client completes at least, so that `job_ms_p99` has at least
/// ten samples beyond it; the window is extended until they are done.
const MIN_JOBS_PER_CLIENT: usize = 500;
/// Job `k` of a client with `k % REPEAT == REPEAT - 1` repeats its job
/// `k - (REPEAT - 1)`, an uploaded push-pull job.
const REPEAT: usize = 8;
/// Equal segments of the window; `trials_per_s` is their median.
const SEGMENTS: usize = 5;
/// Client 0's first jobs, one of each kind: the direct-simulation sample.
const SAMPLE_JOBS: usize = 4;
/// Untimed warm-up of the same job mix (other seeds) before the window:
/// on a shared 2-vCPU VM the first seconds after an idle spell ran about
/// 12% slower.
const WARMUP: std::time::Duration = std::time::Duration::from_secs(3);
/// Jobs per round of the durability comparison (none of them a repeat).
const DURABILITY_JOBS: usize = REPEAT - 1;

/// The job a client submits as its `k`-th, and which earlier job it repeats.
fn job(seed: u64, client: usize, k: usize, upload: u64) -> (SubmitRequest, Option<usize>) {
    if k % REPEAT == REPEAT - 1 {
        let earlier = k + 1 - REPEAT;
        return (job(seed, client, earlier, upload).0, Some(earlier));
    }
    let (topology, protocol) = match k % 4 {
        0 => (TopologySpec::uploaded(upload), "push-pull"),
        1 => (TopologySpec::uploaded(upload), "meet-exchange"),
        2 => (TopologySpec::new("double-star", 256), "push"),
        _ => (TopologySpec::new("hypercube", 10), "visit-exchange"),
    };
    let mut request = SubmitRequest::new(&format!("client-{client}"), topology, protocol, TRIALS);
    request.seed = mix(seed, ((client as u64) << 32) | k as u64);
    (request, None)
}

struct Running {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    dir: Option<PathBuf>,
}

impl Running {
    fn start(dir: Option<PathBuf>) -> Running {
        let mut config = ServeConfig::new();
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
            config = config.with_state_dir(dir.clone());
        }
        let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Running {
            handle,
            thread,
            dir,
        }
    }

    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }

    /// Drains the server, waits for its thread, and removes its state.
    fn stop(self) {
        self.handle.drain();
        let _ = self.thread.join();
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

struct JobRecord {
    client: usize,
    k: usize,
    request: SubmitRequest,
    repeat_of: Option<usize>,
    start: Instant,
    end: Instant,
    result: Result<JobSummary, ClientError>,
    reconnects: u64,
}

/// What the checks need from a job's result, so the window's memory does
/// not grow with the client-side copies of every trial line.
struct JobSummary {
    completed: usize,
    lines: usize,
    cached: bool,
    /// FNV-1a-64 over the job's trial lines, in order.
    digest: u64,
    /// The lines themselves, kept for the direct-simulation sample only.
    kept: Option<Vec<String>>,
}

impl JobSummary {
    fn of(result: JobResult, keep: bool) -> JobSummary {
        let mut digest = Digest::default();
        for line in &result.trial_lines {
            digest.bytes(line.as_bytes());
            digest.bytes(b"\n");
        }
        JobSummary {
            completed: result.taxonomy.completed,
            lines: result.trial_lines.len(),
            cached: result.cached,
            digest: digest.0,
            kept: keep.then_some(result.trial_lines),
        }
    }
}

impl JobRecord {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The closed loop: each client submits its next job once the previous
/// one's stream is done, until the deadline and `min_jobs` jobs.
fn closed_loop(
    addr: &str,
    seed: u64,
    upload: u64,
    deadline: Instant,
    min_jobs: usize,
) -> Vec<JobRecord> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let remote = ServeClient::new(addr);
                    let mut records = Vec::new();
                    let mut k = 0;
                    while k < min_jobs || Instant::now() < deadline {
                        let (request, repeat_of) = job(seed, client, k, upload);
                        let start = Instant::now();
                        let (mut results, stats) =
                            remote.submit_session(std::slice::from_ref(&request));
                        let end = Instant::now();
                        let result = results
                            .pop()
                            .unwrap_or_else(|| Err(ClientError::Io("no result".to_string())))
                            .map(|r| JobSummary::of(r, client == 0 && k < SAMPLE_JOBS));
                        records.push(JobRecord {
                            client,
                            k,
                            request,
                            repeat_of,
                            start,
                            end,
                            result,
                            reconnects: stats.reconnects,
                        });
                        k += 1;
                    }
                    records
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    })
}

/// `(rounds, msgs)` of a framed trial line.
fn trial_counts(line: &str) -> Option<(u64, u64)> {
    let value = parse_json(line).ok()?;
    Some((
        value.get("rounds").and_then(Json::as_u64)?,
        value.get("msgs").and_then(Json::as_u64)?,
    ))
}

pub fn run(args: &Args, trace: &mut Trace, out_dir: &Path) -> Report {
    run_with(args, trace, out_dir, MIN_JOBS_PER_CLIENT)
}

/// The serve layer's per-layer metrics for a workload that does not serve:
/// a short traced `serve-sweep` (3 s window, at least 100 jobs per client)
/// whose `serve.*` metrics (bar the wire ones, which `report` measures on
/// its own inputs) and check failures join `report`.
pub fn replay_into(report: &mut Report, args: &Args, out_dir: &Path) {
    let short = Args {
        window: std::time::Duration::from_secs(3),
        trace: true,
        ..args.clone()
    };
    let served = run_with(&short, &mut Trace::new(true), out_dir, 100);
    report.errors.extend(
        served
            .errors
            .into_iter()
            .map(|e| format!("serve replay: {e}")),
    );
    report.layers.extend(
        served
            .layers
            .into_iter()
            .filter(|m| m.name.starts_with("serve.") && !m.name.starts_with("serve.wire_")),
    );
}

fn run_with(args: &Args, trace: &mut Trace, out_dir: &Path, min_jobs: usize) -> Report {
    let mut report = Report::default();

    // Set-up: bind a server, build the graph, upload it; several times,
    // keeping the last server.
    let (mut setups, mut builds, mut uploads) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = None;
    let mut graph = None;
    let mut upload = None;
    for i in 0..SETUPS {
        if let Some(previous) = live.take() {
            Running::stop(previous);
        }
        let t = Instant::now();
        let span = trace.begin("serve.bind", i as u64);
        let server = Running::start(None);
        trace.end(span);
        let t_build = Instant::now();
        let span = trace.begin("graphs.build", i as u64);
        let mut rng = SmallRng::seed_from_u64(mix(args.seed, 1));
        let g = random_regular(1 << 12, 16, &mut rng).expect("random regular");
        trace.end(span);
        builds.push(secs(t_build));
        let t_upload = Instant::now();
        let span = trace.begin("serve.upload", i as u64);
        let result = ServeClient::new(&server.addr()).upload(&g);
        trace.end(span);
        uploads.push(secs(t_upload));
        setups.push(secs(t));
        match result {
            Ok(r) => upload = Some(r),
            Err(e) => report.errors.push(format!("upload failed: {e}")),
        }
        graph = Some(g);
        live = Some(server);
    }
    let server = live.expect("at least one set-up");
    let graph = graph.expect("at least one set-up");
    let Some(upload) = upload else {
        server.stop();
        report.attempted = 1;
        report.failed = 1;
        return report;
    };

    let warmup = closed_loop(
        &server.addr(),
        mix(args.seed, 3),
        upload.digest,
        Instant::now() + WARMUP,
        0,
    );
    for r in warmup.iter().filter(|r| r.result.is_err()) {
        report.errors.push(format!(
            "warm-up job {}: {:?}",
            r.k,
            r.result.as_ref().err()
        ));
    }

    let before = server.handle.stats();

    // Timed window.
    let start = Instant::now();
    let records = closed_loop(
        &server.addr(),
        args.seed,
        upload.digest,
        start + args.window,
        min_jobs,
    );
    let wall = records
        .iter()
        .map(|r| r.end)
        .max()
        .map_or(0.0, |end| (end - start).as_secs_f64());
    let rss = peak_rss_mb();
    let mut stats = server.handle.stats();
    stats.cache_hits -= before.cache_hits;
    stats.shed -= before.shed;
    let status = server.handle.status();

    // Output checks and failure accounting.
    let mut trials = 0u64;
    let mut failed = stats.shed as u64 + status.protocol_errors;
    let mut digest = Digest::default();
    let mut ordered: Vec<&JobRecord> = records.iter().collect();
    ordered.sort_by_key(|r| (r.client, r.k));
    let by_key = |client: usize, k: usize| {
        ordered
            .binary_search_by_key(&(client, k), |r| (r.client, r.k))
            .ok()
            .map(|i| ordered[i])
    };
    for r in &ordered {
        trials += TRIALS as u64;
        match &r.result {
            Ok(result) => {
                let done = result.completed;
                failed += (TRIALS - done.min(TRIALS)) as u64;
                report.check(done == TRIALS && result.lines == TRIALS, || {
                    format!(
                        "client {} job {}: {done} of {TRIALS} trials completed",
                        r.client, r.k
                    )
                });
                if r.k < min_jobs {
                    digest.u64(result.digest);
                }
                if let Some(earlier) = r.repeat_of {
                    let first = by_key(r.client, earlier).and_then(|e| e.result.as_ref().ok());
                    report.check(result.cached, || {
                        format!(
                            "client {} job {}: repeat not answered from the cache",
                            r.client, r.k
                        )
                    });
                    report.check(
                        first.is_some_and(|f| f.digest == result.digest && f.lines == result.lines),
                        || {
                            format!(
                                "client {} job {}: cached lines differ from job {earlier}",
                                r.client, r.k
                            )
                        },
                    );
                }
            }
            Err(e) => {
                failed += TRIALS as u64;
                report
                    .errors
                    .push(format!("client {} job {}: {e}", r.client, r.k));
            }
        }
    }
    report.digest = digest.0;
    report.attempted = trials + stats.shed as u64;
    report.failed = failed;
    let repeats = records.iter().filter(|r| r.repeat_of.is_some()).count();
    report.check(stats.cache_hits == repeats, || {
        format!(
            "{} cache hits for {repeats} repeated jobs",
            stats.cache_hits
        )
    });
    report.check(
        records
            .iter()
            .any(|r| r.request.topology.uploaded_digest().is_some() && r.result.is_ok()),
        || "no job resolved the uploaded topology".to_string(),
    );

    // A fixed job sample (client 0's first four jobs, one of each kind)
    // must match direct simulation, trial for trial.
    let sample: Vec<&JobRecord> = (0..SAMPLE_JOBS).filter_map(|k| by_key(0, k)).collect();
    let mut direct: Vec<Vec<BroadcastOutcome>> = Vec::new();
    for r in &sample {
        let topology = topology_of(&r.request, &graph);
        let base = adapted(&r.request, &topology);
        let outcomes: Vec<BroadcastOutcome> = (0..TRIALS)
            .map(|i| {
                simulate_topology(
                    &topology,
                    0,
                    &base.clone().with_seed(base.seed.wrapping_add(i as u64)),
                )
            })
            .collect();
        let lines = r
            .result
            .as_ref()
            .ok()
            .and_then(|res| res.kept.clone())
            .unwrap_or_default();
        let same = lines.len() == TRIALS
            && outcomes
                .iter()
                .zip(&lines)
                .all(|(o, l)| trial_counts(l) == Some((o.rounds, o.total_messages)));
        report.check(same, || {
            format!(
                "job {} ({}) differs from direct simulation",
                r.k, r.request.protocol
            )
        });
        direct.push(outcomes);
    }

    let mut latency: Vec<f64> = records.iter().map(JobRecord::ms).collect();
    // Throughput is the median over equal segments of the window (trials of
    // the jobs that finished in each), so a transient stall moves one
    // segment rather than the figure.
    let segment_s = wall / SEGMENTS as f64;
    let mut per_segment = vec![0.0f64; SEGMENTS];
    for r in &records {
        let i = ((r.end - start).as_secs_f64() / segment_s) as usize;
        per_segment[i.min(SEGMENTS - 1)] += TRIALS as f64 / segment_s;
    }
    let shown: Vec<String> = per_segment.iter().map(|t| format!("{t:.0}")).collect();
    println!("serve segments trials/s: {}", shown.join(" "));
    report.summarize(
        median(&mut per_segment),
        job_percentiles(&mut latency),
        median(&mut setups),
        rss,
    );

    if trace.enabled() {
        let t_record = Instant::now();
        let end = records.iter().map(|r| r.end).max().unwrap_or(start);
        let window_span = trace.record("serve.window", 0, None, start, end);
        for r in &records {
            trace.record(
                "serve.submit",
                (r.k * CLIENTS + r.client) as u64,
                Some(window_span),
                r.start,
                r.end,
            );
        }
        let record_s = secs(t_record);
        report.layer("trace.overhead_frac", record_s / wall, "frac");
        let mut pings: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                let ok = ServeClient::new(&server.addr()).ping().is_ok();
                report.check(ok, || "ping failed".to_string());
                secs(t) * 1e3
            })
            .collect();
        report.layer("serve.roundtrip_ms", median(&mut pings), "ms");
        server.stop();
        let replay = Replay {
            args,
            out_dir,
            graph: &graph,
            sample: &sample,
            direct: &direct,
            records: &records,
            wall,
            build_s: median(&mut builds),
            upload_s: median(&mut uploads),
            upload_bytes: upload.bytes,
            upload_chunks: upload.chunks,
            stats,
            status,
        };
        replay.layers(&mut report);
    } else {
        server.stop();
    }
    report
}

/// The server's spec for a request: `to_spec` plus the bipartite remedy,
/// exactly as admission applies it.
fn adapted(request: &SubmitRequest, topology: &AnyTopology) -> SimulationSpec {
    let spec = request.to_spec().expect("valid request");
    match topology {
        AnyTopology::Csr(g) => spec.adapted_to(g),
        AnyTopology::Implicit(g) => spec.adapted_to(g),
        AnyTopology::Generated(g) => spec.adapted_to(g),
        AnyTopology::HubCached(g) => spec.adapted_to(g),
    }
}

/// What the traced run's replays need from the timed run.
struct Replay<'a> {
    args: &'a Args,
    out_dir: &'a Path,
    graph: &'a Graph,
    sample: &'a [&'a JobRecord],
    direct: &'a [Vec<BroadcastOutcome>],
    records: &'a [JobRecord],
    wall: f64,
    build_s: f64,
    upload_s: f64,
    upload_bytes: u64,
    upload_chunks: u64,
    stats: ServeStats,
    status: ServerStatus,
}

impl Replay<'_> {
    /// The traced run's replays of the layers the server hides.
    fn layers(&self, report: &mut Report) {
        let (out_dir, stats, status) = (self.out_dir, &self.stats, &self.status);
        let seed = self.args.seed;
        let (xoshiro_ns, _) = layers::rand_ns(report, seed);
        report.layer("graphs.build_s", self.build_s, "s");
        let upload_s = self.upload_s;
        report.layer(
            "serve.upload_mb_s",
            self.upload_bytes as f64 / upload_s / 1e6,
            "MB/s",
        );
        report.layer(
            "serve.upload_chunk_ms",
            upload_s * 1e3 / self.upload_chunks.max(1) as f64,
            "ms",
        );
        layers::codec(report, self.graph);
        report.layer("graphs.hub_count", 0.0, "count");
        report.layer("graphs.hub_hit_frac", 0.0, "frac");
        report.layer("graphs.hub_cache_mb", 0.0, "MB");
        let resolve_ms = store_resolve_ms(
            report,
            self.graph,
            &out_dir.join(format!("store-{}", std::process::id())),
        );
        report.layer("serve.store_resolve_ms", resolve_ms, "ms");

        // The job sample's trials, single-threaded: per-protocol trial
        // time, exact counts, engine ratio, checkpoint cost.
        let mut csr_samples = Vec::new();
        let mut implicit: Vec<(ImplicitGraph, SimulationSpec)> = Vec::new();
        for r in self.sample {
            let topology = topology_of(&r.request, self.graph);
            let base = adapted(&r.request, &topology);
            for i in 0..TRIALS {
                let spec = base.clone().with_seed(base.seed.wrapping_add(i as u64));
                match &topology {
                    AnyTopology::Implicit(g) => implicit.push((*g, spec)),
                    _ => csr_samples.push(Sample {
                        graph: self.graph,
                        source: 0,
                        spec,
                    }),
                }
            }
        }
        let implicit_samples: Vec<Sample<ImplicitGraph>> = implicit
            .iter()
            .map(|(g, spec)| Sample {
                graph: g,
                source: 0,
                spec: spec.clone(),
            })
            .collect();
        let mut engines = layers::replay_engines(&csr_samples, 2);
        engines.merge(layers::replay_engines(&implicit_samples, 2));
        report.layer("core.sharded1_over_seq", engines.ratio(), "ratio");
        let dir = out_dir.join(format!("serve-ckpt-{}", std::process::id()));
        let mut ckpt = layers::checkpoint(&csr_samples, 2, &dir);
        ckpt.merge(layers::checkpoint(&implicit_samples, 2, &dir));
        report.check(ckpt.snapshots >= 1, || {
            "the checkpoint replay captured no snapshot".to_string()
        });
        ckpt.push(report);
        let _ = std::fs::remove_dir_all(&dir);

        // `engines` holds the CSR samples first, then the implicit ones;
        // map each job of the sample to its trial times.
        let mut exec_ms = Vec::new();
        let (mut csr_at, mut implicit_at) = (0, csr_samples.len());
        let mut agent_rounds = 0.0;
        for (r, outcomes) in self.sample.iter().zip(self.direct) {
            let at = if r.request.topology.uploaded_digest().is_some() {
                &mut csr_at
            } else {
                &mut implicit_at
            };
            let ms = &engines.seq_ms[*at..*at + TRIALS];
            *at += TRIALS;
            let kind = &r.request.protocol;
            report.layer(
                &format!("core.trial_ms.{kind}"),
                median(&mut ms.to_vec()),
                "ms",
            );
            report.layer(
                &format!("core.rounds.{kind}"),
                outcomes.iter().map(|o| o.rounds as f64).sum(),
                "count",
            );
            report.layer(
                &format!("core.messages.{kind}"),
                outcomes.iter().map(|o| o.total_messages as f64).sum(),
                "count",
            );
            exec_ms.push((kind.clone(), ms.iter().sum::<f64>()));
            if matches!(kind.as_str(), "meet-exchange" | "visit-exchange") {
                let n = match topology_of(&r.request, self.graph) {
                    AnyTopology::Implicit(g) => g.num_vertices(),
                    _ => self.graph.num_vertices(),
                };
                agent_rounds += outcomes.iter().map(|o| o.rounds as f64).sum::<f64>() * n as f64;
            }
        }

        let walk = layers::replay_walks(self.graph, self.graph.num_vertices(), 32, seed, false);
        report.layer("walks.step_ns", walk.step_ns, "ns");
        report.layer("walks.exchange_ns", walk.exchange_ns, "ns");
        let queries = layers::resolve_queries(self.graph, &walk.positions);
        let resolve = layers::resolve_ns(&queries, |u, i| self.graph.neighbor(u, i));
        report.layer("graphs.resolve_ns.csr", resolve, "ns");
        if let Some(first) = self.sample.first() {
            layers::wire(report, &first.request, &self.direct[0]);
        }

        // Queueing: job latency minus its replayed execution (Σ trial
        // times over the server's workers, one per core by default),
        // median over executed jobs.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let exec_of = |p: &str| {
            exec_ms
                .iter()
                .find(|(k, _)| k == p)
                .map_or(0.0, |(_, ms)| ms / workers)
        };
        let mut waits: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.repeat_of.is_none())
            .map(|r| r.ms() - exec_of(&r.request.protocol))
            .collect();
        report.layer("serve.queue_wait_ms", median(&mut waits), "ms");
        let jobs = self.records.len() as f64;
        report.layer(
            "serve.cache_hit_frac",
            stats.cache_hits as f64 / jobs,
            "frac",
        );
        report.layer(
            "serve.reconnects",
            self.records.iter().map(|r| r.reconnects as f64).sum(),
            "count",
        );
        report.layer("serve.shed", stats.shed as f64, "count");
        report.layer(
            "serve.protocol_errors",
            status.protocol_errors as f64,
            "count",
        );
        let uploaded = self
            .records
            .iter()
            .filter(|r| r.request.topology.uploaded_digest().is_some())
            .count();
        report.layer(
            "workload.cached_job_frac",
            stats.cache_hits as f64 / jobs,
            "frac",
        );
        report.layer("workload.uploaded_job_frac", uploaded as f64 / jobs, "frac");
        let durability = durability_overhead(report, self.args, self.graph, out_dir);
        report.layer("serve.durability_overhead_frac", durability, "frac");

        // Attribution over the window: the two clients' job spans share
        // the wall clock; executed trials by their replayed time over the
        // workers; walks, CSR resolution and xoshiro by agent rounds.
        let executed: f64 = self
            .records
            .iter()
            .filter(|r| r.repeat_of.is_none())
            .map(|r| exec_of(&r.request.protocol))
            .sum::<f64>()
            / 1e3;
        let jobs_per_kind = self
            .records
            .iter()
            .filter(|r| r.repeat_of.is_none())
            .count() as f64
            / self.sample.len().max(1) as f64;
        let agent_rounds_window = agent_rounds * jobs_per_kind / workers;
        let serve_s: f64 = self.records.iter().map(|r| r.ms()).sum::<f64>() / 1e3 / CLIENTS as f64;
        layers::attribute(
            report,
            self.wall,
            &[
                ("serve", serve_s, None),
                ("core", executed, Some("serve")),
                (
                    "walks",
                    agent_rounds_window * (walk.step_ns + walk.exchange_ns) * 1e-9,
                    Some("core"),
                ),
                (
                    "graphs",
                    agent_rounds_window * resolve * 1e-9,
                    Some("walks"),
                ),
                (
                    "rand",
                    agent_rounds_window * xoshiro_ns * 1e-9,
                    Some("walks"),
                ),
            ],
        );
    }
}

/// The topology a request runs on: the uploaded graph, or its family.
fn topology_of(request: &SubmitRequest, uploaded: &Graph) -> AnyTopology {
    match request.topology.uploaded_digest() {
        Some(_) => AnyTopology::from(uploaded.clone()),
        None => request.topology.build().expect("family topology"),
    }
}

/// `serve.store_resolve_ms`: the graph committed into a fresh on-disk
/// content store through its public chunk API, then resolved (re-read,
/// re-hashed, decoded) and unpinned, median of 20.
fn store_resolve_ms(report: &mut Report, graph: &Graph, dir: &Path) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let bytes = encode_csr(graph);
    let result = (|| -> Result<f64, String> {
        let store = ContentStore::open(Some(dir.to_path_buf()), None).map_err(|e| e.to_string())?;
        let manifest = manifest_for(&bytes, MAX_LINE_BYTES).map_err(|e| e.to_string())?;
        store.begin(manifest).map_err(|e| e.to_string())?;
        for index in 0..manifest.chunks() {
            let start = (index * manifest.chunk_bytes) as usize;
            let payload = &bytes[start..start + manifest.chunk_len(index)];
            store
                .chunk(manifest.digest, index, payload, crc32(payload))
                .map_err(|e| e.to_string())?;
        }
        store.commit(manifest.digest).map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            let resolved = store
                .resolve_pinned(manifest.digest)
                .map_err(|e| e.to_string())?;
            times.push(secs(t) * 1e3);
            store.unpin(manifest.digest);
            if &resolved != graph {
                return Err("resolved graph differs from the upload".to_string());
            }
        }
        Ok(median(&mut times))
    })();
    let _ = std::fs::remove_dir_all(dir);
    result.unwrap_or_else(|e| {
        report.errors.push(format!("store replay: {e}"));
        0.0
    })
}

/// `serve.durability_overhead_frac`: the same job sample through a server
/// with a state directory and one without (fresh servers, so nothing is
/// cached), alternating which goes first; Σ latency with ÷ without − 1.
/// Every job on the durable server must leave its manifest.
fn durability_overhead(report: &mut Report, args: &Args, graph: &Graph, out_dir: &Path) -> f64 {
    let durable = Running::start(Some(
        out_dir.join(format!("durable-{}", std::process::id())),
    ));
    let volatile = Running::start(None);
    let mut totals = [0.0f64; 2];
    for (s, server) in [&durable, &volatile].into_iter().enumerate() {
        if let Err(e) = ServeClient::new(&server.addr()).upload(graph) {
            report.errors.push(format!("durability upload {s}: {e}"));
        }
    }
    let digest = rumor_experiments::serve::protocol::fnv1a64(&encode_csr(graph));
    for round in 0..3usize {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for s in order {
            let server = if s == 0 { &durable } else { &volatile };
            let remote = ServeClient::new(&server.addr());
            for k in 0..DURABILITY_JOBS {
                let (request, _) = job(mix(args.seed, 77 + round as u64), 9, k, digest);
                let t = Instant::now();
                let ok = remote
                    .submit(&request)
                    .is_ok_and(|r| r.taxonomy.completed == TRIALS);
                totals[s] += secs(t);
                report.check(ok, || format!("durability job {k} on server {s} failed"));
            }
        }
    }
    let manifests = durable
        .dir
        .as_ref()
        .and_then(|d| std::fs::read_dir(d).ok())
        .map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".rman"))
                .count()
        });
    let jobs = 3 * DURABILITY_JOBS;
    report.check(manifests == jobs, || {
        format!("{manifests} job manifests for {jobs} jobs on the durable server")
    });
    report.layer("serve.manifests", manifests as f64, "count");
    durable.stop();
    volatile.stop();
    totals[0] / totals[1] - 1.0
}
