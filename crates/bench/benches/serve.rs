//! SERVE — load-generates the `rumor-serve` sweep server end to end.
//!
//! All measurements go to `BENCH_serve.json` (unified schema,
//! `host_logical_cores` / `peak_rss_bytes` stamped, queue-depth limits
//! recorded alongside):
//!
//! * **Sustained throughput** — distinct small sweeps submitted back to
//!   back over real TCP from several client threads; reports
//!   `sustained_trials_per_sec` and the `p99_submit_latency_ms` of the
//!   full submit→stream→done round-trip.
//! * **Overload shedding** — a burst of submissions sized at roughly 2×
//!   the admission queue against a deliberately throttled server; the
//!   shed rate (typed `overloaded` answers per attempt) is recorded and,
//!   under `RUMOR_BENCH_ENFORCE=1`, must be positive while every admitted
//!   job still completes.
//! * **Drain/restart recovery** — a throttled sweep is drained mid-job
//!   and resubmitted to a fresh server on the same state directory; the
//!   `recovered_fraction` (manifest-reused trials over total) must cover
//!   at least the trials the first server finished (enforced).
//! * **Chaos throughput + reconnect recovery** — the same sweep shape runs
//!   twice, direct and through the [`FaultNet`] proxy's deterministic
//!   drop/reset/truncate/stall schedule; the `serve_chaos` summary records
//!   sustained trials/s under faults, throughput retention vs the direct
//!   run, fault/reconnect counts, and reconnect recovery latency. Under
//!   `RUMOR_BENCH_ENFORCE=1`, faults must actually fire and every job must
//!   still complete all trials.
//! * **Upload throughput + resume recovery** — a canonical CSR encoding is
//!   pushed into the content store direct and through the fault proxy
//!   (both pumps faulted), recording MB/s and retention; then a transfer
//!   interrupted halfway resumes from the ack'd chunk, recording the
//!   retransmit fraction. Under `RUMOR_BENCH_ENFORCE=1`, chaos must force
//!   reconnects, the committed digest must match, and the resumed upload
//!   must transmit only the missing suffix.
//!
//! `RUMOR_BENCH_FAST=1` shrinks the job counts for CI smoke runs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rumor_bench::summary::record_summary_in;
use rumor_experiments::serve::protocol::{upload_begin_line, upload_chunk_line};
use rumor_experiments::serve::store::manifest_for;
use rumor_experiments::{
    AdmissionLimits, ClientError, FaultNet, FaultSpec, RetryPolicy, ServeClient, ServeConfig,
    Server, ServerHandle, SubmitRequest, TopologySpec,
};

fn enforce() -> bool {
    std::env::var("RUMOR_BENCH_ENFORCE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn start(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve"));
    (handle, join)
}

fn stop(handle: &ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.drain();
    join.join().expect("server thread");
}

/// A small, fast sweep; distinct `seed`s make distinct job digests, so the
/// result cache never short-circuits the measured path.
fn job(client: &str, seed: u64, trials: usize) -> SubmitRequest {
    let mut request = SubmitRequest::new(client, TopologySpec::new("complete", 64), "push", trials);
    request.seed = seed;
    request
}

fn main() {
    let fast = std::env::var("RUMOR_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let limits = AdmissionLimits::new();

    // ---- Sustained throughput + submission latency percentiles. ----
    let (handle, join) = start(ServeConfig::new());
    let addr = handle.addr().to_string();
    let client_threads = 4usize;
    let jobs_per_client = if fast { 8 } else { 32 };
    let trials_per_job = 16usize;
    let t0 = Instant::now();
    let workers: Vec<_> = (0..client_threads)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = ServeClient::new(&addr);
                let mut latencies = Vec::with_capacity(jobs_per_client);
                for j in 0..jobs_per_client {
                    let seed = 1 + (c * jobs_per_client + j) as u64;
                    let request = job(&format!("load-{c}"), seed, trials_per_job);
                    let t = Instant::now();
                    let result = client.submit(&request).expect("load submit");
                    latencies.push(t.elapsed());
                    assert_eq!(result.taxonomy.completed, trials_per_job);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("load client"))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let total_trials = handle.stats().trials_executed;
    stop(&handle, join);
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99).div_ceil(100).saturating_sub(1)];
    let p50 = latencies[latencies.len() / 2];
    let sustained = total_trials as f64 / wall_s;
    println!(
        "serve throughput: {} clients x {} jobs x {} trials over TCP — {total_trials} trials \
         in {wall_s:.2}s => {sustained:.0} trials/s (submit p50 {:.1}ms, p99 {:.1}ms)",
        client_threads,
        jobs_per_client,
        trials_per_job,
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
    );

    // ---- Overload: a burst at ~2x the admission queue must shed typed. ----
    let burst_limits = AdmissionLimits {
        max_pending_trials: 64,
        max_pending_jobs: 16,
    };
    let config = ServeConfig {
        workers: 2,
        throttle_ms: 10,
        limits: burst_limits,
        ..ServeConfig::new()
    };
    let (handle, join) = start(config);
    let addr = handle.addr().to_string();
    // Each job carries 16 trials; 16 concurrent jobs ≈ 2x the 64-trial and
    // half the 16-job budget — some must shed on one axis or the other.
    let burst = if fast { 8 } else { 16 };
    let attempts: Vec<_> = (0..burst)
        .map(|b| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = ServeClient::new(&addr).with_retry(RetryPolicy::none());
                client.submit(&job(&format!("burst-{b}"), 1000 + b as u64, 16))
            })
        })
        .collect();
    let mut shed = 0usize;
    let mut admitted = 0usize;
    for attempt in attempts {
        match attempt.join().expect("burst client") {
            Ok(result) => {
                assert_eq!(result.taxonomy.completed, 16, "admitted job must finish");
                admitted += 1;
            }
            Err(ClientError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "shed must carry a retry hint");
                shed += 1;
            }
            Err(other) => panic!("burst must shed typed, got {other}"),
        }
    }
    let shed_rate = shed as f64 / burst as f64;
    println!(
        "serve overload: burst of {burst} x 16-trial jobs against a {}-trial queue — \
         {admitted} admitted (all completed), {shed} shed typed => shed rate {:.0}%",
        burst_limits.max_pending_trials,
        100.0 * shed_rate,
    );
    stop(&handle, join);
    if enforce() {
        assert!(shed > 0, "2x overload must shed at least one submission");
        assert!(admitted > 0, "overload must not reject everything");
    }

    // ---- Drain mid-job, restart on the same state dir, measure reuse. ----
    let dir = std::env::temp_dir().join(format!("rumor-bench-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trials = 16usize;
    let config = ServeConfig {
        workers: 1,
        throttle_ms: 40,
        ..ServeConfig::new().with_state_dir(dir.clone())
    };
    let (handle, join) = start(config);
    let request = job("drainee", 9, trials);
    let submitter = {
        let addr = handle.addr().to_string();
        let request = request.clone();
        std::thread::spawn(move || {
            ServeClient::new(&addr)
                .with_retry(RetryPolicy::none())
                .submit(&request)
        })
    };
    // Wait until the server has durably finished part of the job, then drain.
    let target = trials / 4;
    while handle.stats().trials_executed < target {
        std::thread::sleep(Duration::from_millis(5));
    }
    let executed_before_drain = handle.stats().trials_executed;
    stop(&handle, join);
    // The interrupted client observed a typed drain, not a hang (the job can
    // still finish whole if the last trials beat the drain).
    match submitter.join().expect("drainee client") {
        Err(ClientError::Draining) | Ok(_) => {}
        Err(other) => panic!("drain must answer typed, got {other}"),
    }
    let (handle, join) = start(ServeConfig::new().with_state_dir(dir.clone()));
    let resumed = ServeClient::new(&handle.addr().to_string())
        .submit(&request)
        .expect("resumed submit");
    stop(&handle, join);
    std::fs::remove_dir_all(&dir).ok();
    let recovered_fraction = resumed.recovered_fraction();
    let completed_fraction = executed_before_drain.min(trials) as f64 / trials as f64;
    println!(
        "serve drain/restart: {trials}-trial job drained after {executed_before_drain} \
         trials — restart reused {} ({:.0}% recovered vs {:.0}% completed before drain)",
        resumed.reused,
        100.0 * recovered_fraction,
        100.0 * completed_fraction,
    );
    assert_eq!(resumed.taxonomy.completed, trials, "restart must finish");
    assert!(
        recovered_fraction >= completed_fraction,
        "drain lost completed work: recovered {recovered_fraction:.2} < completed \
         {completed_fraction:.2}"
    );

    // ---- Chaos: the same sweep shape direct vs through the fault proxy. ----
    let chaos_jobs = if fast { 8usize } else { 24 };
    let chaos_trials = 16usize;
    let run_sweep = |addr: String, tag: &'static str, max_reconnects: u32| {
        let client = ServeClient::new(&addr).with_max_reconnects(max_reconnects);
        let t0 = Instant::now();
        let mut reconnects = 0u64;
        let mut recovery_ms: Vec<u64> = Vec::new();
        for j in 0..chaos_jobs {
            let request = job(tag, 5_000 + j as u64, chaos_trials);
            let (mut results, stats) = client.submit_session(std::slice::from_ref(&request));
            let result = results.remove(0).expect("chaos-era submit");
            assert_eq!(
                result.taxonomy.completed, chaos_trials,
                "{tag} job must finish"
            );
            reconnects += stats.reconnects;
            recovery_ms.extend(stats.recovery_ms);
        }
        (t0.elapsed().as_secs_f64(), reconnects, recovery_ms)
    };

    let (handle, join) = start(ServeConfig::new());
    let (direct_wall, _, _) = run_sweep(handle.addr().to_string(), "calm", 0);
    stop(&handle, join);

    let (handle, join) = start(ServeConfig::new());
    let mut spec = FaultSpec::new(0xBEAC_0C4A);
    spec.fault_rate = 0.6;
    spec.max_after_bytes = 1000;
    let net = FaultNet::start(handle.addr(), spec).expect("fault proxy");
    // Distinct client tag, same specs: the chaos server is fresh, so the
    // digests hit neither cache. Jobs must survive on resume alone.
    let (chaos_wall, reconnects, recovery_ms) = run_sweep(net.addr().to_string(), "chaos", 64);
    let report = net.shutdown();
    stop(&handle, join);

    let total = (chaos_jobs * chaos_trials) as f64;
    let direct_tps = total / direct_wall;
    let chaos_tps = total / chaos_wall;
    let retention = chaos_tps / direct_tps;
    let mean_recovery_ms = if recovery_ms.is_empty() {
        0.0
    } else {
        recovery_ms.iter().sum::<u64>() as f64 / recovery_ms.len() as f64
    };
    let max_recovery_ms = recovery_ms.iter().copied().max().unwrap_or(0) as f64;
    println!(
        "serve chaos: {chaos_jobs} x {chaos_trials}-trial jobs through {} faults \
         ({} drops, {} resets, {} truncations, {} stalls) — {chaos_tps:.0} trials/s vs \
         {direct_tps:.0} direct ({:.0}% retention), {reconnects} reconnects, recovery \
         mean {mean_recovery_ms:.1}ms max {max_recovery_ms:.0}ms",
        report.total(),
        report.drops,
        report.resets,
        report.truncations,
        report.delays,
        100.0 * retention,
    );
    if enforce() {
        assert!(report.total() > 0, "the chaos schedule must inject faults");
        assert!(
            reconnects > 0,
            "faults at this rate must force at least one reconnect"
        );
    }

    // ---- Upload: content-store transfer throughput + resume recovery. ----
    let upload_n = if fast { 20_000 } else { 60_000 };
    let encoded =
        rumor_graphs::codec::encode_csr(&rumor_graphs::generators::cycle(upload_n).expect("cycle"));
    let mbytes = encoded.len() as f64 / 1e6;

    // Direct transfer at the default 64 KiB line bound.
    let (handle, join) = start(ServeConfig::new());
    let t0 = Instant::now();
    let direct_upload = ServeClient::new(&handle.addr().to_string())
        .upload_bytes(&encoded)
        .expect("direct upload");
    let direct_upload_wall = t0.elapsed().as_secs_f64();
    stop(&handle, join);
    assert_eq!(direct_upload.chunks_sent, direct_upload.chunks);

    // The same transfer through the fault proxy, both pumps faulted. The
    // fault point sits past one full chunk line (~64 KiB of hex), so every
    // surviving connection still lands at least one chunk and the resumable
    // transfer converges.
    let (handle, join) = start(ServeConfig::new());
    let mut spec = FaultSpec::new(0x0B1A_DE5C).with_upstream_faults();
    spec.fault_rate = 1.0;
    spec.min_after_bytes = 70_000;
    spec.max_after_bytes = 200_000;
    let net = FaultNet::start(handle.addr(), spec).expect("fault proxy");
    let chaos_client = ServeClient::new(&net.addr().to_string()).with_max_reconnects(4096);
    let t0 = Instant::now();
    let chaos_upload = chaos_client.upload_bytes(&encoded).expect("chaos upload");
    // A lucky schedule can thread one transfer through delay-only
    // connections; keep pushing distinct graphs until faults have
    // demonstrably bitten (reconnects, not just stalls). All transferred
    // bytes count toward the measured chaos throughput.
    let mut chaos_bytes = encoded.len() as f64;
    let mut chaos_reconnects = chaos_upload.reconnects;
    for i in 0..12usize {
        if net.report().total() >= 4 && chaos_reconnects > 0 {
            break;
        }
        let filler = rumor_graphs::codec::encode_csr(
            &rumor_graphs::generators::cycle(upload_n + 1 + 13 * i).expect("cycle"),
        );
        chaos_bytes += filler.len() as f64;
        chaos_reconnects += chaos_client
            .upload_bytes(&filler)
            .expect("chaos filler upload")
            .reconnects;
    }
    let chaos_upload_wall = t0.elapsed().as_secs_f64();
    let upload_faults = net.shutdown();
    stop(&handle, join);
    assert_eq!(chaos_upload.digest, direct_upload.digest);

    // Recovery: half the chunks land over a raw socket, the connection
    // dies, and the client's upload resumes from the ack'd high-water mark.
    let (handle, join) = start(ServeConfig::new());
    let manifest =
        manifest_for(&encoded, rumor_experiments::serve::MAX_LINE_BYTES).expect("manifest");
    let prefix = manifest.chunks() / 2;
    {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        writeln!(writer, "{}", upload_begin_line(&manifest)).expect("begin");
        reader.read_line(&mut line).expect("begin ack");
        for index in 0..prefix {
            let at = (index * manifest.chunk_bytes) as usize;
            let payload = &encoded[at..at + manifest.chunk_len(index)];
            writeln!(
                writer,
                "{}",
                upload_chunk_line(manifest.digest, index, payload)
            )
            .expect("chunk");
            line.clear();
            reader.read_line(&mut line).expect("chunk ack");
        }
    }
    let t0 = Instant::now();
    let resumed_upload = ServeClient::new(&handle.addr().to_string())
        .upload_bytes(&encoded)
        .expect("resumed upload");
    let resume_wall = t0.elapsed().as_secs_f64();
    stop(&handle, join);

    let direct_upload_mbps = mbytes / direct_upload_wall;
    let chaos_upload_mbps = chaos_bytes / 1e6 / chaos_upload_wall;
    let upload_retention = chaos_upload_mbps / direct_upload_mbps;
    let retransmit_fraction = resumed_upload.chunks_sent as f64 / resumed_upload.chunks as f64;
    println!(
        "serve upload: {:.1} MB canonical CSR in {} chunks — {direct_upload_mbps:.1} MB/s \
         direct, {chaos_upload_mbps:.1} MB/s through {} faults / {} reconnects ({:.0}% \
         retention); interrupted at chunk {} of {}, resume retransmitted {:.0}% in \
         {resume_wall:.2}s",
        mbytes,
        direct_upload.chunks,
        upload_faults.total(),
        chaos_reconnects,
        100.0 * upload_retention,
        resumed_upload.resumed_from,
        resumed_upload.chunks,
        100.0 * retransmit_fraction,
    );
    if enforce() {
        assert!(
            upload_faults.total() > 0,
            "the upload chaos schedule must inject faults"
        );
        assert!(
            chaos_reconnects > 0,
            "upload faults at this rate must force at least one reconnect"
        );
        assert_eq!(
            resumed_upload.resumed_from, prefix,
            "resume must start at the interrupted transfer's ack'd chunk"
        );
        assert_eq!(
            resumed_upload.chunks_sent,
            resumed_upload.chunks - prefix,
            "resume must transmit only the missing suffix"
        );
    }

    record_summary_in(
        "BENCH_serve.json",
        "serve_upload",
        &[
            ("upload_bytes", encoded.len() as f64),
            ("upload_chunks", direct_upload.chunks as f64),
            ("direct_upload_mbytes_per_sec", direct_upload_mbps),
            ("chaos_upload_mbytes_per_sec", chaos_upload_mbps),
            ("upload_throughput_retention", upload_retention),
            ("upload_fault_count", upload_faults.total() as f64),
            (
                "upload_upstream_faults",
                upload_faults.upstream_faults as f64,
            ),
            ("upload_reconnects", chaos_reconnects as f64),
            ("resume_resumed_from", resumed_upload.resumed_from as f64),
            ("resume_retransmit_fraction", retransmit_fraction),
            ("resume_wall_s", resume_wall),
        ],
    );

    record_summary_in(
        "BENCH_serve.json",
        "serve_chaos",
        &[
            ("chaos_jobs", chaos_jobs as f64),
            ("chaos_trials_per_job", chaos_trials as f64),
            ("chaos_trials_per_sec", chaos_tps),
            ("direct_trials_per_sec", direct_tps),
            ("throughput_retention", retention),
            ("chaos_fault_count", report.total() as f64),
            ("chaos_drops", report.drops as f64),
            ("chaos_resets", report.resets as f64),
            ("chaos_truncations", report.truncations as f64),
            ("chaos_stalls", report.delays as f64),
            ("chaos_reconnects", reconnects as f64),
            ("reconnect_recovery_mean_ms", mean_recovery_ms),
            ("reconnect_recovery_max_ms", max_recovery_ms),
        ],
    );

    record_summary_in(
        "BENCH_serve.json",
        "serve_load_generator",
        &[
            ("clients", client_threads as f64),
            ("jobs", (client_threads * jobs_per_client) as f64),
            ("trials_per_job", trials_per_job as f64),
            ("sustained_trials_per_sec", sustained),
            ("p50_submit_latency_ms", p50.as_secs_f64() * 1e3),
            ("p99_submit_latency_ms", p99.as_secs_f64() * 1e3),
            ("shed_rate", shed_rate),
            ("recovered_fraction", recovered_fraction),
            ("max_pending_trials", limits.max_pending_trials as f64),
            ("max_pending_jobs", limits.max_pending_jobs as f64),
            (
                "burst_max_pending_trials",
                burst_limits.max_pending_trials as f64,
            ),
            (
                "burst_max_pending_jobs",
                burst_limits.max_pending_jobs as f64,
            ),
        ],
    );
}
