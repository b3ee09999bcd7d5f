//! Chaos suite: the serve stack's zero-loss guarantees under deterministic
//! network failure.
//!
//! The [`FaultNet`] proxy injects drops, resets, truncations, and stalls at
//! seed-keyed (Philox) points, so every run of this suite replays exactly
//! the same failure schedule. The headline test drives a multi-job sweep
//! through sustained faults and requires the result streams to be
//! **byte-identical** to an un-proxied run against a separate server —
//! zero lost lines, zero duplicated lines. The rest pin the session layer's
//! edges: exact resume replay (from the cache and from a running job),
//! the bytes that end each kind of stream, drain mid-stream, half-open
//! reaping within the idle timeout, bounded-line violations, and
//! multiplexing many jobs over one connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rumor_experiments::serve::protocol::{parse_json, resume_request_line, Json};
use rumor_experiments::serve::MAX_LINE_BYTES;
use rumor_experiments::{
    FaultSpec, ServeClient, ServeConfig, Server, ServerHandle, SubmitRequest, TopologySpec,
};

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

/// Distinct seeds make distinct digests, so nothing is answered from cache
/// unless a test wants it to be.
fn job(client: &str, seed: u64, trials: usize) -> SubmitRequest {
    let mut request = SubmitRequest::new(client, TopologySpec::new("complete", 64), "push", trials);
    request.seed = seed;
    request
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end().to_string()),
        Err(_) => None,
    }
}

/// Opens a raw session and sends one request line. Reads time out, so a
/// stream that never ends fails the test instead of hanging it.
fn send(addr: SocketAddr, line: &str) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    writeln!(&stream, "{line}").expect("write");
    BufReader::new(stream)
}

/// A wire line's `type` field.
fn kind(line: &str) -> String {
    let value = parse_json(line).expect("json line");
    value
        .get("type")
        .and_then(Json::as_str)
        .expect("typed line")
        .to_string()
}

/// Reads one job stream up to and including its terminal line (`done` or
/// job-tagged `draining`).
fn read_stream(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let line = read_line(reader).expect("the stream must end with a terminal line");
        let end = matches!(kind(&line).as_str(), "done" | "draining");
        lines.push(line);
        if end {
            return lines;
        }
    }
}

/// The tentpole guarantee: a multi-job sweep forced through ≥20 injected
/// faults (drops, resets, truncations, stalls) completes with result
/// streams byte-identical to an un-proxied run — zero lost, zero
/// duplicated trial lines. Two separate servers, so the reference run
/// cannot pre-populate the chaos server's cache.
#[test]
fn chaos_sweep_is_byte_identical_to_direct_run() {
    let jobs: Vec<SubmitRequest> = (0..16).map(|j| job("chaos", 100 + j, 12)).collect();

    // Reference run: no proxy, fresh server.
    let (direct_handle, direct_join) = start(ServeConfig::new());
    let direct_client = ServeClient::new(&direct_handle.addr().to_string());
    let direct: Vec<_> = jobs
        .iter()
        .map(|request| direct_client.submit(request).expect("direct submit"))
        .collect();
    stop(&direct_handle, direct_join);

    // Chaos run: same jobs, fresh server, every connection through the
    // fault proxy. One session per job so the deterministic schedule sees
    // a fresh connection stream per job plus one per reconnect.
    let (handle, join) = start(ServeConfig::new());
    let mut spec = FaultSpec::new(0xC4A0_5EED);
    spec.fault_rate = 0.75;
    spec.max_after_bytes = 1000;
    let net = rumor_experiments::FaultNet::start(handle.addr(), spec).expect("proxy");
    let chaos_client = ServeClient::new(&net.addr().to_string()).with_max_reconnects(64);

    let mut reconnects = 0u64;
    let mut duplicates_dropped = 0u64;
    let mut recovery_samples = 0usize;
    let mut chaos = Vec::with_capacity(jobs.len());
    for request in &jobs {
        let (mut results, stats) = chaos_client.submit_session(std::slice::from_ref(request));
        reconnects += stats.reconnects;
        duplicates_dropped += stats.duplicate_lines_dropped;
        recovery_samples += stats.recovery_ms.len();
        chaos.push(results.remove(0).expect("chaos submit"));
    }

    let report = net.shutdown();
    stop(&handle, join);

    assert!(
        report.total() >= 20,
        "schedule must inject at least 20 faults, got {report:?}"
    );
    assert!(report.drops > 0, "schedule must include drops: {report:?}");
    assert!(
        report.resets > 0,
        "schedule must include resets: {report:?}"
    );
    assert!(
        report.truncations > 0,
        "schedule must include truncations: {report:?}"
    );
    assert!(
        report.delays > 0,
        "schedule must include stalls: {report:?}"
    );
    assert!(
        reconnects > 0,
        "faults at this rate must force at least one reconnect"
    );
    // One sample per recovery *span*: back-to-back faults (a replacement
    // connection dying before its first line) fold into a single sample.
    assert!(
        recovery_samples > 0 && recovery_samples <= reconnects as usize,
        "recovery samples ({recovery_samples}) must track reconnects ({reconnects})"
    );
    // Truncation replays overlap; the seq filter must have discarded it
    // rather than surfacing duplicates.
    let _ = duplicates_dropped;

    for (direct_result, chaos_result) in direct.iter().zip(&chaos) {
        assert_eq!(chaos_result.taxonomy.completed, 12);
        assert_eq!(
            direct_result.trial_lines, chaos_result.trial_lines,
            "chaos stream must be byte-identical to the direct stream"
        );
    }
}

/// One connection carries many concurrent jobs: results demultiplex by the
/// `(job, seq)` tags, in request order, over a single session.
#[test]
fn one_session_multiplexes_concurrent_jobs() {
    let (handle, join) = start(ServeConfig::new());
    let client = ServeClient::new(&handle.addr().to_string());
    let jobs: Vec<SubmitRequest> = (0..5).map(|j| job("mux", 900 + j, 6)).collect();
    let (results, stats) = client.submit_session(&jobs);
    assert_eq!(stats.connects, 1, "one session, one connection");
    assert_eq!(stats.reconnects, 0);
    for (request, result) in jobs.iter().zip(results) {
        let result = result.expect("mux submit");
        assert_eq!(result.job, format!("{:016x}", request.digest()));
        assert_eq!(result.taxonomy.completed, 6);
        assert_eq!(result.trial_lines.len(), 6);
    }
    assert_eq!(handle.status().sessions_opened, 1);
    stop(&handle, join);
}

/// `resume {job, last_seq}` replays exactly the missing suffix: the lines
/// past `last_seq` of a full replay, byte for byte, then the same `done`.
#[test]
fn resume_replays_exactly_the_missing_suffix() {
    let (handle, join) = start(ServeConfig::new());
    let addr = handle.addr();
    let client = ServeClient::new(&addr.to_string());
    let request = job("resume", 4242, 8);
    let digest = request.digest();
    client.submit(&request).expect("seed the cache");

    let replay_from = |last_seq: u64| -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writeln!(writer, "{}", resume_request_line(digest, last_seq)).expect("write");
        let mut reader = BufReader::new(stream);
        let header = read_line(&mut reader).expect("resumed header");
        let value = parse_json(&header).expect("json header");
        assert_eq!(value.get("type").and_then(Json::as_str), Some("resumed"));
        assert_eq!(value.get("seq").and_then(Json::as_u64), Some(last_seq));
        let mut lines = Vec::new();
        loop {
            let line = read_line(&mut reader).expect("replay line");
            let done = parse_json(&line)
                .expect("json line")
                .get("type")
                .and_then(Json::as_str)
                == Some("done");
            lines.push(line);
            if done {
                return lines;
            }
        }
    };

    let full = replay_from(0);
    assert_eq!(full.len(), 9, "8 trials + done");
    for last_seq in [1u64, 4, 8] {
        let suffix = replay_from(last_seq);
        assert_eq!(
            suffix,
            full[last_seq as usize..].to_vec(),
            "resume from {last_seq} must replay exactly the missing suffix"
        );
    }
    stop(&handle, join);
}

/// A resume naming a digest the server has never seen answers with a typed
/// `unknown_job` line (the client's cue to fall back to resubmission).
#[test]
fn unknown_job_resume_answers_typed() {
    let (handle, join) = start(ServeConfig::new());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writeln!(writer, "{}", resume_request_line(0xdead_beef, 3)).expect("write");
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader).expect("answer");
    let value = parse_json(&line).expect("json");
    assert_eq!(
        value.get("type").and_then(Json::as_str),
        Some("unknown_job")
    );
    assert_eq!(
        value.get("job").and_then(Json::as_str),
        Some(format!("{:016x}", 0xdead_beefu64).as_str())
    );
    stop(&handle, join);
}

/// A drain does not wait on a session that stays open and quiet: its reader
/// closes once the drain has finished, so the server returns within a
/// second, and the idle client sees its connection end.
#[test]
fn drain_returns_promptly_with_an_idle_session_open() {
    let (handle, join) = start(ServeConfig::new());
    let idle = TcpStream::connect(handle.addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    // A ping round-trip proves the session is up before the drain.
    writeln!(&idle, "{{\"verb\":\"ping\"}}").expect("write");
    let mut reader = BufReader::new(idle);
    assert_eq!(kind(&read_line(&mut reader).expect("pong")), "pong");

    let started = Instant::now();
    stop(&handle, join);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "drain took {elapsed:?} with an idle session open"
    );
    assert_eq!(read_line(&mut reader), None, "the session must be closed");
}

/// A connection that goes silent (no request, no heartbeat) is reclaimed
/// within the configured idle timeout: typed `protocol_error`, close, and
/// the `idle_reaped` counter ticks. Heartbeats defer the reaper.
#[test]
fn half_open_connections_are_reaped_within_the_idle_timeout() {
    let idle = Duration::from_millis(300);
    let (handle, join) = start(ServeConfig::new().with_idle_timeout(idle));

    // A live connection that only heartbeats must survive several idle
    // windows.
    let alive = TcpStream::connect(handle.addr()).expect("connect");
    let mut alive_writer = alive.try_clone().expect("clone");
    let mut alive_reader = BufReader::new(alive);
    for _ in 0..8 {
        writeln!(alive_writer, "{{\"verb\":\"heartbeat\"}}").expect("heartbeat");
        let answer = read_line(&mut alive_reader).expect("heartbeat answer");
        assert!(answer.contains("\"type\":\"heartbeat\""));
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(
        handle.status().idle_reaped,
        0,
        "heartbeats defer the reaper"
    );
    drop(alive_writer);
    drop(alive_reader);

    // A half-open connection: connected, then silent.
    let silent = TcpStream::connect(handle.addr()).expect("connect");
    let started = Instant::now();
    let mut reader = BufReader::new(silent.try_clone().expect("clone"));
    let line = read_line(&mut reader).expect("the reaper announces itself");
    let elapsed = started.elapsed();
    assert!(line.contains("\"type\":\"protocol_error\""), "got {line}");
    assert!(line.contains("idle timeout"), "got {line}");
    assert_eq!(read_line(&mut reader), None, "connection must be closed");
    assert!(
        elapsed < idle * 3,
        "reap took {elapsed:?}, idle timeout is {idle:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.status().idle_reaped == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.status().idle_reaped, 1);
    stop(&handle, join);
}

/// A request line past [`MAX_LINE_BYTES`] is answered with a typed
/// `protocol_error` and a close — never an unbounded buffer.
#[test]
fn oversized_lines_get_a_typed_protocol_error() {
    let (handle, join) = start(ServeConfig::new());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let blob = vec![b'x'; MAX_LINE_BYTES + 512];
    writer.write_all(&blob).expect("write oversized");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut answer = String::new();
    reader.read_to_string(&mut answer).expect("read answer");
    assert!(
        answer.contains("\"type\":\"protocol_error\""),
        "got {answer:?}"
    );
    assert!(answer.contains("line exceeds"), "got {answer:?}");
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.status().protocol_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.status().protocol_errors, 1);
    stop(&handle, join);
}

/// A drain while a job streams ends that job's stream with its job-tagged
/// `draining` line: the session gets every trial line emitted before the
/// drain, then the terminal line — no hang.
#[test]
fn drain_ends_a_streaming_job_with_its_tagged_draining_line() {
    let config = ServeConfig {
        throttle_ms: 50, // 40 trials on one worker: the drain lands mid-job
        ..ServeConfig::new().with_workers(1)
    };
    let (handle, join) = start(config);
    let request = job("drain", 31, 40);
    let mut reader = send(handle.addr(), &request.to_line());
    let accepted = read_line(&mut reader).expect("accepted line");
    assert_eq!(kind(&accepted), "accepted");
    let first = read_line(&mut reader).expect("first trial line");
    assert_eq!(kind(&first), "trial");

    handle.drain();
    let rest = read_stream(&mut reader);
    let (end, trials) = rest.split_last().expect("terminal line");
    assert_eq!(
        end,
        &format!(
            "{{\"type\":\"draining\",\"job\":\"{:016x}\"}}",
            request.digest()
        )
    );
    assert!(trials.iter().all(|line| kind(line) == "trial"));
    assert!(trials.len() < 39, "the drain must cut the job short");
    drop(reader);
    join.join().expect("server thread");
}

/// A `resume` whose `last_seq` is ahead of the lines a *running* job has
/// emitted waits for them: it gets exactly the trial lines with
/// `seq > last_seq`, then `done`, byte-identical to that suffix of the
/// job's live stream.
#[test]
fn over_claiming_resume_on_a_running_job_gets_exactly_the_suffix() {
    let config = ServeConfig {
        throttle_ms: 100, // 12 trials on one worker: seq 6 lands ~0.5 s later
        ..ServeConfig::new().with_workers(1)
    };
    let (handle, join) = start(config);
    let request = job("overclaim", 77, 12);
    let digest = request.digest();

    let mut live = send(handle.addr(), &request.to_line());
    let accepted = read_line(&mut live).expect("accepted line");
    assert_eq!(kind(&accepted), "accepted");
    let first = read_line(&mut live).expect("first trial line");
    assert_eq!(kind(&first), "trial");

    let last_seq = 6u64;
    let mut resumed = send(handle.addr(), &resume_request_line(digest, last_seq));
    let header = read_line(&mut resumed).expect("resumed header");
    assert_eq!(kind(&header), "resumed");
    assert_eq!(
        parse_json(&header)
            .expect("json")
            .get("seq")
            .and_then(Json::as_u64),
        Some(last_seq)
    );
    let suffix = read_stream(&mut resumed);

    let mut full = vec![first];
    full.extend(read_stream(&mut live));
    assert_eq!(full.len(), 13, "12 trials + done");
    assert_eq!(suffix, full[last_seq as usize..].to_vec());
    drop((live, resumed));
    stop(&handle, join);
}

/// Every path ends with the `done` bytes of its kind: a live stream with
/// `cached:false` and the job's manifest reuse, a cache hit and a resume
/// from the cache with `cached:true` and every trial reused. The trial
/// lines before them are the same bytes on all three.
#[test]
fn live_and_cached_streams_end_with_their_own_done_bytes() {
    let (handle, join) = start(ServeConfig::new());
    let request = job("done", 555, 5);
    let hex = format!("{:016x}", request.digest());
    let done = |reused: usize, cached: bool| {
        format!(
            "{{\"type\":\"done\",\"job\":\"{hex}\",\"seq\":6,\"completed\":5,\"round_capped\":0,\"timed_out\":0,\"panicked\":0,\"not_run\":0,\"reused\":{reused},\"cached\":{cached}}}"
        )
    };

    // One session per request, closed before the next: header, then stream.
    let exchange = |line: &str| {
        let mut reader = send(handle.addr(), line);
        let header = read_line(&mut reader).expect("header line");
        (header, read_stream(&mut reader))
    };
    let (accepted, live) = exchange(&request.to_line());
    assert!(accepted.contains("\"cached\":false"), "got {accepted}");
    let (accepted, hit) = exchange(&request.to_line());
    assert!(accepted.contains("\"cached\":true"), "got {accepted}");
    let (header, resumed) = exchange(&resume_request_line(request.digest(), 0));
    assert_eq!(kind(&header), "resumed");

    assert_eq!(live.len(), 6, "5 trials + done");
    assert_eq!(live[5], done(0, false));
    assert_eq!(hit[5], done(5, true));
    assert_eq!(resumed[5], done(5, true));
    assert_eq!(live[..5], hit[..5]);
    assert_eq!(live[..5], resumed[..5]);
    stop(&handle, join);
}
