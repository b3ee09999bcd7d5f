//! End-to-end serve tests over real TCP: submission streaming, duplicate
//! coalescing, overload shedding without starvation, deadline enforcement,
//! and typed validation errors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rumor_experiments::{
    AdmissionLimits, ClientError, RetryPolicy, ServeClient, ServeConfig, Server, SubmitRequest,
    TopologySpec,
};

/// Binds a server on an ephemeral port and runs it on a background thread.
fn start_server(
    config: ServeConfig,
) -> (rumor_experiments::ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("serve");
    });
    (handle, join)
}

fn fail_fast() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
    }
}

#[test]
fn submits_a_sweep_and_streams_typed_results() {
    let (handle, join) = start_server(ServeConfig::new().with_workers(2));
    let client = ServeClient::new(&handle.addr().to_string());

    let request = SubmitRequest::new("alice", TopologySpec::new("complete", 64), "push", 6);
    let result = client.submit(&request).expect("submit");
    assert_eq!(result.trial_lines.len(), 6);
    assert_eq!(result.taxonomy.completed, 6);
    assert!(!result.cached);
    assert!(result.ensure_complete().is_ok());
    // Lines arrive in trial-index order.
    for (i, line) in result.trial_lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"index\":{i}")),
            "line {i} out of order: {line}"
        );
    }

    // An identical resubmission — even from another client — is a cache hit
    // with byte-identical trial lines.
    let mut duplicate = request.clone();
    duplicate.client = "bob".to_string();
    let replay = client.submit(&duplicate).expect("replay");
    assert!(replay.cached);
    assert_eq!(replay.trial_lines, result.trial_lines);
    assert_eq!(handle.stats().trials_executed, 6, "cache hit must be free");

    // Liveness + status + drain round-trip through the wire.
    client.ping().expect("ping");
    let status = client.status().expect("status");
    assert_eq!(status.executed, 6);
    assert_eq!(status.cache_hits, 1);
    client.drain().expect("drain");
    join.join().unwrap();
}

#[test]
fn concurrent_duplicate_submissions_share_one_execution() {
    let dir = std::env::temp_dir().join(format!("rumor-serve-dup-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig::new()
        .with_workers(2)
        .with_state_dir(dir.clone());
    let config = ServeConfig {
        throttle_ms: 30, // slow the job so the duplicate lands mid-flight
        ..config
    };
    let (handle, join) = start_server(config);
    let addr = handle.addr().to_string();

    let request = SubmitRequest::new("alice", TopologySpec::new("complete", 48), "push-pull", 8);
    let mut race = request.clone();
    race.client = "bob".to_string();
    let threads: Vec<_> = [request, race]
        .into_iter()
        .map(|req| {
            let addr = addr.clone();
            std::thread::spawn(move || ServeClient::new(&addr).submit(&req).expect("submit"))
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    // One execution: the racing duplicate attached to the in-flight job (or
    // hit the cache if it lost the race entirely) — never a re-run.
    assert_eq!(
        handle.stats().trials_executed,
        8,
        "duplicate submission must not re-execute trials"
    );
    let stats = handle.stats();
    assert_eq!(
        stats.duplicate_hits + stats.cache_hits,
        1,
        "the second submission must be a duplicate or cache hit: {stats:?}"
    );
    // …and both streams carry byte-identical result lines.
    assert_eq!(results[0].trial_lines, results[1].trial_lines);
    assert_eq!(results[0].trial_lines.len(), 8);
    for result in &results {
        assert_eq!(result.taxonomy.completed, 8);
    }

    handle.drain();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_typed_rejections_without_starving_the_small_client() {
    let config = ServeConfig {
        workers: 1,
        throttle_ms: 20,
        limits: AdmissionLimits {
            max_pending_trials: 26,
            max_pending_jobs: 8,
        },
        ..ServeConfig::new()
    };
    let (handle, join) = start_server(config);
    let addr = handle.addr().to_string();

    // The hog fills most of the queue first…
    let hog = SubmitRequest::new("hog", TopologySpec::new("complete", 32), "push", 24);
    let hog_thread = {
        let addr = addr.clone();
        let hog = hog.clone();
        std::thread::spawn(move || {
            let done = ServeClient::new(&addr).submit(&hog).expect("hog submit");
            (Instant::now(), done)
        })
    };
    // Give the hog's submission time to land.
    std::thread::sleep(Duration::from_millis(50));

    // …so a second large job sheds with a typed rejection…
    let flood = SubmitRequest::new("hog", TopologySpec::new("complete", 32), "pull", 24);
    match ServeClient::new(&addr)
        .with_retry(fail_fast())
        .submit(&flood)
    {
        Err(ClientError::Overloaded { retry_after_ms }) => assert!(retry_after_ms >= 100),
        other => panic!("expected typed shed, got {other:?}"),
    }

    // …while a small well-behaved job still fits, interleaves 1:1 with the
    // hog under round-robin, and finishes long before it.
    let small = SubmitRequest::new(
        "mouse",
        TopologySpec::new("complete", 32),
        "visit-exchange",
        2,
    );
    let small_result = ServeClient::new(&addr)
        .submit(&small)
        .expect("small submit");
    let small_done = Instant::now();
    assert_eq!(small_result.taxonomy.completed, 2);

    let (hog_done, hog_result) = hog_thread.join().unwrap();
    assert_eq!(hog_result.taxonomy.completed, 24);
    assert!(
        small_done < hog_done,
        "fair scheduling must finish the 2-trial job before the 24-trial hog"
    );
    assert!(handle.stats().shed >= 1);

    handle.drain();
    join.join().unwrap();
}

#[test]
fn deadlines_terminate_with_typed_taxonomy_not_hangs() {
    let (handle, join) = start_server(ServeConfig::new().with_workers(2));
    let client = ServeClient::new(&handle.addr().to_string());

    // A push broadcast on a million-vertex cycle cannot finish inside the
    // deadline (it needs ~n/2 rounds); every trial must either suspend at a
    // chunk boundary (timed-out) or never start (not-run).
    let mut request = SubmitRequest::new("dl", TopologySpec::new("cycle", 1_000_000), "push", 4);
    request.max_rounds = 400_000;
    request.deadline_ms = Some(150);
    let started = Instant::now();
    let result = client.submit(&request).expect("deadline submit");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline must bound the request"
    );
    assert_eq!(result.taxonomy.completed, 0);
    assert_eq!(
        result.taxonomy.timed_out + result.taxonomy.not_run,
        4,
        "taxonomy: {:?}",
        result.taxonomy
    );
    match result.ensure_complete() {
        Err(ClientError::DeadlineExceeded { .. }) => {}
        other => panic!("expected typed deadline error, got {other:?}"),
    }

    handle.drain();
    join.join().unwrap();
}

#[test]
fn invalid_specs_and_verbs_answer_with_typed_errors() {
    let (handle, join) = start_server(ServeConfig::new().with_workers(1));
    let client = ServeClient::new(&handle.addr().to_string()).with_retry(fail_fast());

    let bad_protocol = SubmitRequest::new("t", TopologySpec::new("star", 16), "shout", 2);
    match client.submit(&bad_protocol) {
        Err(ClientError::Rejected(message)) => assert!(message.contains("shout")),
        other => panic!("expected rejection, got {other:?}"),
    }
    let bad_family = SubmitRequest::new("t", TopologySpec::new("moebius", 16), "push", 2);
    assert!(matches!(
        client.submit(&bad_family),
        Err(ClientError::Rejected(_))
    ));

    // Raw garbage on the wire gets an error line, not a hang.
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "this is not json").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"type\":\"error\""), "line: {line}");

    handle.drain();
    join.join().unwrap();
}

#[test]
fn draining_server_rejects_new_submissions_typed() {
    let (handle, join) = start_server(ServeConfig::new().with_workers(1));
    let client = Arc::new(ServeClient::new(&handle.addr().to_string()).with_retry(fail_fast()));
    handle.drain();
    let request = SubmitRequest::new("t", TopologySpec::new("star", 16), "push", 2);
    // The accept loop may already have exited: both the typed draining
    // answer and a refused connection are acceptable; a hang is not.
    match client.submit(&request) {
        Err(ClientError::Draining) | Err(ClientError::Io(_)) => {}
        other => panic!("expected draining/refused, got {other:?}"),
    }
    join.join().unwrap();
}

#[test]
fn killed_session_mid_forward_leaves_the_server_serving() {
    // The regression this pins: a session dying mid-stream (connection
    // dropped while its job is pushing trial lines into the session's
    // outbox) must cost only that session. The server keeps admitting and serving new sessions,
    // and the dead session's threads are reclaimed — nothing wedges on the
    // outbox Condvar.
    use std::io::{BufRead, BufReader, Write};
    let config = ServeConfig {
        throttle_ms: 30, // stretch the job so the kill lands mid-stream
        ..ServeConfig::new().with_workers(2)
    };
    let (handle, join) = start_server(config);

    let victim = SubmitRequest::new("victim", TopologySpec::new("complete", 48), "push", 20);
    {
        let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        writeln!(stream, "{}", victim.to_line()).expect("send");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("accepted line");
        assert!(line.contains("\"type\":\"accepted\""), "unexpected: {line}");
        line.clear();
        reader.read_line(&mut line).expect("first trial line");
        assert!(line.contains("\"type\":\"trial\""), "unexpected: {line}");
        // Drop the socket with 19 trials still to stream: the reader sees
        // EOF and closes the outbox, and the job must drop the dead
        // subscription instead of pushing into a wedged outbox forever.
    }

    // A fresh session on the same server must be served normally while the
    // victim's job is still running/unwinding.
    let client = ServeClient::new(&handle.addr().to_string());
    let fresh = SubmitRequest::new("fresh", TopologySpec::new("complete", 32), "push", 4);
    let result = client.submit(&fresh).expect("fresh session served");
    assert_eq!(result.taxonomy.completed, 4);

    // The dead session's threads unwind (bounded by the reader's read
    // timeout), leaving no leaked open session.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = handle.status();
        if status.open_sessions == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead session leaked: {} still open",
            status.open_sessions
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The orphaned job itself finished server-side; its result is
    // resumable by a new session from the cache.
    let deadline = Instant::now() + Duration::from_secs(30);
    let replay = loop {
        match client.submit(&victim) {
            Ok(replay) => break replay,
            Err(e) => assert!(Instant::now() < deadline, "victim job lost: {e:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(replay.taxonomy.completed, 20);

    client.drain().expect("drain");
    join.join().unwrap();
}
