//! Session thread budget: one connection holds exactly two threads — its
//! reader and its writer — however many jobs it streams, because jobs push
//! their lines straight into the session's outbox. The test has a binary
//! of its own, so no test running in parallel changes the process's thread
//! count while it measures.

/// Threads in this process right now.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_session_streaming_32_jobs_adds_only_its_reader_and_writer() {
    use rumor_experiments::{ServeConfig, Server, SubmitRequest, TopologySpec};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let config = ServeConfig {
        throttle_ms: 50, // keep every job in flight while the count is taken
        ..ServeConfig::new().with_workers(2)
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve"));
    let before = thread_count();

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    for seed in 0..32u64 {
        let mut request =
            SubmitRequest::new("threads", TopologySpec::new("complete", 32), "push", 8);
        request.seed = seed; // distinct digests: 32 jobs, no cache hits
        writeln!(writer, "{}", request.to_line()).expect("submit");
    }
    let mut reader = BufReader::new(stream);
    let mut accepted = 0;
    while accepted < 32 {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "session closed"
        );
        if line.contains("\"type\":\"accepted\"") {
            accepted += 1;
        } else {
            assert!(line.contains("\"type\":\"trial\""), "unexpected: {line}");
        }
    }

    let added = thread_count().saturating_sub(before);
    assert!(
        added <= 2,
        "one session streaming 32 jobs added {added} threads; expected its reader and writer only"
    );

    drop(reader);
    drop(writer);
    handle.drain();
    join.join().expect("server thread");
}
