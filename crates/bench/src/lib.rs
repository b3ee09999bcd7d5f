//! Shared helpers for the benchmark binaries.
//!
//! The bench targets are perf-regression benches for the engine layers
//! (vertex frontiers, agent walks, the sharded engine, topology backends,
//! checkpointing, the sweep server); the *round counts* the paper talks
//! about are produced by the `rumor-experiments` binary. Each perf bench
//! records its numbers through [`summary`].

pub mod summary {
    //! Machine-readable bench summaries (`BENCH_*.json`).
    //!
    //! The perf-tracking benches append their mean times and speedup ratios
    //! to small JSON objects at the workspace root, so the perf trajectory
    //! is tracked from run to run without scraping console output. Seven
    //! files share **one schema** (see [`SUMMARY_FILES`]):
    //!
    //! * `BENCH_hot_path.json` — the vertex-protocol engine (`hot_path`);
    //! * `BENCH_walks.json` — the agent-walk engine (`agent_walks`);
    //! * `BENCH_parallel.json` — the sharded engine (`parallel_scaling`);
    //! * `BENCH_scale.json` — the implicit-topology / workspace-reuse scale
    //!   bench (`scale`): backend `memory_bytes` footprints and ratios,
    //!   giant-instance broadcast wall-clock, and sweep speedups;
    //! * `BENCH_random.json` — the generated random-topology bench
    //!   (`random_topologies`): G(n, p)/Chung–Lu construction and
    //!   broadcast wall-clock at 10⁶–10⁷ vertices, and generated-vs-CSR
    //!   memory ratios;
    //! * `BENCH_robust.json` — the fault-tolerance bench (`robustness`):
    //!   checkpoint overhead at the production cadence (≤ 5% enforced),
    //!   snapshot encode/decode cost, and the killed-sweep manifest
    //!   recovery fraction;
    //! * `BENCH_serve.json` — the sweep-server load generator (`serve`):
    //!   sustained trials/sec through the TCP stack, p99 submission
    //!   latency, the shed rate under a 2× overload burst, and the
    //!   recovered-work fraction across a drain/restart cycle (queue-depth
    //!   limits stamped alongside).
    //!
    //! Each file holds one entry per bench key, one per line; re-running a
    //! bench replaces its entry and leaves the others intact. Every entry
    //! written through [`record_summary_in`] carries host metadata —
    //! `host_logical_cores` (what the machine has) and `peak_rss_bytes`
    //! (high-water resident set of the bench process, the number behind the
    //! "10⁸ vertices under 4 GB" claim) — alongside whatever workload fields
    //! the bench reports (topology footprints go in `memory_bytes`-suffixed
    //! fields, thread counts in plain fields like `threads`); a summary
    //! number is meaningless without knowing how much hardware produced it.
    //! (The vendored `serde` is a no-op stand-in, so the format is written
    //! and merged with plain string handling here.)

    use std::fs;
    use std::path::PathBuf;

    /// The unified-schema summary documents, in reporting order.
    /// [`combine_summary_files`] merges whichever of them exist.
    pub const SUMMARY_FILES: [&str; 7] = [
        "BENCH_hot_path.json",
        "BENCH_walks.json",
        "BENCH_parallel.json",
        "BENCH_scale.json",
        "BENCH_random.json",
        "BENCH_robust.json",
        "BENCH_serve.json",
    ];

    /// High-water resident set size of this process in bytes (`VmHWM` from
    /// `/proc/self/status`), or 0 where unavailable. Stamped into every
    /// summary entry: memory claims (e.g. the 10⁸-vertex broadcast staying
    /// under 4 GB) are only auditable with the measured peak alongside.
    pub fn peak_rss_bytes() -> u64 {
        let Ok(status) = fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }

    /// Workspace-root location of a summary `file` (e.g.
    /// `"BENCH_parallel.json"`). Set `$RUMOR_BENCH_DIR` to redirect all
    /// summary files into another directory (e.g. a tmpdir in CI).
    pub fn bench_json_path(file: &str) -> PathBuf {
        std::env::var_os("RUMOR_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
            .join(file)
    }

    /// Parses a summary document into `(key, entry_json)` pairs.
    fn parse_entries(doc: &str) -> Vec<(String, String)> {
        let mut entries = Vec::new();
        for line in doc.lines() {
            let trimmed = line.trim();
            if let Some(rest) = trimmed.strip_prefix('"') {
                if let Some((k, v)) = rest.split_once("\": ") {
                    entries.push((k.to_string(), v.trim_end_matches(',').to_string()));
                }
            }
        }
        entries
    }

    /// Renders `(key, entry_json)` pairs as a summary document (sorted keys).
    fn render_entries(mut entries: Vec<(String, String)>) -> String {
        entries.sort();
        let mut out = String::from("{\n");
        for (i, (k, v)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            out.push_str(&format!("  \"{k}\": {v}{comma}\n"));
        }
        out.push('}');
        out.push('\n');
        out
    }

    /// Replaces (or appends) `key`'s entry in an existing summary document,
    /// returning the new document. Entries are kept sorted by key.
    pub fn merge_summary(existing: &str, key: &str, entry_json: &str) -> String {
        let mut entries = parse_entries(existing);
        entries.retain(|(k, _)| k != key);
        entries.push((key.to_string(), entry_json.to_string()));
        render_entries(entries)
    }

    /// Merges the [`SUMMARY_FILES`] that exist on disk (under
    /// `$RUMOR_BENCH_DIR` or the workspace root) into one document — the
    /// whole perf trajectory as a single object.
    pub fn combine_summary_files() -> String {
        let docs: Vec<String> = SUMMARY_FILES
            .iter()
            .filter_map(|file| fs::read_to_string(bench_json_path(file)).ok())
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        combine_documents(&refs)
    }

    /// Merges several summary documents into one (reporting convenience:
    /// all four `BENCH_*.json` files as a single object). Later documents
    /// win on duplicate keys; keys come out sorted.
    pub fn combine_documents(docs: &[&str]) -> String {
        let mut entries: Vec<(String, String)> = Vec::new();
        for doc in docs {
            for (k, v) in parse_entries(doc) {
                entries.retain(|(existing, _)| existing != &k);
                entries.push((k, v));
            }
        }
        render_entries(entries)
    }

    /// Records one bench's numeric fields under `key` in `file` (one of the
    /// [`SUMMARY_FILES`] names), merging with whatever the file already
    /// holds and stamping the unified schema's host metadata
    /// (`host_logical_cores` and `peak_rss_bytes`). Failures to write are
    /// reported, not fatal (benches must still run in read-only checkouts).
    pub fn record_summary_in(file: &str, key: &str, fields: &[(&str, f64)]) {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rss = peak_rss_bytes();
        let entry = format!(
            "{{{}, \"host_logical_cores\": {cores}, \"peak_rss_bytes\": {rss}}}",
            fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let path = bench_json_path(file);
        let existing = fs::read_to_string(&path).unwrap_or_default();
        let merged = merge_summary(&existing, key, &entry);
        match fs::write(&path, merged) {
            Ok(()) => println!("bench summary recorded in {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_merge_replaces_in_place_and_sorts() {
        let empty = summary::merge_summary("", "b_bench", "{\"speedup\": 10.0}");
        assert_eq!(empty, "{\n  \"b_bench\": {\"speedup\": 10.0}\n}\n");
        let two = summary::merge_summary(&empty, "a_bench", "{\"speedup\": 2.0}");
        assert_eq!(
            two,
            "{\n  \"a_bench\": {\"speedup\": 2.0},\n  \"b_bench\": {\"speedup\": 10.0}\n}\n"
        );
        let replaced = summary::merge_summary(&two, "b_bench", "{\"speedup\": 12.5}");
        assert!(replaced.contains("\"b_bench\": {\"speedup\": 12.5}"));
        assert!(replaced.contains("\"a_bench\": {\"speedup\": 2.0}"));
        assert_eq!(replaced.matches("b_bench").count(), 1);
        // Idempotent round-trip: merging the same entry again is a no-op.
        assert_eq!(
            summary::merge_summary(&replaced, "b_bench", "{\"speedup\": 12.5}"),
            replaced
        );
    }

    #[test]
    fn combine_documents_merges_all_three_bench_files() {
        // Representative contents of the three unified-schema files.
        let hot_path = summary::merge_summary(
            "",
            "hot_path_push",
            "{\"n\": 106079.0, \"speedup\": 103.7, \"host_logical_cores\": 1}",
        );
        let walks = summary::merge_summary(
            "",
            "agent_walks_meet_exchange",
            "{\"n\": 106079.0, \"speedup\": 7.2, \"host_logical_cores\": 1}",
        );
        let parallel = summary::merge_summary(
            "",
            "parallel_push",
            "{\"n\": 1000000.0, \"threads\": 4, \"host_logical_cores\": 1}",
        );
        let combined = summary::combine_documents(&[&hot_path, &walks, &parallel]);
        for key in [
            "hot_path_push",
            "agent_walks_meet_exchange",
            "parallel_push",
        ] {
            assert_eq!(combined.matches(key).count(), 1, "missing {key}");
        }
        // Sorted keys, one line each, object delimiters intact.
        let agent_pos = combined.find("agent_walks").unwrap();
        let hot_pos = combined.find("hot_path").unwrap();
        let par_pos = combined.find("parallel_push").unwrap();
        assert!(agent_pos < hot_pos && hot_pos < par_pos);
        assert!(combined.starts_with("{\n") && combined.ends_with("}\n"));
        // Later documents win on key conflicts.
        let override_doc = summary::merge_summary(
            "",
            "parallel_push",
            "{\"n\": 5.0, \"host_logical_cores\": 1}",
        );
        let overridden = summary::combine_documents(&[&parallel, &override_doc]);
        assert!(overridden.contains("\"n\": 5.0"));
        assert_eq!(overridden.matches("parallel_push").count(), 1);
    }

    #[test]
    fn summary_schema_lists_scale_random_robust_and_serve_as_first_class() {
        assert!(summary::SUMMARY_FILES.contains(&"BENCH_scale.json"));
        assert!(summary::SUMMARY_FILES.contains(&"BENCH_random.json"));
        assert!(summary::SUMMARY_FILES.contains(&"BENCH_robust.json"));
        assert!(summary::SUMMARY_FILES.contains(&"BENCH_serve.json"));
        assert_eq!(summary::SUMMARY_FILES.len(), 7);
    }

    #[test]
    fn combine_documents_accepts_serve_entries_with_queue_metadata() {
        let serve = summary::merge_summary(
            "",
            "serve_load_generator",
            "{\"sustained_trials_per_sec\": 1200.0, \"p99_submit_latency_ms\": 4.0, \
             \"shed_rate\": 0.4, \"recovered_fraction\": 0.5, \
             \"max_pending_trials\": 4096, \"max_pending_jobs\": 64, \
             \"host_logical_cores\": 1, \"peak_rss_bytes\": 1048576}",
        );
        let combined = summary::combine_documents(&[&serve]);
        assert!(combined.contains("\"sustained_trials_per_sec\": 1200.0"));
        assert!(combined.contains("\"max_pending_jobs\": 64"));
        assert_eq!(combined.matches("serve_load_generator").count(), 1);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = summary::peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0, "VmHWM must parse to a positive byte count");
            // Sanity: a test process holds at least a few hundred KiB and
            // (hopefully) less than a terabyte.
            assert!(rss > 100 * 1024 && rss < 1 << 40, "rss = {rss}");
        }
    }

    #[test]
    fn combine_documents_accepts_scale_entries_with_memory_fields() {
        let scale = summary::merge_summary(
            "",
            "scale_memory_cycle_of_stars",
            "{\"n\": 106079.0, \"csr_memory_bytes\": 2400000.0, \
             \"implicit_memory_bytes\": 40.0, \"memory_ratio\": 60000.0, \
             \"host_logical_cores\": 1, \"peak_rss_bytes\": 1048576}",
        );
        let hot = summary::merge_summary(
            "",
            "hot_path_push",
            "{\"speedup\": 100.0, \"host_logical_cores\": 1}",
        );
        let combined = summary::combine_documents(&[&hot, &scale]);
        assert!(combined.contains("scale_memory_cycle_of_stars"));
        assert!(combined.contains("\"memory_ratio\": 60000.0"));
        assert!(combined.contains("\"peak_rss_bytes\": 1048576"));
        assert!(combined.contains("hot_path_push"));
        // Four-file reporting order is stable (sorted keys).
        let scale_pos = combined.find("scale_memory").unwrap();
        let hot_pos = combined.find("hot_path_push").unwrap();
        assert!(hot_pos < scale_pos);
    }

    #[test]
    fn bench_json_path_honors_dir_override() {
        // Default: workspace root. (Only this test touches the env var, so
        // the set/remove pair cannot race another test.)
        let path = summary::bench_json_path("BENCH_parallel.json");
        assert!(path.ends_with("BENCH_parallel.json"));
        std::env::set_var("RUMOR_BENCH_DIR", "/tmp/rumor-bench-override");
        let overridden = summary::bench_json_path("BENCH_parallel.json");
        std::env::remove_var("RUMOR_BENCH_DIR");
        assert_eq!(
            overridden,
            std::path::Path::new("/tmp/rumor-bench-override").join("BENCH_parallel.json")
        );
    }
}
