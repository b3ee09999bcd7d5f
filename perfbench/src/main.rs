//! The rumor workspace benchmark: one command runs a named workload with a
//! seed, checks its outputs, and prints its end-to-end metrics (or, with
//! `--trace 1`, its per-layer table). See `README.md` beside this crate.
//!
//! ```text
//! rumor-perfbench --workload paper-sweep --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every workload drives only public functions of the library crates and
//! times each layer from outside, at the calls it makes into that layer.

mod chunglu;
mod layers;
mod paper;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use trace::Trace;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["paper-sweep", "chunglu-hub", "serve-sweep"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: its counts, its outcome digest, its
/// end-to-end metrics, and (traced runs only) its per-layer metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Output-check failures, one line each; any entry makes the run fail.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a-64 over every checked outcome, in a fixed order.
    pub digest: u64,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl Report {
    /// Records the end-to-end metrics every workload reports, given its
    /// `(job_ms_p50, job_ms_p99)`; `completed_frac` (1 − failed ÷
    /// attempted) comes from the counts already recorded.
    pub fn summarize(&mut self, trials_per_s: f64, jobs: (f64, f64), setup_s: f64, rss_mb: f64) {
        let completed = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        for (name, value, unit) in [
            ("trials_per_s", trials_per_s, "1/s"),
            ("job_ms_p50", jobs.0, "ms"),
            ("job_ms_p99", jobs.1, "ms"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss_mb, "MB"),
            ("completed_frac", completed, "frac"),
        ] {
            self.end_to_end.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        }
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rumor-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let calib_ms = host_calibration_ms();
    let out_dir = out_dir();
    let mut trace = Trace::new(args.trace);
    let mut report = match args.workload.as_str() {
        "paper-sweep" => paper::run(&args, &mut trace, &out_dir),
        "chunglu-hub" => chunglu::run(&args, &mut trace),
        "serve-sweep" => serve::run(&args, &mut trace, &out_dir),
        _ => unreachable!("workload validated in parse_args"),
    };
    report.layer("host.calib_ms", calib_ms, "ms");

    println!(
        "workload {} seed {} digest {:016x}",
        args.workload, args.seed, report.digest
    );
    println!("host.calib_ms {calib_ms:.4}");
    for m in &report.end_to_end {
        println!("e2e {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = report.errors.is_empty();
    let metrics = if args.trace {
        let stem = out_dir.join(format!("{}-seed{}", args.workload, args.seed));
        let spans = stem.with_extension("spans.jsonl");
        let table = stem.with_extension("layers.md");
        if let Err(e) = trace.write_spans(&spans) {
            eprintln!("rumor-perfbench: writing {}: {e}", spans.display());
            std::process::exit(1);
        }
        let text = layers::render_table(&args, &report, trace.self_times());
        if let Err(e) = std::fs::write(&table, &text) {
            eprintln!("rumor-perfbench: writing {}: {e}", table.display());
            std::process::exit(1);
        }
        print!("{text}");
        println!("spans {} table {}", spans.display(), table.display());
        &report.layers
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A finite JSON number with all its digits (non-finite values become 0,
/// which the output checks never produce for a measured time).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Scratch and trace output directory inside the checkout.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("rumor-perfbench: creating {}: {e}", dir.display());
        std::process::exit(1);
    }
    dir
}

/// Time of a fixed integer loop, median of five: a record of how fast the
/// host ran during this run, so host drift can be told apart from program
/// changes. Recorded only; never used to scale another metric.
fn host_calibration_ms() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000_000u64 {
                x = x.rotate_left(7) ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(p50, p99)` of one latency per job, by the nearest-rank rule.
pub fn job_percentiles(jobs_ms: &mut [f64]) -> (f64, f64) {
    (quantile(jobs_ms, 0.5), quantile(jobs_ms, 0.99))
}

/// The `q`-quantile of `v` (sorted in place) by the nearest-rank rule.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a-64 accumulator for outcome digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn outcome(&mut self, o: &rumor_core::BroadcastOutcome) {
        self.bytes(o.protocol.as_bytes());
        self.u64(o.rounds);
        self.u64(u64::from(o.completed));
        self.u64(o.informed_vertices as u64);
        self.u64(o.informed_agents as u64);
        self.u64(o.total_messages);
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
