//! Command-line experiment runner.
//!
//! ```text
//! Usage: rumor-experiments [OPTIONS] [EXPERIMENT-ID ...]
//!
//! Options:
//!   --scale <smoke|default|paper>   size/trial preset (default: default)
//!   --seed <u64>                    base RNG seed (default: 0)
//!   --threads <N>                   worker threads (default: all cores)
//!   --markdown                      emit Markdown instead of plain text
//!   --list                          list experiment ids and exit
//!   --help                          show this help
//!
//! With no experiment ids, every registered experiment is run in order.
//! ```
//!
//! A second mode backs the kill-and-resume integration test (and doubles as
//! a recovery harness for long interactive runs):
//!
//! ```text
//! Usage: rumor-experiments checkpoint-run --dir <DIR> [OPTIONS]
//!
//! Options:
//!   --n <N>              G(n, p) instance size (default: 100000)
//!   --seed <u64>         spec + topology seed (default: 0)
//!   --cadence <K>        checkpoint every K rounds (default: 2)
//!   --throttle-ms <T>    sleep T ms inside each checkpoint (default: 0)
//!   --max-rounds <R>     round cap (default: 1000000)
//!   --resume             continue from the newest valid checkpoint in DIR
//! ```
//!
//! Each checkpoint is written atomically into DIR and announced on stdout
//! as `ckpt <round>`; the final line is
//! `result rounds=<r> messages=<m> informed=<v> completed=<0|1>`. The
//! `RUMOR_KILL_AT_ROUND` environment variable hard-kills the process
//! (after persisting the snapshot) once that round is reached — the
//! fault-injection hook the test-suite drives from a child process.

use std::process::ExitCode;

use rumor_experiments::{all_experiment_ids, run_experiment, ExperimentConfig, FaultPlan, Scale};

struct CliOptions {
    scale: Scale,
    seed: u64,
    threads: usize,
    markdown: bool,
    list: bool,
    experiments: Vec<String>,
}

fn usage() -> &'static str {
    "Usage: rumor-experiments [--scale smoke|default|paper] [--seed N] [--threads N] \
     [--markdown] [--list] [EXPERIMENT-ID ...]"
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut options = CliOptions {
        scale: Scale::Default,
        seed: 0,
        threads: 0,
        markdown: false,
        list: false,
        experiments: Vec::new(),
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale requires a value")?;
                options.scale =
                    Scale::from_name(value).ok_or_else(|| format!("unknown scale {value:?}"))?;
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed requires a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed {value:?}"))?;
            }
            "--threads" => {
                let value = iter.next().ok_or("--threads requires a value")?;
                options.threads = value
                    .parse()
                    .map_err(|_| format!("invalid thread count {value:?}"))?;
            }
            "--markdown" => options.markdown = true,
            "--list" => options.list = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => options.experiments.push(other.to_string()),
        }
    }
    Ok(options)
}

/// The `checkpoint-run` subcommand: one resumable push broadcast on a
/// generated G(n, p) instance, checkpointing into `--dir`.
fn checkpoint_run(args: &[String]) -> Result<(), String> {
    use rumor_core::{
        resume_in, simulate_resumable_in, CheckpointCadence, ProtocolKind, ResumableRun,
        SimSnapshot, SimWorkspace, SimulationSpec,
    };
    use rumor_graphs::GeneratedGraph;

    let mut dir = None;
    let mut n = 100_000usize;
    let mut seed = 0u64;
    let mut cadence = 2u64;
    let mut throttle_ms = 0u64;
    let mut max_rounds = 1_000_000u64;
    let mut resume = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--dir" => dir = Some(std::path::PathBuf::from(value("--dir")?)),
            "--n" => n = value("--n")?.parse().map_err(|_| "invalid --n")?,
            "--seed" => seed = value("--seed")?.parse().map_err(|_| "invalid --seed")?,
            "--cadence" => {
                cadence = value("--cadence")?
                    .parse()
                    .map_err(|_| "invalid --cadence")?;
            }
            "--throttle-ms" => {
                throttle_ms = value("--throttle-ms")?
                    .parse()
                    .map_err(|_| "invalid --throttle-ms")?;
            }
            "--max-rounds" => {
                max_rounds = value("--max-rounds")?
                    .parse()
                    .map_err(|_| "invalid --max-rounds")?;
            }
            "--resume" => resume = true,
            other => return Err(format!("unknown checkpoint-run option {other}")),
        }
    }
    let dir = dir.ok_or("checkpoint-run requires --dir")?;
    let fault = FaultPlan::from_env();

    let graph = GeneratedGraph::gnp_with_mean_degree(n, 14.0, seed)
        .map_err(|e| format!("topology: {e}"))?;
    let spec = SimulationSpec::new(ProtocolKind::Push)
        .with_seed(seed)
        .with_max_rounds(max_rounds);
    let mut sink = |snapshot: &SimSnapshot| {
        snapshot
            .write_atomic(&dir)
            .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
        println!("ckpt {}", snapshot.round());
        if fault
            .kill_at_round
            .is_some_and(|round| snapshot.round() >= round)
        {
            std::process::abort();
        }
        if throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(throttle_ms));
        }
        true
    };
    let run = if resume {
        let snapshot = SimSnapshot::load_newest(&dir)
            .map_err(|e| format!("loading checkpoints: {e}"))?
            .ok_or("no valid checkpoint to resume from")?;
        println!("resumed {}", snapshot.round());
        resume_in(
            &graph,
            0,
            &spec,
            &snapshot,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(cadence),
            &mut sink,
        )
        .map_err(|e| format!("resume rejected: {e}"))?
    } else {
        simulate_resumable_in(
            &graph,
            0,
            &spec,
            &mut SimWorkspace::new(),
            CheckpointCadence::every_rounds(cadence),
            &mut sink,
        )
    };
    let outcome = match run {
        ResumableRun::Finished(outcome) => outcome,
        ResumableRun::Suspended(_) => unreachable!("sink never suspends"),
    };
    println!(
        "result rounds={} messages={} informed={} completed={}",
        outcome.rounds,
        outcome.total_messages,
        outcome.informed_vertices,
        u8::from(outcome.completed)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("checkpoint-run") {
        return match checkpoint_run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if options.list {
        for id in all_experiment_ids() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let config = ExperimentConfig::new(options.scale)
        .with_seed(options.seed)
        .with_threads(options.threads);

    let ids: Vec<String> = if options.experiments.is_empty() {
        all_experiment_ids()
            .into_iter()
            .map(str::to_string)
            .collect()
    } else {
        options.experiments.clone()
    };

    let mut failed = false;
    for id in &ids {
        match run_experiment(id, &config) {
            Some(report) => {
                if options.markdown {
                    println!("{}", report.to_markdown());
                } else {
                    println!("{}", report.to_plain_text());
                }
            }
            None => {
                eprintln!("unknown experiment id {id:?}; use --list to see the available ids");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
