//! `chunglu-hub`: large single broadcasts on a heavy-tailed Chung–Lu graph
//! behind a partial hub cache (a quarter of the CSR-equivalent bytes),
//! alternating meet-exchange (16-round cap) and push-pull (64-round cap;
//! it stalls at quiescence) on the sharded engine with two threads.
//! Hashed and hub neighbor resolution, Philox and the sharded engine do
//! the work here; they are idle in `paper-sweep`.
//!
//! A "job" is one pass: one trial of each protocol, the same seeds every
//! pass, so every pass must reproduce the first bit for bit.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rumor_core::{simulate_on, BroadcastOutcome, ProtocolKind, SimulationSpec};
use rumor_experiments::{SubmitRequest, TopologySpec};
use rumor_graphs::{GeneratedGraph, HubCacheBuilder, HubCachedGraph};
use rumor_walks::{MultiWalk, Placement, WalkConfig};

use crate::layers::{self, Sample};
use crate::{job_percentiles, median, mix, peak_rss_mb, secs, Args, Digest, Report, Trace};

const N: usize = 200_000;
const EXPONENT: f64 = 2.5;
const MEAN_DEGREE: f64 = 12.0;
const THREADS: usize = 2;
const SETUPS: usize = 3;
const MIN_PASSES: usize = 3;
const SOURCE: usize = 0;
/// Rounds of replayed agent positions behind `graphs.hub_hit_frac`.
const HIT_ROUNDS: usize = 4;

fn specs(seed: u64) -> [SimulationSpec; 2] {
    [
        SimulationSpec::new(ProtocolKind::MeetExchange)
            .with_seed(mix(seed, 10))
            .with_max_rounds(16)
            .with_sharded(THREADS),
        SimulationSpec::new(ProtocolKind::PushPull)
            .with_seed(mix(seed, 11))
            .with_max_rounds(64)
            .with_sharded(THREADS),
    ]
}

pub fn run(args: &Args, trace: &mut Trace) -> Report {
    let mut report = Report::default();

    // Set-up: generate the graph and build the hub cache through the
    // budget API, several times; keep the last.
    let (mut setups, mut builds, mut hub_builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut hub: Option<HubCachedGraph> = None;
    for i in 0..SETUPS {
        drop(hub.take());
        let t = Instant::now();
        let span = trace.begin("graphs.build", i as u64);
        let generated = GeneratedGraph::chung_lu(N, EXPONENT, MEAN_DEGREE, args.seed)
            .expect("chung-lu parameters are valid");
        trace.end(span);
        builds.push(secs(t));
        let t_hub = Instant::now();
        let span = trace.begin("graphs.hub_build", i as u64);
        let budget = generated.csr_equivalent_bytes() / 4;
        hub = Some(
            HubCacheBuilder::new()
                .cache_budget_bytes(budget)
                .build(generated),
        );
        trace.end(span);
        hub_builds.push(secs(t_hub));
        setups.push(secs(t));
    }
    let hub = hub.expect("at least one set-up");
    let specs = specs(args.seed);

    let mut reference: Vec<BroadcastOutcome> = Vec::new();
    let (mut traced_s, mut untraced_s, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut trial_ms = [Vec::new(), Vec::new()];
    let mut core_s = 0.0;
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_PASSES || start.elapsed() < args.window {
        let traced = trace.enabled() && pass.is_multiple_of(2);
        trace.pause(!traced);
        let t = Instant::now();
        for (k, spec) in specs.iter().enumerate() {
            let span = trace.begin("core.simulate_on", (2 * pass + k) as u64);
            let t_trial = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simulate_on(&hub, SOURCE, spec)
            }));
            let ms = secs(t_trial) * 1e3;
            trace.end(span);
            trial_ms[k].push(ms);
            if traced {
                core_s += ms / 1e3;
            }
            report.attempted += 1;
            match result {
                Ok(o) if pass == 0 => reference.push(o),
                Ok(o) => report.check(reference[k] == o, || {
                    format!("pass {pass} {} differs from pass 0", spec.kind)
                }),
                Err(_) => {
                    report.failed += 1;
                    report
                        .errors
                        .push(format!("pass {pass} {} panicked", spec.kind));
                }
            }
        }
        let s = secs(t);
        pass_s.push(s);
        if traced {
            traced_s.push(s)
        } else {
            untraced_s.push(s)
        }
        pass += 1;
    }
    trace.pause(false);
    let rss = peak_rss_mb();

    // Output checks, after the memory reading: every trial is bit-identical
    // to the same spec on the materialized CSR (the backend contract).
    let csr = hub.inner().materialize().expect("materialize");
    let mut digest = Digest::default();
    for (spec, live) in specs.iter().zip(&reference) {
        digest.outcome(live);
        let reference_run = simulate_on(&csr, SOURCE, spec);
        report.check(&reference_run == live, || {
            format!("{}: hub-cached run differs from CSR", spec.kind)
        });
    }
    if reference.len() < specs.len() {
        report
            .errors
            .push("pass 0 did not finish every trial".to_string());
    }
    report.digest = digest.0;

    // Gates: the cache is partial, and real agent positions miss it. The
    // positions come from a stationary walk replayed on the CSR, whose
    // draws are bit-identical to the hub-cached backend's.
    let mut rng = SmallRng::seed_from_u64(mix(args.seed, 12));
    let mut walk = MultiWalk::new(
        &csr,
        N,
        &Placement::Stationary,
        WalkConfig::simple(),
        &mut rng,
    );
    let mut positions = Vec::new();
    for _ in 0..HIT_ROUNDS {
        positions.extend_from_slice(walk.positions());
        walk.step(&csr, &mut rng);
    }
    let hits = positions
        .iter()
        .filter(|&&u| hub.is_hub(u as usize))
        .count();
    let hit_frac = hits as f64 / positions.len() as f64;
    report.check(hub.hub_count() < N, || {
        format!("hub cache holds every vertex ({})", hub.hub_count())
    });
    report.check(hit_frac < 1.0, || {
        "every replayed agent position is a hub".to_string()
    });
    report.check(hits > 0, || {
        "no replayed agent position is a hub".to_string()
    });

    let mut rates: Vec<f64> = pass_s.iter().map(|s| specs.len() as f64 / s).collect();
    let mut pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    let jobs = job_percentiles(&mut pass_ms);
    report.summarize(median(&mut rates), jobs, median(&mut setups), rss);

    if trace.enabled() {
        let window_s: f64 = traced_s.iter().sum();
        let traced_passes = traced_s.len() as f64;
        report.layer(
            "trace.overhead_frac",
            median(&mut traced_s) / median(&mut untraced_s) - 1.0,
            "frac",
        );
        report.layer("graphs.build_s", median(&mut builds), "s");
        report.layer("graphs.hub_build_s", median(&mut hub_builds), "s");
        report.layer("graphs.hub_count", hub.hub_count() as f64, "count");
        report.layer(
            "graphs.hub_cache_mb",
            hub.cache_bytes() as f64 / (1 << 20) as f64,
            "MB",
        );
        report.layer("graphs.hub_hit_frac", hit_frac, "frac");
        report.layer("graphs.hub_hit_frac_static", hub.hub_hit_fraction(), "frac");
        let (_, philox_ns) = layers::rand_ns(&mut report, args.seed);

        // Walks on the workload's backend (counter streams, one thread, as
        // the sharded engine steps them), and neighbor resolution on the
        // replayed positions through each backend's `nth_neighbor`.
        let walk = layers::replay_walks(&hub, N, 2, args.seed, true);
        report.layer("walks.step_ns", walk.step_ns, "ns");
        report.layer("walks.exchange_ns", walk.exchange_ns, "ns");
        let mut queries = layers::resolve_queries(&hub, &walk.positions);
        queries.truncate(100_000);
        let resolve_hub = layers::resolve_ns(&queries, |u, i| hub.nth_neighbor(u, i));
        report.layer(
            "graphs.resolve_ns.csr",
            layers::resolve_ns(&queries, |u, i| csr.neighbor(u, i)),
            "ns",
        );
        report.layer("graphs.resolve_ns.hub", resolve_hub, "ns");
        report.layer(
            "graphs.resolve_ns.generated",
            layers::resolve_ns(&queries, |u, i| hub.inner().nth_neighbor(u, i)),
            "ns",
        );

        // Core: live trial times (two threads), exact counts of one pass,
        // and the one-thread sharded vs sequential engine ratio on the
        // workload's own specs (meet-exchange capped at 2 rounds to bound
        // the replay's cost).
        for (k, spec) in specs.iter().enumerate() {
            let kind = spec.kind;
            report.layer(
                &format!("core.trial_ms.{kind}"),
                median(&mut trial_ms[k]),
                "ms",
            );
            let o = reference.get(k);
            report.layer(
                &format!("core.rounds.{kind}"),
                o.map_or(0.0, |o| o.rounds as f64),
                "count",
            );
            report.layer(
                &format!("core.messages.{kind}"),
                o.map_or(0.0, |o| o.total_messages as f64),
                "count",
            );
        }
        let samples = [
            Sample {
                graph: &hub,
                source: SOURCE,
                spec: specs[0].clone().with_max_rounds(2),
            },
            Sample {
                graph: &hub,
                source: SOURCE,
                spec: specs[1].clone(),
            },
        ];
        let engines = layers::replay_engines(&samples, 2);
        report.layer("core.sharded1_over_seq", engines.ratio(), "ratio");
        layers::codec(&mut report, &csr);
        let request = SubmitRequest::new(
            "chunglu-hub",
            TopologySpec::new("chung_lu_hub_cached", N)
                .with_degree(MEAN_DEGREE)
                .with_exponent(EXPONENT)
                .with_topology_seed(args.seed),
            "meet-exchange",
            1,
        );
        layers::wire(&mut report, &request, &reference);

        // Attribution over the traced passes: core spans; walks, hub
        // resolution and Philox by the meet-exchange trials' exact
        // agent-round counts, spread over the engine's threads.
        let agent_rounds =
            reference.first().map_or(0.0, |o| o.rounds as f64) * N as f64 * traced_passes
                / THREADS as f64;
        layers::attribute(
            &mut report,
            window_s,
            &[
                ("core", core_s, None),
                (
                    "walks",
                    agent_rounds * (walk.step_ns + walk.exchange_ns) * 1e-9,
                    Some("core"),
                ),
                ("graphs", agent_rounds * resolve_hub * 1e-9, Some("walks")),
                ("rand", agent_rounds * philox_ns * 1e-9, Some("walks")),
            ],
        );
    }
    report
}
