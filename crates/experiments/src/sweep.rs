//! Size-sweep machinery shared by all experiments: run several protocols over
//! a grid of graphs, summarize broadcast times, fit growth laws, and render
//! tables.

use rumor_analysis::{best_law, fit_power_law, format_value, Summary, Table};
use rumor_core::{AgentConfig, ProtocolKind, ProtocolOptions, SimulationSpec};
use rumor_graphs::{Graph, VertexId};

use crate::config::ExperimentConfig;
use crate::runner::{run_trials_guarded, TrialOutcome, TrialPolicy, TrialTaxonomy};

/// One protocol entry of a sweep: which protocol, with which agent
/// configuration, under which display label.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSetup {
    /// Display label (defaults to the protocol name).
    pub label: String,
    /// Protocol to run.
    pub kind: ProtocolKind,
    /// Agent configuration (ignored by vertex-only protocols).
    pub agents: AgentConfig,
}

impl ProtocolSetup {
    /// A setup with the paper's default agent configuration.
    pub fn new(kind: ProtocolKind) -> Self {
        ProtocolSetup {
            label: kind.name().to_string(),
            kind,
            agents: AgentConfig::default(),
        }
    }

    /// A setup with lazy agent walks (for bipartite graphs, as in the paper).
    pub fn lazy(kind: ProtocolKind) -> Self {
        ProtocolSetup {
            label: kind.name().to_string(),
            kind,
            agents: AgentConfig::default().lazy(),
        }
    }

    /// Replaces the display label.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Replaces the agent configuration.
    pub fn with_agents(mut self, agents: AgentConfig) -> Self {
        self.agents = agents;
        self
    }
}

/// One graph instance of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The graph.
    pub graph: Graph,
    /// The rumor source.
    pub source: VertexId,
    /// Row label (defaults to `n`).
    pub label: String,
}

impl SweepPoint {
    /// Creates a point labelled by the vertex count.
    pub fn new(graph: Graph, source: VertexId) -> Self {
        let label = graph.num_vertices().to_string();
        SweepPoint {
            graph,
            source,
            label,
        }
    }

    /// Creates a point with an explicit row label.
    pub fn labelled(graph: Graph, source: VertexId, label: &str) -> Self {
        SweepPoint {
            graph,
            source,
            label: label.to_string(),
        }
    }
}

/// A full sweep: a size grid × a set of protocols × a trial count.
#[derive(Debug, Clone)]
pub struct ScalingSweep {
    /// Graph instances in increasing size order.
    pub points: Vec<SweepPoint>,
    /// Protocols to compare.
    pub protocols: Vec<ProtocolSetup>,
    /// Trials per (point, protocol) cell.
    pub trials: usize,
    /// Round cap per trial.
    pub max_rounds: u64,
}

impl ScalingSweep {
    /// Runs every cell and produces a [`SweepResult`]: this is
    /// [`ScalingSweep::run_guarded`] with no retry, no budget and no
    /// manifest.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no points, no protocols, or zero trials, or
    /// if any trial panics (with the first panicked cell's message).
    pub fn run(&self, config: &ExperimentConfig) -> SweepResult {
        let no_retry = TrialPolicy {
            max_retries: 0,
            ..TrialPolicy::new()
        };
        let result = self.run_guarded(config, &no_retry, None);
        let mut notes = result.measurements.iter().flat_map(|m| &m.panic_notes);
        if let Some(note) = notes.find_map(Option::as_ref) {
            panic!("a sweep trial panicked: {note}");
        }
        result
    }

    /// Fault-tolerant variant of [`ScalingSweep::run`]: every cell runs
    /// through [`run_trials_guarded`] under `policy`, so panicking or
    /// budget-exceeding trials degrade the cell's taxonomy instead of
    /// aborting the sweep. With `manifest_dir` set, each cell maintains a
    /// spec-keyed manifest file there (`cell-<point>-<protocol>.rman`) and a
    /// re-run of the same sweep resumes from the completed trials.
    ///
    /// Trials that finish are bit-identical under every policy (a retry
    /// replays the same seed; budgets only stop trials); a timed-out trial
    /// contributes its suspension round to the summary
    /// (the truncated-mean convention), panicked and not-run trials
    /// contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no points, no protocols, or zero trials.
    pub fn run_guarded(
        &self,
        config: &ExperimentConfig,
        policy: &TrialPolicy,
        manifest_dir: Option<&std::path::Path>,
    ) -> SweepResult {
        assert!(!self.points.is_empty(), "sweep needs at least one point");
        assert!(
            !self.protocols.is_empty(),
            "sweep needs at least one protocol"
        );
        assert!(self.trials > 0, "sweep needs at least one trial");
        if let Some(dir) = manifest_dir {
            std::fs::create_dir_all(dir).expect("manifest directory");
        }
        let mut measurements = Vec::with_capacity(self.points.len());
        for (point_idx, point) in self.points.iter().enumerate() {
            let mut summaries = Vec::with_capacity(self.protocols.len());
            let mut truncated = Vec::with_capacity(self.protocols.len());
            let mut taxonomy = Vec::with_capacity(self.protocols.len());
            let mut panic_notes = Vec::with_capacity(self.protocols.len());
            for proto_idx in 0..self.protocols.len() {
                let spec = self.cell_spec(point_idx, proto_idx, config);
                let manifest_path =
                    manifest_dir.map(|dir| dir.join(format!("cell-{point_idx}-{proto_idx}.rman")));
                let guarded = run_trials_guarded(
                    &point.graph,
                    point.source,
                    &spec,
                    self.trials,
                    config,
                    policy,
                    manifest_path.as_deref(),
                );
                let times: Vec<u64> = guarded
                    .outcomes
                    .iter()
                    .filter_map(|trial| Some(trial.counts()?.0))
                    .collect();
                let tax = guarded.taxonomy();
                truncated.push(tax.round_capped);
                taxonomy.push(tax);
                panic_notes.push(guarded.outcomes.iter().find_map(|trial| match trial {
                    TrialOutcome::Panicked { message, .. } => Some(message.clone()),
                    _ => None,
                }));
                // A cell where no trial produced a time (all panicked or
                // not-run) still needs a row; the taxonomy annotation marks
                // it as vacuous.
                summaries.push(Summary::of_u64(if times.is_empty() {
                    &[0]
                } else {
                    &times
                }));
            }
            measurements.push(SweepMeasurement {
                n: point.graph.num_vertices(),
                label: point.label.clone(),
                summaries,
                truncated,
                taxonomy,
                panic_notes,
            });
        }
        SweepResult {
            protocols: self.protocols.iter().map(|p| p.label.clone()).collect(),
            measurements,
        }
    }

    /// The spec of one sweep cell: `config.seed` offset by the point and
    /// protocol indices.
    fn cell_spec(
        &self,
        point_idx: usize,
        proto_idx: usize,
        config: &ExperimentConfig,
    ) -> SimulationSpec {
        let setup = &self.protocols[proto_idx];
        let point = &self.points[point_idx];
        // `adapted_to` applies the paper's bipartite remedy (lazy walks for
        // meet-exchange), so a sweep can never stall on a parity-trapped
        // instance.
        SimulationSpec::new(setup.kind)
            .with_agents(setup.agents.clone())
            .with_options(ProtocolOptions::none())
            .with_max_rounds(self.max_rounds)
            .with_seed(
                config
                    .seed
                    .wrapping_add((point_idx as u64) << 32)
                    .wrapping_add((proto_idx as u64) << 16),
            )
            .adapted_to(&point.graph)
    }
}

/// Truncates a panic payload to at most `max` bytes on a char boundary,
/// appending an ellipsis when anything was cut.
fn truncate(message: &str, max: usize) -> String {
    if message.len() <= max {
        return message.to_string();
    }
    let mut end = max;
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &message[..end])
}

/// Measurements for a single sweep point (one graph size).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMeasurement {
    /// Number of vertices of the point's graph.
    pub n: usize,
    /// Row label.
    pub label: String,
    /// Broadcast-time summary per protocol (same order as
    /// [`SweepResult::protocols`]).
    pub summaries: Vec<Summary>,
    /// Number of truncated (round-capped) trials per protocol.
    pub truncated: Vec<usize>,
    /// Full outcome taxonomy per protocol (degenerate — all trials
    /// completed or round-capped — for sweeps run without a
    /// [`TrialPolicy`]).
    pub taxonomy: Vec<TrialTaxonomy>,
    /// First captured panic payload per protocol, if any trial of the cell
    /// panicked (always `None` for sweeps run without a [`TrialPolicy`]).
    pub panic_notes: Vec<Option<String>>,
}

/// The outcome of a [`ScalingSweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Protocol labels, in column order.
    pub protocols: Vec<String>,
    /// One measurement per sweep point, in row order.
    pub measurements: Vec<SweepMeasurement>,
}

impl SweepResult {
    /// Index of a protocol label.
    ///
    /// # Panics
    ///
    /// Panics if the label is unknown.
    fn protocol_index(&self, label: &str) -> usize {
        self.protocols
            .iter()
            .position(|p| p == label)
            .unwrap_or_else(|| panic!("unknown protocol label {label:?}"))
    }

    /// `(n, mean broadcast time)` pairs for one protocol — the input to the
    /// growth-law fits.
    pub fn scaling_points(&self, label: &str) -> Vec<(f64, f64)> {
        let idx = self.protocol_index(label);
        self.measurements
            .iter()
            .map(|m| (m.n as f64, m.summaries[idx].mean.max(1e-9)))
            .collect()
    }

    /// The summary of one cell.
    pub fn summary(&self, label: &str, point: usize) -> &Summary {
        &self.measurements[point].summaries[self.protocol_index(label)]
    }

    /// Mean broadcast-time ratio `a / b` at the largest sweep point.
    pub fn final_ratio(&self, a: &str, b: &str) -> f64 {
        let last = self.measurements.last().expect("non-empty sweep");
        let ia = self.protocol_index(a);
        let ib = self.protocol_index(b);
        last.summaries[ia].mean / last.summaries[ib].mean.max(1e-9)
    }

    /// Table of mean broadcast times (± 95% CI half-width) per size and
    /// protocol.
    pub fn times_table(&self, title: &str) -> Table {
        let mut headers: Vec<String> = vec!["n".to_string()];
        headers.extend(self.protocols.iter().cloned());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(title, &header_refs);
        for m in &self.measurements {
            let mut row = vec![m.label.clone()];
            for (i, s) in m.summaries.iter().enumerate() {
                let mut cell = format!(
                    "{} ±{}",
                    format_value(s.mean),
                    format_value(s.ci95_half_width())
                );
                if m.truncated[i] > 0 {
                    cell.push_str(&format!(" ({} capped)", m.truncated[i]));
                }
                let tax = &m.taxonomy[i];
                for (count, label) in [
                    (tax.timed_out, "timed out"),
                    (tax.panicked, "panicked"),
                    (tax.not_run, "not run"),
                ] {
                    if count > 0 {
                        if label == "panicked" {
                            // Surface the captured payload so the table (and
                            // any server error response built from it) names
                            // the cause, not just the count.
                            let note = m.panic_notes[i].as_deref().unwrap_or("no message");
                            cell.push_str(&format!(" ({count} {label}: {})", truncate(note, 60)));
                        } else {
                            cell.push_str(&format!(" ({count} {label})"));
                        }
                    }
                }
                row.push(cell);
            }
            table.push_row(&row);
        }
        table
    }

    /// Table of fitted growth exponents and best-fitting laws per protocol.
    pub fn fits_table(&self, title: &str) -> Table {
        let mut table = Table::new(
            title,
            &[
                "protocol",
                "empirical exponent",
                "best-fit law",
                "rms residual",
            ],
        );
        for label in &self.protocols {
            let points = self.scaling_points(label);
            if points.len() < 2 {
                table.push_row(&[label.as_str(), "n/a", "n/a", "n/a"]);
                continue;
            }
            let power = fit_power_law(&points);
            let best = best_law(&points);
            table.push_row(&[
                label.as_str(),
                &format!("{:.3}", power.exponent),
                best.law.name(),
                &format!("{:.3}", best.rms_relative_error),
            ]);
        }
        table
    }

    /// Table of the mean-time ratio between two protocols at every size.
    pub fn ratio_table(&self, title: &str, numerator: &str, denominator: &str) -> Table {
        let ia = self.protocol_index(numerator);
        let ib = self.protocol_index(denominator);
        let mut table = Table::new(title, &["n", &format!("{numerator} / {denominator}")]);
        for m in &self.measurements {
            let ratio = m.summaries[ia].mean / m.summaries[ib].mean.max(1e-9);
            table.push_row(&[m.label.clone(), format!("{ratio:.2}")]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graphs::generators::star;

    fn small_sweep() -> ScalingSweep {
        ScalingSweep {
            points: vec![
                SweepPoint::new(star(15).unwrap(), 0),
                SweepPoint::new(star(31).unwrap(), 0),
            ],
            protocols: vec![
                ProtocolSetup::new(ProtocolKind::Push),
                ProtocolSetup::lazy(ProtocolKind::VisitExchange).with_label("visitx"),
            ],
            trials: 4,
            max_rounds: 100_000,
        }
    }

    #[test]
    fn sweep_produces_expected_shape() {
        let result = small_sweep().run(&ExperimentConfig::smoke());
        assert_eq!(
            result.protocols,
            vec!["push".to_string(), "visitx".to_string()]
        );
        assert_eq!(result.measurements.len(), 2);
        assert_eq!(result.measurements[0].summaries.len(), 2);
        assert_eq!(result.measurements[0].n, 16);
        assert_eq!(result.measurements[1].n, 32);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = small_sweep().run(&ExperimentConfig::smoke());
        let b = small_sweep().run(&ExperimentConfig::smoke());
        assert_eq!(a, b);
    }

    #[test]
    fn tables_render() {
        let result = small_sweep().run(&ExperimentConfig::smoke());
        let times = result.times_table("Times");
        assert_eq!(times.num_rows(), 2);
        assert_eq!(times.num_columns(), 3);
        let fits = result.fits_table("Fits");
        assert_eq!(fits.num_rows(), 2);
        let ratios = result.ratio_table("Ratio", "push", "visitx");
        assert_eq!(ratios.num_rows(), 2);
    }

    #[test]
    fn scaling_points_and_ratio() {
        let result = small_sweep().run(&ExperimentConfig::smoke());
        let pts = result.scaling_points("push");
        assert_eq!(pts.len(), 2);
        assert!(pts[0].1 > 0.0);
        assert!(result.final_ratio("push", "visitx") > 0.0);
        assert!(result.summary("push", 0).mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown protocol label")]
    fn unknown_label_panics() {
        let result = small_sweep().run(&ExperimentConfig::smoke());
        let _ = result.scaling_points("pull");
    }

    #[test]
    #[should_panic(expected = "a sweep trial panicked: invalid simulation spec")]
    fn run_panics_with_a_panicked_trial_message() {
        let sweep = ScalingSweep {
            points: vec![SweepPoint::new(Graph::from_edges(4, &[]).unwrap(), 0)],
            protocols: vec![ProtocolSetup::new(ProtocolKind::VisitExchange)],
            trials: 2,
            max_rounds: 10,
        };
        let _ = sweep.run(&ExperimentConfig::smoke());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_sweep_panics() {
        let sweep = ScalingSweep {
            points: vec![],
            protocols: vec![ProtocolSetup::new(ProtocolKind::Push)],
            trials: 1,
            max_rounds: 10,
        };
        let _ = sweep.run(&ExperimentConfig::smoke());
    }
}
