//! The experiment registry.
//!
//! Every reproduced figure (and every ablation) is an [`Experiment`]: a
//! named, self-describing runner that produces a [`FigureOutput`] or a
//! typed [`calciom::Error`].
//! The [`Registry`] is the one place experiments are registered; the
//! `all_figures` binary, the per-figure binaries, the smoke tests and CI's
//! `list` step all go through it, so a new workload only has to be added
//! here to show up everywhere.

use crate::figures;
use crate::figures::FigureOutput;
use calciom::{Error, PolicySpec, SharingModel, Timeline, Trace};

/// A run flag that only some experiments read. `--quick` is not one: every
/// experiment reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--trace`.
    Trace,
    /// `--timeline`.
    Timeline,
    /// `--policy <spec>`.
    Policy,
    /// `--medium <label>`.
    Medium,
}

impl Flag {
    /// The flag as typed on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Flag::Trace => "--trace",
            Flag::Timeline => "--timeline",
            Flag::Policy => "--policy",
            Flag::Medium => "--medium",
        }
    }
}

/// How an experiment should be run, and which observability artifacts it
/// should attach to its output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Run the reduced CI parameter sweep instead of full resolution.
    pub quick: bool,
    /// Attach recorded [`Trace`]s for the experiment's key sessions
    /// (`--trace` on the CLI).
    pub trace: bool,
    /// Attach derived [`Timeline`]s (`--timeline` on the CLI).
    pub timeline: bool,
    /// Arbitration-policy spec texts from repeated `--policy <spec>`
    /// flags. Empty means "the experiment's own policy set"; experiments
    /// that compare policies (e.g. `fig14_policies`) restrict their sweep
    /// to these when given.
    pub policies: Vec<String>,
    /// Bandwidth-sharing medium override (`--medium <label>` on the
    /// CLI, e.g. `--medium fair-fast`). `None` means "the experiment's
    /// own default"; experiments over generated mixes (e.g.
    /// `fig14_policies`) run their sweep on the named medium when given.
    pub medium: Option<SharingModel>,
}

impl RunOptions {
    /// Options for a plain (unobserved) run.
    pub fn new(quick: bool) -> Self {
        RunOptions {
            quick,
            ..RunOptions::default()
        }
    }

    /// Requests trace attachments.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Requests timeline attachments.
    pub fn with_timeline(mut self) -> Self {
        self.timeline = true;
        self
    }

    /// Adds a policy spec text (the CLI's `--policy` flag).
    pub fn with_policy(mut self, spec: impl Into<String>) -> Self {
        self.policies.push(spec.into());
        self
    }

    /// Selects a bandwidth-sharing medium (the CLI's `--medium` flag).
    pub fn with_medium(mut self, medium: SharingModel) -> Self {
        self.medium = Some(medium);
        self
    }

    /// The experiment-specific flags these options set, in [`Flag`] order.
    pub fn flags(&self) -> Vec<Flag> {
        [
            (Flag::Trace, self.trace),
            (Flag::Timeline, self.timeline),
            (Flag::Policy, !self.policies.is_empty()),
            (Flag::Medium, self.medium.is_some()),
        ]
        .into_iter()
        .filter_map(|(flag, set)| set.then_some(flag))
        .collect()
    }

    /// Parses the collected `--policy` texts into [`PolicySpec`]s. A
    /// malformed spec is a typed configuration error.
    pub fn parsed_policies(&self) -> Result<Vec<PolicySpec>, Error> {
        self.policies
            .iter()
            .map(|text| Ok(PolicySpec::from_text(text)?))
            .collect()
    }
}

/// The result of one experiment run: the figure plus whatever
/// observability artifacts the [`RunOptions`] requested (and the
/// experiment supports — experiments without observable sessions return
/// the figure alone).
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// The rendered figure.
    pub figure: FigureOutput,
    /// Labelled traces of the experiment's key sessions.
    pub traces: Vec<(String, Trace)>,
    /// Labelled timelines of the experiment's key sessions.
    pub timelines: Vec<(String, Timeline)>,
}

impl ExperimentOutput {
    /// An output carrying only the figure.
    pub fn figure_only(figure: FigureOutput) -> Self {
        ExperimentOutput {
            figure,
            traces: Vec::new(),
            timelines: Vec::new(),
        }
    }
}

/// One named experiment: a figure of the paper or an ablation study.
pub trait Experiment: Sync {
    /// Stable identifier used to run the experiment by name
    /// (e.g. `"fig07_fcfs"`).
    fn name(&self) -> &'static str;

    /// One-line description shown by `all_figures list`.
    fn description(&self) -> &'static str;

    /// Executes the experiment. `quick` runs the reduced parameter sweep
    /// used in CI; `false` reproduces the figure at full resolution.
    fn run(&self, quick: bool) -> Result<FigureOutput, Error>;

    /// The flags beyond `--quick` that [`Experiment::run_with`] reads. The
    /// CLI rejects any other flag for this experiment.
    fn flags(&self) -> &'static [Flag] {
        &[]
    }

    /// Executes the experiment with observability options. The default
    /// delegates to [`Experiment::run`] and attaches nothing; experiments
    /// whose sessions are worth watching (e.g. `fig05_timeline`) override
    /// this to attach traces/timelines when asked.
    fn run_with(&self, opts: &RunOptions) -> Result<ExperimentOutput, Error> {
        Ok(ExperimentOutput::figure_only(self.run(opts.quick)?))
    }
}

/// The set of registered experiments, in paper order.
pub struct Registry {
    experiments: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            experiments: Vec::new(),
        }
    }

    /// The standard registry: the figure experiments reproduced from the
    /// paper (Figs. 1–12 and the Sec. II-B probability panel), the fig05
    /// bandwidth-timeline companion, the fig13 machine-level scale
    /// extension, and the three ablation studies, in paper order.
    pub fn standard() -> Self {
        let mut registry = Registry::new();
        registry.register(Box::new(figures::fig01::Fig01));
        registry.register(Box::new(figures::sec2b::Sec2b));
        registry.register(Box::new(figures::fig02::Fig02));
        registry.register(Box::new(figures::fig03::Fig03));
        registry.register(Box::new(figures::fig04::Fig04));
        registry.register(Box::new(figures::fig05::Fig05));
        registry.register(Box::new(figures::fig06::Fig06));
        registry.register(Box::new(figures::fig07::Fig07));
        registry.register(Box::new(figures::fig08::Fig08));
        registry.register(Box::new(figures::fig09::Fig09));
        registry.register(Box::new(figures::fig10::Fig10));
        registry.register(Box::new(figures::fig11::Fig11));
        registry.register(Box::new(figures::fig12::Fig12));
        registry.register(Box::new(figures::fig13::Fig13));
        registry.register(Box::new(figures::fig14::Fig14));
        registry.register(Box::new(figures::fig15::Fig15));
        registry.register(Box::new(figures::ablation::AblationGamma));
        registry.register(Box::new(figures::ablation::AblationSharePolicy));
        registry.register(Box::new(figures::ablation::AblationOverhead));
        registry
    }

    /// Adds an experiment. Panics on a duplicate name — names are the
    /// lookup key of the whole harness.
    pub fn register(&mut self, experiment: Box<dyn Experiment>) {
        assert!(
            self.get(experiment.name()).is_none(),
            "duplicate experiment name '{}'",
            experiment.name()
        );
        self.experiments.push(experiment);
    }

    /// The registered experiments, in registration (paper) order.
    pub fn experiments(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.experiments.iter().map(Box::as_ref)
    }

    /// Looks an experiment up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        self.experiments().find(|e| e.name() == name)
    }

    /// The registered names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.experiments().map(|e| e.name()).collect()
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Runs every experiment in order, stopping at the first failure.
    pub fn run_all(&self, quick: bool) -> Result<Vec<(&'static str, FigureOutput)>, Error> {
        self.experiments()
            .map(|e| Ok((e.name(), e.run(quick)?)))
            .collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_every_figure_and_ablation() {
        let registry = Registry::standard();
        assert_eq!(registry.len(), 19);
        assert!(!registry.is_empty());
        for name in [
            "fig01_workload",
            "sec2b_probability",
            "fig02_delta_equal",
            "fig03_cache",
            "fig04_small_vs_big",
            "fig05_timeline",
            "fig06_split_delta",
            "fig07_fcfs",
            "fig08_collective",
            "fig09_policies",
            "fig10_interrupt_granularity",
            "fig11_dynamic",
            "fig12_delay",
            "fig13_scale",
            "fig14_policies",
            "fig15_cluster",
            "ablation_gamma",
            "ablation_share_policy",
            "ablation_coordination_overhead",
        ] {
            let experiment = registry.get(name).unwrap_or_else(|| {
                panic!("experiment '{name}' missing from the standard registry")
            });
            assert!(
                !experiment.description().is_empty(),
                "{name}: empty description"
            );
        }
        assert!(registry.get("fig13_does_not_exist").is_none());
    }

    #[test]
    fn default_run_with_attaches_nothing() {
        let registry = Registry::standard();
        let experiment = registry.get("sec2b_probability").unwrap();
        let opts = RunOptions::new(true).with_trace().with_timeline();
        let output = experiment.run_with(&opts).unwrap();
        assert!(output.traces.is_empty());
        assert!(output.timelines.is_empty());
        assert!(!output.figure.render().is_empty());
    }

    #[test]
    fn fig05_attaches_traces_and_timelines_on_request() {
        let registry = Registry::standard();
        let experiment = registry.get("fig05_timeline").unwrap();
        let plain = experiment.run_with(&RunOptions::new(true)).unwrap();
        assert!(plain.traces.is_empty() && plain.timelines.is_empty());
        let observed = experiment
            .run_with(&RunOptions::new(true).with_trace().with_timeline())
            .unwrap();
        assert_eq!(observed.traces.len(), 3, "one trace per strategy");
        assert_eq!(observed.timelines.len(), 3);
        for (label, trace) in &observed.traces {
            assert!(!trace.is_empty(), "{label}: empty trace");
            // The codec round-trips every attached trace.
            assert_eq!(&calciom::Trace::from_text(&trace.to_text()).unwrap(), trace);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate experiment name")]
    fn duplicate_names_are_rejected() {
        let mut registry = Registry::standard();
        registry.register(Box::new(figures::fig01::Fig01));
    }
}
