//! Shared command-line entry points for the figure binaries.
//!
//! Every `src/bin/fig*` binary is a one-line call into [`figure_main`];
//! the `all_figures` binary goes through [`all_figures_main`]. Both
//! resolve experiments through the [`Registry`], so binaries never
//! duplicate argument handling or experiment wiring.
//!
//! Flags (combinable). Every experiment reads `--quick`; each one
//! declares which of the others it reads ([`Experiment::flags`]), and a
//! flag the selected experiment does not read is rejected before anything
//! runs:
//!
//! * `--quick` — reduced parameter sweeps (the CI configuration);
//! * `--trace` (fig05) — record the experiment's key sessions, verify
//!   each trace survives its text codec exactly (replay being a pure
//!   fold, the decoded copy then also replays to the same report), and
//!   print a `codec round-trip OK` line per trace;
//! * `--timeline` (fig05) — print the derived Gantt/bandwidth timeline of
//!   each key session;
//! * `--policy <spec>` (fig14, repeatable) — restrict the compared
//!   arbitration policies;
//! * `--medium <label>` (fig14) — force the sweep onto the named
//!   bandwidth-sharing medium (`max-min` or `fair-fast`). Without it the
//!   sweep gets max-min results, on the virtual-time medium wherever
//!   `PfsConfig::fair_fast_is_exact` holds.

use crate::experiment::{Experiment, RunOptions};
use crate::Registry;
use calciom::{SharingModel, Trace};
use std::fmt;
use std::process::ExitCode;

/// Why the shared flag parser rejected an argument stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// A token starting with `--` that no entry point knows.
    UnknownFlag(String),
    /// `--policy` at the end of the stream, or followed by another flag.
    MissingPolicySpec,
    /// `--medium` at the end of the stream, or followed by another flag.
    MissingMediumLabel,
    /// `--medium` with a label no sharing medium carries.
    UnknownMedium(String),
    /// A flag the selected experiment does not read.
    NotRead {
        /// The flag, as typed on the command line.
        flag: &'static str,
        /// The experiment's registry name.
        experiment: &'static str,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::UnknownFlag(flag) => write!(
                f,
                "bad flag '{flag}' (expected --quick, --trace, --timeline, \
                 --policy <spec>, --medium <label>)"
            ),
            FlagError::MissingPolicySpec => {
                write!(f, "--policy needs a <spec> argument, e.g. --policy rr(3s)")
            }
            FlagError::MissingMediumLabel => {
                write!(
                    f,
                    "--medium needs a <label> argument, e.g. --medium fair-fast"
                )
            }
            FlagError::UnknownMedium(label) => {
                write!(
                    f,
                    "unknown medium '{label}' (expected max-min or fair-fast)"
                )
            }
            FlagError::NotRead { flag, experiment } => {
                write!(f, "{experiment} does not read {flag}")
            }
        }
    }
}

impl std::error::Error for FlagError {}

/// Entry point of a single-figure binary: runs the named experiment,
/// honouring the shared flags (`--quick`, `--trace`, `--timeline`).
pub fn figure_main(name: &str) -> ExitCode {
    let opts = match parse_options_or_fail(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    run_named(&Registry::standard(), &[name], &opts)
}

/// [`parse_options`] with the CLI error convention applied: a flag error
/// prints its canonical message ([`FlagError`]'s `Display`, the single
/// home of the flag list) and yields the failure exit code. Every binary
/// entry point goes through this.
pub fn parse_options_or_fail(args: impl Iterator<Item = String>) -> Result<RunOptions, ExitCode> {
    parse_options(args).map_err(|error| {
        eprintln!("{error}");
        ExitCode::FAILURE
    })
}

/// Parses the shared flags out of an argument stream. [`parse_args`]
/// with the leftover tokens discarded — for entry points that take no
/// positional arguments.
pub fn parse_options(args: impl Iterator<Item = String>) -> Result<RunOptions, FlagError> {
    parse_args(args).map(|(opts, _)| opts)
}

/// Parses the shared flags and returns them together with the leftover
/// non-flag tokens (experiment names / subcommands) — the *single* place
/// that knows which flags consume a value, so callers never re-derive
/// it. An *unknown* flag is an error — a typoed `--trcae` must fail
/// loudly, not silently run without tracing.
///
/// `--policy <spec>` is repeatable and takes the next token verbatim
/// (e.g. `--policy rr(3s) --policy fcfs`); experiments that compare
/// arbitration policies restrict their sweep to the named specs.
pub fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(RunOptions, Vec<String>), FlagError> {
    let mut opts = RunOptions::default();
    let mut names = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--trace" => opts.trace = true,
            "--timeline" => opts.timeline = true,
            "--policy" => match args.next() {
                Some(spec) if !spec.starts_with("--") => opts.policies.push(spec),
                _ => return Err(FlagError::MissingPolicySpec),
            },
            "--medium" => match args.next() {
                Some(label) if !label.starts_with("--") => match SharingModel::from_label(&label) {
                    Some(medium) => opts.medium = Some(medium),
                    None => return Err(FlagError::UnknownMedium(label)),
                },
                _ => return Err(FlagError::MissingMediumLabel),
            },
            other if other.starts_with("--") => {
                return Err(FlagError::UnknownFlag(other.to_string()))
            }
            _ => names.push(arg),
        }
    }
    Ok((opts, names))
}

/// Rejects the first flag in `opts` that `experiment` does not read.
pub fn check_flags(experiment: &dyn Experiment, opts: &RunOptions) -> Result<(), FlagError> {
    match opts
        .flags()
        .into_iter()
        .find(|flag| !experiment.flags().contains(flag))
    {
        Some(flag) => Err(FlagError::NotRead {
            flag: flag.name(),
            experiment: experiment.name(),
        }),
        None => Ok(()),
    }
}

/// Runs the given experiments in order, printing each rendered figure and
/// any requested observability artifacts. Fails before anything runs on
/// an unknown name or a flag one of the experiments does not read
/// ([`FlagError::NotRead`]); otherwise stops with a failure exit code at
/// the first failed run or trace that does not survive its own codec.
pub fn run_named(registry: &Registry, names: &[&str], opts: &RunOptions) -> ExitCode {
    let mut experiments = Vec::with_capacity(names.len());
    for name in names {
        let Some(experiment) = registry.get(name) else {
            eprintln!(
                "unknown experiment '{name}'; run `all_figures list` for the available names"
            );
            return ExitCode::FAILURE;
        };
        if let Err(error) = check_flags(experiment, opts) {
            eprintln!("{error}");
            return ExitCode::FAILURE;
        }
        experiments.push(experiment);
    }
    for experiment in experiments {
        let name = experiment.name();
        if names.len() > 1 {
            eprintln!("running {name} ...");
        }
        match experiment.run_with(opts) {
            Ok(output) => {
                println!("{}", output.figure.render());
                for (label, trace) in &output.traces {
                    if !verify_trace(name, label, trace) {
                        return ExitCode::FAILURE;
                    }
                }
                for (label, timeline) in &output.timelines {
                    println!("==== {name} timeline [{label}] ====");
                    println!("{}", timeline.render_text());
                }
            }
            Err(error) => {
                eprintln!("{name}: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Round-trips a recorded trace through the text codec and checks the
/// decoded copy is identical (which, replay being a pure fold of the
/// trace, also guarantees it replays to the same report). Prints one
/// status line.
fn verify_trace(name: &str, label: &str, trace: &Trace) -> bool {
    let text = trace.to_text();
    match Trace::from_text(&text) {
        Ok(decoded) if &decoded == trace => {
            println!(
                "trace {name} [{label}]: {} events, codec round-trip OK",
                trace.len()
            );
            true
        }
        Ok(_) => {
            eprintln!("trace {name} [{label}]: codec round-trip diverged");
            false
        }
        Err(error) => {
            eprintln!("trace {name} [{label}]: codec round-trip failed: {error}");
            false
        }
    }
}

/// Entry point of the `all_figures` binary.
///
/// * `all_figures` — run every registered experiment in paper order;
/// * `all_figures list` — print the registered names and descriptions;
/// * `all_figures list-policies` — print the arbitration-policy registry;
/// * `all_figures <name>...` — run the named experiments only;
/// * the shared flags of the module docs, each accepted only if every
///   selected experiment reads it.
pub fn all_figures_main() -> ExitCode {
    let (opts, tokens) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::FAILURE;
        }
    };
    let registry = Registry::standard();

    if tokens.iter().any(|a| a == "list") {
        for experiment in registry.experiments() {
            println!("{:<32} {}", experiment.name(), experiment.description());
        }
        return ExitCode::SUCCESS;
    }

    if tokens.iter().any(|a| a == "list-policies") {
        let policies = calciom::PolicyRegistry::standard();
        for name in policies.names() {
            println!(
                "{:<18} {}",
                name,
                policies.description(name).unwrap_or_default()
            );
        }
        return ExitCode::SUCCESS;
    }

    let names: Vec<&str> = if tokens.is_empty() {
        registry.names()
    } else {
        tokens.iter().map(String::as_str).collect()
    };
    run_named(&registry, &names, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_in_any_mix() {
        let parse = |args: &[&str]| parse_options(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(RunOptions::default()));
        let all = parse(&["fig05_timeline", "--quick", "--timeline", "--trace"]).unwrap();
        assert!(all.quick && all.trace && all.timeline);
        let quick = parse(&["--quick"]).unwrap();
        assert!(quick.quick && !quick.trace && !quick.timeline);
        // A typoed flag fails loudly instead of silently running the full
        // sweep without the requested observation.
        assert_eq!(
            parse(&["--trcae"]),
            Err(FlagError::UnknownFlag("--trcae".to_string()))
        );
    }

    #[test]
    fn policy_flags_collect_their_specs() {
        let parse = |args: &[&str]| parse_options(args.iter().map(|a| a.to_string()));
        let opts = parse(&[
            "fig14_policies",
            "--policy",
            "rr(3s)",
            "--quick",
            "--policy",
            "fcfs",
        ])
        .unwrap();
        assert!(opts.quick);
        assert_eq!(
            opts.policies,
            vec!["rr(3s)".to_string(), "fcfs".to_string()]
        );
        // The collected texts parse into real specs…
        let specs = opts.parsed_policies().unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].to_text(), "rr(3s)");
        // …and a missing argument fails loudly, with its own error case.
        assert_eq!(parse(&["--policy"]), Err(FlagError::MissingPolicySpec));
        assert_eq!(
            parse(&["--policy", "--quick"]),
            Err(FlagError::MissingPolicySpec)
        );
    }

    #[test]
    fn medium_flag_parses_and_validates_its_label() {
        let parse = |args: &[&str]| parse_options(args.iter().map(|a| a.to_string()));
        let opts = parse(&["fig14_policies", "--medium", "fair-fast", "--quick"]).unwrap();
        assert_eq!(opts.medium, Some(SharingModel::FairFast));
        assert_eq!(
            parse(&["--medium", "max-min"]).unwrap().medium,
            Some(SharingModel::MaxMin)
        );
        assert_eq!(parse(&[]).unwrap().medium, None);
        // A typoed label fails loudly, as does a missing one.
        assert_eq!(
            parse(&["--medium", "warp"]),
            Err(FlagError::UnknownMedium("warp".to_string()))
        );
        assert_eq!(parse(&["--medium"]), Err(FlagError::MissingMediumLabel));
        assert_eq!(
            parse(&["--medium", "--quick"]),
            Err(FlagError::MissingMediumLabel)
        );
    }

    #[test]
    fn run_named_honours_the_medium_override() {
        // fig14 restricted to one policy on the fair-fast medium runs
        // through the same CLI path the CI smoke uses.
        let registry = Registry::standard();
        let opts = RunOptions::new(true)
            .with_policy("fcfs")
            .with_medium(SharingModel::FairFast);
        let code = run_named(&registry, &["fig14_policies"], &opts);
        assert_eq!(code, ExitCode::SUCCESS);
    }

    #[test]
    fn parse_args_separates_names_from_policy_specs() {
        // A `--policy` spec is the flag's argument, never an experiment
        // name — the one parser owns that rule for every entry point.
        let (opts, names) = parse_args(
            [
                "fig14_policies",
                "--policy",
                "rr(3s)",
                "--quick",
                "sec2b_probability",
            ]
            .iter()
            .map(|a| a.to_string()),
        )
        .unwrap();
        assert_eq!(names, vec!["fig14_policies", "sec2b_probability"]);
        assert_eq!(opts.policies, vec!["rr(3s)".to_string()]);
        assert!(opts.quick);
    }

    #[test]
    fn run_named_honours_policy_restriction() {
        // fig14 restricted to two policies runs quickly through the same
        // CLI path CI uses.
        let registry = Registry::standard();
        let opts = RunOptions::new(true)
            .with_policy("fcfs")
            .with_policy("rr(5s)");
        let code = run_named(&registry, &["fig14_policies"], &opts);
        assert_eq!(code, ExitCode::SUCCESS);
        // A malformed spec surfaces as a failing exit code, not a crash.
        let bad = RunOptions::new(true).with_policy("rr(5s");
        let code = run_named(&registry, &["fig14_policies"], &bad);
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn flags_an_experiment_does_not_read_are_rejected() {
        let registry = Registry::standard();
        let fig07 = registry.get("fig07_fcfs").unwrap();
        let medium = RunOptions::new(true).with_medium(SharingModel::FairFast);
        assert_eq!(
            check_flags(fig07, &medium),
            Err(FlagError::NotRead {
                flag: "--medium",
                experiment: "fig07_fcfs",
            })
        );
        assert_eq!(
            check_flags(fig07, &medium).unwrap_err().to_string(),
            "fig07_fcfs does not read --medium"
        );
        assert_eq!(check_flags(fig07, &RunOptions::new(true)), Ok(()));
        // fig05 reads only the observation flags, fig14 only its sweep's.
        let fig05 = registry.get("fig05_timeline").unwrap();
        let fig14 = registry.get("fig14_policies").unwrap();
        let observed = RunOptions::new(true).with_trace().with_timeline();
        let policy = RunOptions::new(true).with_policy("fcfs");
        assert_eq!(check_flags(fig05, &observed), Ok(()));
        assert_eq!(check_flags(fig14, &policy), Ok(()));
        assert_eq!(check_flags(fig14, &medium), Ok(()));
        assert!(matches!(
            check_flags(fig14, &observed),
            Err(FlagError::NotRead {
                flag: "--trace",
                ..
            })
        ));
        assert!(matches!(
            check_flags(fig05, &policy),
            Err(FlagError::NotRead {
                flag: "--policy",
                ..
            })
        ));
        // The CLI path fails before running anything, for every name.
        let code = run_named(&registry, &["fig14_policies", "fig07_fcfs"], &medium);
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn run_named_rejects_unknown_experiments() {
        let registry = Registry::standard();
        let code = run_named(&registry, &["fig99_warp"], &RunOptions::new(true));
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn run_named_prints_observed_fig05() {
        // Exercises the full CLI path CI uses, including trace
        // verification (failure would return a failing exit code).
        let registry = Registry::standard();
        let opts = RunOptions::new(true).with_trace().with_timeline();
        let code = run_named(&registry, &["fig05_timeline"], &opts);
        assert_eq!(code, ExitCode::SUCCESS);
    }
}
