//! Figure 14 (extension) — arbitration-policy comparison at machine scale.
//!
//! The paper compares four hardwired strategies on two applications
//! (Fig. 11/12) and leaves richer policies as future work; the open
//! [`ArbitrationPolicy`](calciom::ArbitrationPolicy) layer makes that
//! future work runnable. This experiment plays the *same* seeded
//! [`MachineMix`] under every policy the standard registry knows — the
//! five built-ins (`interfering`, `fcfs`, `interrupt`, `delay(5s)`,
//! `calciom-dynamic`) and the three schedules the old enum could not
//! express (`priority(w=cores)`, `srpf`, `rr(10s)`) — for
//! N ∈ {8, 64, 256} applications ({8, 64} with `--quick`). Three curves
//! per policy:
//!
//! * **machine-wide efficiency** — CPU·seconds wasted (the paper's
//!   Section IV metric), baselines served by the shared
//!   [`BaselineCache`];
//! * **mean stretch** — the average per-application interference factor
//!   (observed / stand-alone time), the fairness signal;
//! * **coordination messages** — the protocol cost of the schedule.
//!
//! `--policy <spec>` (repeatable) restricts the comparison to the named
//! policies — any spec the registry can parse, e.g. `--policy rr(3s)`.
//! Without `--medium` the tournament gets max-min results, and runs them
//! on the `O(log n)` virtual-time medium because the fig13 mix passes
//! `PfsConfig::fair_fast_is_exact`. `--medium max-min` forces the exact
//! solver; `--medium fair-fast` forces the virtual-time medium even on a
//! file system where it only approximates.

use super::FigureOutput;
use crate::experiment::{Experiment, ExperimentOutput, Flag, RunOptions};
use calciom::{EfficiencyMetric, Error, PolicySpec, SharingModel};
use iobench::{run_scenarios_sharded, BaselineCache, FigureData, Series};
use workloads::MachineMix;

/// Registry entry for this experiment.
pub struct Fig14;

impl Experiment for Fig14 {
    fn name(&self) -> &'static str {
        "fig14_policies"
    }

    fn description(&self) -> &'static str {
        "Arbitration-policy comparison at machine scale: 8 registry policies on N-app mixes (extension)"
    }

    fn run(&self, quick: bool) -> Result<FigureOutput, Error> {
        run_specs(quick, &policy_specs(), SharingModel::default())
    }

    fn flags(&self) -> &'static [Flag] {
        &[Flag::Policy, Flag::Medium]
    }

    fn run_with(&self, opts: &RunOptions) -> Result<ExperimentOutput, Error> {
        let specs = if opts.policies.is_empty() {
            policy_specs()
        } else {
            opts.parsed_policies()?
        };
        Ok(ExperimentOutput::figure_only(run_specs(
            opts.quick,
            &specs,
            opts.medium.unwrap_or_default(),
        )?))
    }
}

/// The eight policies compared, in presentation order: the five built-in
/// (legacy-strategy) policies followed by the three the enum could not
/// express.
pub fn policy_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::new("interfering"),
        PolicySpec::new("fcfs"),
        PolicySpec::new("interrupt"),
        PolicySpec::with_arg("delay", "5s"),
        PolicySpec::new("calciom-dynamic"),
        PolicySpec::with_arg("priority", "w=cores"),
        PolicySpec::new("srpf"),
        PolicySpec::with_arg("rr", "10s"),
    ]
}

/// The machine mix used at every N (only `apps` varies): the fig13 mix,
/// seeded for reproducibility, so the two machine-scale experiments are
/// directly comparable.
pub fn mix(n: usize) -> MachineMix {
    super::fig13::mix(n)
}

/// Runs the comparison over an explicit policy list on the given
/// bandwidth-sharing medium.
pub fn run_specs(
    quick: bool,
    specs: &[PolicySpec],
    medium: SharingModel,
) -> Result<FigureOutput, Error> {
    let ns: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };

    let mut eff = FigureData::new(
        "Figure 14a — machine-wide efficiency vs N",
        "N (applications)",
        "CPU*seconds wasted (millions)",
    );
    let mut stretch = FigureData::new(
        "Figure 14b — mean stretch vs N",
        "N (applications)",
        "mean interference factor",
    );
    let mut msgs = FigureData::new(
        "Figure 14c — coordination messages vs N",
        "N (applications)",
        "messages (thousands)",
    );
    let labels: Vec<String> = specs.iter().map(|s| s.to_text()).collect();
    let mut eff_series: Vec<Series> = labels.iter().map(Series::new).collect();
    let mut stretch_series: Vec<Series> = labels.iter().map(Series::new).collect();
    let mut msg_series: Vec<Series> = labels.iter().map(Series::new).collect();

    let cache = BaselineCache::global();
    for &n in ns {
        let mix = MachineMix { medium, ..mix(n) };
        let scenarios: Vec<_> = specs
            .iter()
            .map(|spec| mix.scenario_with_policy(spec.clone()))
            .collect();
        // One shard: sessions execute back to back so no policy's run is
        // perturbed by another contending for cores.
        let runs = run_scenarios_sharded(&scenarios, 1, cache)?;
        for (idx, run) in runs.iter().enumerate() {
            let wasted = run
                .report
                .metric(EfficiencyMetric::CpuSecondsWasted, &run.alone);
            let obs = run.report.observations(&run.alone);
            let mean_stretch = if obs.is_empty() {
                1.0
            } else {
                obs.iter().map(|o| o.interference_factor()).sum::<f64>() / obs.len() as f64
            };
            eff_series[idx].push(n as f64, wasted / 1e6);
            stretch_series[idx].push(n as f64, mean_stretch);
            msg_series[idx].push(n as f64, run.report.coordination_messages as f64 / 1e3);
        }
    }
    for series in eff_series {
        eff.add_series(series);
    }
    for series in stretch_series {
        stretch.add_series(series);
    }
    for series in msg_series {
        msgs.add_series(series);
    }

    let mut out = FigureOutput::new(
        "Figure 14 — arbitration policies compared on machine-level N-application mixes",
    );

    // Headline: the efficiency ranking at the largest N.
    let n_max = *ns.last().expect("at least one N") as f64;
    let mut at_max: Vec<(&str, f64)> = eff
        .series
        .iter()
        .map(|s| (s.label.as_str(), s.y_at(n_max).unwrap_or(f64::INFINITY)))
        .collect();
    at_max.sort_by(|a, b| a.1.total_cmp(&b.1));
    let ranking: Vec<String> = at_max
        .iter()
        .map(|(label, v)| format!("{label} {v:.2}M"))
        .collect();
    out.notes.push(format!(
        "policy ranking at N={} by CPU*s wasted (best first): {}",
        n_max as usize,
        ranking.join(", ")
    ));
    if let (Some(best), Some(worst)) = (at_max.first(), at_max.last()) {
        out.notes.push(format!(
            "best policy {} wastes {:.2}M CPU*s, worst {} {:.2}M ({:.1}x)",
            best.0,
            best.1,
            worst.0,
            worst.1,
            worst.1 / best.1.max(1e-9)
        ));
    }

    // Machine-readable trajectory (CI extracts this into
    // BENCH_policies.json).
    let per_policy = |data: &FigureData, scale: f64, digits: usize| -> Vec<String> {
        data.series
            .iter()
            .map(|s| {
                let ys: Vec<String> = s
                    .points
                    .iter()
                    .map(|&(_, y)| format!("{:.*}", digits, y * scale))
                    .collect();
                format!("\"{}\":[{}]", s.label, ys.join(","))
            })
            .collect()
    };
    let json_ns: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
    out.notes.push(format!(
        "policy-json: {{\"n\":[{}],\"cpu_s_wasted_m\":{{{}}},\"mean_stretch\":{{{}}},\"messages_k\":{{{}}}}}",
        json_ns.join(","),
        per_policy(&eff, 1.0, 3).join(","),
        per_policy(&stretch, 1.0, 3).join(","),
        per_policy(&msgs, 1.0, 3).join(",")
    ));

    out.figures.push(eff);
    out.figures.push(stretch);
    out.figures.push(msgs);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_every_policy_and_n() {
        let out = run_specs(true, &policy_specs(), SharingModel::default()).unwrap();
        assert_eq!(out.figures.len(), 3);
        for fig in &out.figures {
            assert_eq!(fig.x_values(), vec![8.0, 64.0]);
            for spec in policy_specs() {
                let label = spec.to_text();
                let series = fig
                    .series(&label)
                    .unwrap_or_else(|| panic!("missing series {label}"));
                assert_eq!(series.points.len(), 2);
                assert!(series.points.iter().all(|&(_, y)| y.is_finite()));
            }
        }
        assert!(
            out.notes.iter().any(|n| n.contains("policy ranking")),
            "headline note missing"
        );
        assert!(
            out.notes.iter().any(|n| n.starts_with("policy-json: ")),
            "perf trajectory note missing"
        );
        // Coordinated policies exchange messages; interference does not
        // serialize, so its stretch exceeds 1 while fcfs protects the
        // first arrival.
        let msgs = &out.figures[2];
        assert!(msgs.series("fcfs").unwrap().y_at(64.0).unwrap() > 0.0);
    }

    #[test]
    fn restricted_policy_lists_run_standalone() {
        let specs = [PolicySpec::new("fcfs"), PolicySpec::with_arg("rr", "3s")];
        let out = run_specs(true, &specs, SharingModel::default()).unwrap();
        assert_eq!(out.figures[0].series.len(), 2);
        assert!(out.figures[0].series("rr(3s)").is_some());
    }

    #[test]
    fn tournament_runs_on_the_fair_fast_medium() {
        // The `--medium fair-fast` configuration (the CI smoke): the same
        // restricted tournament on the virtual-time medium completes with
        // finite curves, and on the mix's near-equal-share topology lands
        // near the exact solver's efficiency.
        let specs = [PolicySpec::new("fcfs")];
        let exact = run_specs(true, &specs, SharingModel::MaxMin).unwrap();
        let fast = run_specs(true, &specs, SharingModel::FairFast).unwrap();
        let eff_at =
            |out: &FigureOutput, n: f64| out.figures[0].series("fcfs").unwrap().y_at(n).unwrap();
        for &n in &[8.0, 64.0] {
            let (a, b) = (eff_at(&exact, n), eff_at(&fast, n));
            assert!(a.is_finite() && b.is_finite());
            assert!(
                (a - b).abs() <= a.abs().max(1.0) * 0.10,
                "N={n}: fair-fast efficiency {b} far from max-min {a}"
            );
        }
    }

    /// The full-scale acceptance run: all eight registry policies
    /// complete on the seeded mix at N = 256. Ignored by default (this is
    /// the `--quick`-less experiment, minutes of work in debug builds);
    /// run explicitly with
    /// `cargo test -p calciom-bench --release -- --ignored policies_256`.
    #[test]
    #[ignore = "full-scale run; exercised by `fig14_policies` without --quick"]
    fn policies_256_complete_for_all_eight() {
        let out = run_specs(false, &policy_specs(), SharingModel::default()).unwrap();
        let eff = &out.figures[0];
        for spec in policy_specs() {
            let label = spec.to_text();
            let series = eff.series(&label).unwrap();
            let at_256 = series
                .y_at(256.0)
                .unwrap_or_else(|| panic!("{label}: no N=256 point"));
            assert!(at_256.is_finite(), "{label}: non-finite efficiency");
        }
    }
}
