//! Figure 13 (extension) — machine-level scale: N-application mixes.
//!
//! The paper's figures coordinate 2–4 applications; this experiment takes
//! its premise machine-wide. A seeded [`MachineMix`] generates N
//! applications (Fig. 1(a) size marginal, randomized volumes, periodic
//! phases, start jitter) and the same mix is played under all five
//! strategies for N ∈ {2, 8, 32, 128, 512} ({2, 8, 32} with `--quick`).
//! Two curves per strategy:
//!
//! * **machine-wide efficiency** — CPU·seconds wasted (the paper's
//!   Section IV metric) over the whole mix, baselines served by the shared
//!   [`BaselineCache`];
//! * **medium work** — per-flow visits the bandwidth medium made, per
//!   completed flow ([`calciom::Work::medium_visits`] over the flows
//!   completed): the simulator's cost,
//!   counted instead of timed, so the panel is the same on every host.
//!   Flat in N means `O(1)` medium work per flow; the repository
//!   benchmark's `contended` and `coordinated` workloads time the same
//!   sessions.
//!
//! The sweep runs through [`run_scenarios_sharded`]: one shard per
//! strategy, all sharing one baseline cache. A third panel repeats the
//! work count on the `O(log n)` virtual-time medium at machine scale.

use super::FigureOutput;
use crate::experiment::Experiment;
use calciom::{EfficiencyMetric, Error, NullObserver, SharingModel, Strategy, Work};
use iobench::{run_scenarios_sharded, BaselineCache, FigureData, Series};
use workloads::MachineMix;

/// Registry entry for this experiment.
pub struct Fig13;

impl Experiment for Fig13 {
    fn name(&self) -> &'static str {
        "fig13_scale"
    }

    fn description(&self) -> &'static str {
        "Machine-level scale: efficiency and simulation work vs N applications (extension)"
    }

    fn run(&self, quick: bool) -> Result<FigureOutput, Error> {
        run(quick)
    }
}

/// The five strategies of the paper, in presentation order.
pub const STRATEGIES: [Strategy; 5] = [
    Strategy::Interfere,
    Strategy::FcfsSerialize,
    Strategy::Interrupt,
    Strategy::Delay { max_wait_secs: 5.0 },
    Strategy::Dynamic,
];

/// The coordinated subset of [`STRATEGIES`] — the schedules the
/// virtual-time sweep runs at N ∈ {128, 2 000, 10 000, 50 000}, where the
/// uncoordinated baseline has no scaling story to tell.
pub const COORDINATED: [Strategy; 4] = [
    Strategy::FcfsSerialize,
    Strategy::Interrupt,
    Strategy::Delay { max_wait_secs: 5.0 },
    Strategy::Dynamic,
];

/// The machine mix used at every N (only `apps` varies): a fixed seed so
/// the experiment is reproducible, moderate write volumes so N = 512
/// stays simulable in seconds.
pub fn mix(n: usize) -> MachineMix {
    MachineMix {
        apps: n,
        seed: 2014,
        ..MachineMix::default()
    }
}

/// The same mix on the `O(log n)` virtual-time medium — the configuration
/// of the machine-scale sweep.
pub fn fair_mix(n: usize) -> MachineMix {
    MachineMix {
        medium: SharingModel::FairFast,
        ..mix(n)
    }
}

/// `count` per completed flow: `O(1)` when the work per transfer does
/// not grow with the mix.
fn per_flow(count: u64, work: &Work) -> f64 {
    count as f64 / work.flows_completed.max(1) as f64
}

/// Medium visits per completed flow — the 13b/13c y-axis.
fn medium_visits_per_flow(work: &Work) -> f64 {
    per_flow(work.medium_visits(), work)
}

/// Runs one mix of the virtual-time sweep under `strategy` and returns
/// the session's work.
fn fair_work(n: usize, strategy: Strategy) -> Result<Work, Error> {
    let (report, _, work) = fair_mix(n).scenario(strategy).run_with(&mut NullObserver)?;
    debug_assert_eq!(report.apps.len(), n);
    Ok(work)
}

/// The growth note of one strategy between the two largest N.
fn growth_note(panel: &str, series: &Series, envelope: (&str, f64)) -> Option<String> {
    let [.., (n_lo, lo), (n_hi, hi)] = series.points[..] else {
        return None;
    };
    Some(format!(
        "{panel} {}: N={}..{} per-flow medium work grew x{:.2} ({} would be x{:.2})",
        series.label,
        n_lo as usize,
        n_hi as usize,
        hi / lo,
        envelope.0,
        envelope.1
    ))
}

/// Runs the experiment.
pub fn run(quick: bool) -> Result<FigureOutput, Error> {
    let ns: &[usize] = if quick {
        &[2, 8, 32]
    } else {
        &[2, 8, 32, 128, 512]
    };

    let mut eff = FigureData::new(
        "Figure 13a — machine-wide efficiency vs N",
        "N (applications)",
        "CPU*seconds wasted (millions)",
    );
    let mut work = FigureData::new(
        "Figure 13b — max-min medium work vs N",
        "N (applications)",
        "medium visits per completed flow",
    );
    let mut eff_series: Vec<Series> = STRATEGIES.iter().map(|s| Series::new(s.label())).collect();
    let mut work_series: Vec<Series> = STRATEGIES.iter().map(|s| Series::new(s.label())).collect();

    let cache = BaselineCache::global();
    for &n in ns {
        let mix = mix(n);
        let scenarios: Vec<_> = STRATEGIES.iter().map(|s| mix.scenario(*s)).collect();
        let runs = run_scenarios_sharded(&scenarios, STRATEGIES.len(), cache)?;
        for (idx, run) in runs.iter().enumerate() {
            let wasted = run
                .report
                .metric(EfficiencyMetric::CpuSecondsWasted, &run.alone);
            eff_series[idx].push(n as f64, wasted / 1e6);
            work_series[idx].push(n as f64, medium_visits_per_flow(&run.work));
        }
    }
    for series in eff_series {
        eff.add_series(series);
    }
    for series in work_series {
        work.add_series(series);
    }

    let mut out = FigureOutput::new(
        "Figure 13 — machine-level N-application mixes under all five strategies",
    );

    // Headline: which strategy wins the machine at the largest N.
    let n_max = *ns.last().expect("at least one N") as f64;
    let at_max: Vec<(&str, f64)> = eff
        .series
        .iter()
        .map(|s| (s.label.as_str(), s.y_at(n_max).unwrap_or(f64::INFINITY)))
        .collect();
    let best = at_max
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("five strategies");
    let worst = at_max
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("five strategies");
    out.notes.push(format!(
        "machine-wide efficiency at N={}: best {} ({:.2} M CPU*s wasted), worst {} ({:.2} M)",
        n_max as usize, best.0, best.1, worst.0, worst.1
    ));

    // Medium scaling between the two largest N. Uncoordinated schedules
    // put every flow in one component, where each completion re-rates
    // all survivors: `O(N)` work per flow is their floor.
    let linear = ns[ns.len() - 1] as f64 / ns[ns.len() - 2] as f64;
    out.notes.extend(
        work.series
            .iter()
            .filter_map(|s| growth_note("max-min", s, ("O(N) per flow", linear))),
    );

    // The virtual-time sweep: the same mix family on the `O(log n)`
    // medium, out to machine scale. Baselines are skipped (machine-wide
    // efficiency at these N is the max-min sweep's job).
    let fair_ns: &[usize] = if quick {
        &[128, 2_000]
    } else {
        &[128, 2_000, 10_000, 50_000]
    };
    let mut fair_fig = FigureData::new(
        "Figure 13c — virtual-time medium work vs N",
        "N (applications)",
        "medium visits per completed flow",
    );
    for strategy in COORDINATED {
        let mut series = Series::new(strategy.label());
        for &n in fair_ns {
            series.push(n as f64, medium_visits_per_flow(&fair_work(n, strategy)?));
        }
        fair_fig.add_series(series);
    }
    let log_n = (fair_ns[fair_ns.len() - 1] as f64).ln() / (fair_ns[fair_ns.len() - 2] as f64).ln();
    out.notes.extend(
        fair_fig
            .series
            .iter()
            .filter_map(|s| growth_note("fair-fast", s, ("O(log N) per flow", log_n))),
    );

    out.figures.push(eff);
    out.figures.push(work);
    out.figures.push(fair_fig);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::Scenario;

    #[test]
    fn quick_sweep_covers_every_strategy_and_n() {
        let out = run(true).unwrap();
        assert_eq!(out.figures.len(), 3);
        for fig in &out.figures[..2] {
            assert_eq!(fig.x_values(), vec![2.0, 8.0, 32.0]);
            for strategy in STRATEGIES {
                let series = fig
                    .series(&strategy.label())
                    .unwrap_or_else(|| panic!("missing series {}", strategy.label()));
                assert_eq!(series.points.len(), 3);
            }
        }
        // The virtual-time sweep covers the growth gate's two N in quick
        // mode.
        let fair = &out.figures[2];
        assert_eq!(fair.x_values(), vec![128.0, 2000.0]);
        for strategy in COORDINATED {
            let series = fair
                .series(&strategy.label())
                .unwrap_or_else(|| panic!("missing fair-fast series {}", strategy.label()));
            assert_eq!(series.points.len(), 2);
        }
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("machine-wide efficiency")),
            "headline note missing"
        );
        assert_eq!(
            out.notes
                .iter()
                .filter(|n| n.starts_with("fair-fast "))
                .count(),
            COORDINATED.len(),
            "one virtual-time growth note per coordinated strategy"
        );
    }

    #[test]
    fn the_same_mix_feeds_every_strategy() {
        let mix = mix(16);
        let a: Scenario = mix.scenario(Strategy::Interfere);
        let b: Scenario = mix.scenario(Strategy::FcfsSerialize);
        assert_eq!(a.apps, b.apps, "only the strategy may differ");
        assert_ne!(a.strategy, b.strategy);
    }

    /// The virtual-time medium's scaling gate: from N = 128 to N = 2 000,
    /// the medium's per-flow visits and the kernel's events, each per
    /// completed flow, may grow at most like log N under every
    /// coordinated strategy. Under delay(5s) the mix's flows overlap and
    /// the group heaps hold hundreds of members, so any medium work that
    /// is linear in the live flows per completion (a full resync, a
    /// rescan of the arena) multiplies the per-flow count by about N
    /// and fails here.
    #[test]
    fn fair_fast_work_per_flow_grows_at_most_logarithmically() {
        let (lo, hi) = (128, 2_000);
        let log_n = (hi as f64).ln() / (lo as f64).ln();
        for strategy in COORDINATED {
            let (small, large) = (
                fair_work(lo, strategy).unwrap(),
                fair_work(hi, strategy).unwrap(),
            );
            for (what, count) in [
                ("medium visits", Work::medium_visits as fn(&Work) -> u64),
                ("kernel events", Work::kernel_events),
            ] {
                let growth = per_flow(count(&large), &large) / per_flow(count(&small), &small);
                assert!(
                    growth <= log_n,
                    "{}: {what} per completed flow grew x{growth:.2} from N={lo} to N={hi} \
                     (O(log N) allows x{log_n:.2}); {small:?} -> {large:?}",
                    strategy.label()
                );
            }
        }
    }

    /// The full-scale acceptance run: N = 512 under all five strategies,
    /// with a per-flow growth check on the max-min medium from
    /// N = 128 → 512. Ignored by default (it is the `--quick`-less
    /// experiment, minutes of work in debug builds); run explicitly with
    /// `cargo test -p calciom-bench --release -- --ignored scale_512`.
    #[test]
    #[ignore = "full-scale run; exercised by `fig13_scale` without --quick"]
    fn scale_512_completes_and_grows_subquadratically() {
        let out = run(false).unwrap();
        let work = &out.figures[1];
        for strategy in STRATEGIES {
            let series = work.series(&strategy.label()).unwrap();
            let at = |n: f64| series.y_at(n).unwrap();
            // Completion at N=512 is implied by the point existing.
            let growth = at(512.0) / at(128.0);
            // Coordinated schedules keep components small: the
            // incremental allocator re-rates a bounded set per flow.
            // Uncoordinated (and budget-expired delay) schedules put
            // every flow in one component, where each completion
            // re-rates all survivors: O(N) per flow, x4 for x4 N, is the
            // floor there and the check is that it stays linear.
            let bound = match strategy {
                Strategy::Interfere | Strategy::Delay { .. } => 5.0,
                _ => 1.5,
            };
            assert!(
                growth < bound,
                "{}: per-flow medium work grew x{growth:.2} from N=128 to N=512 (bound x{bound})",
                strategy.label()
            );
        }
    }

    /// The machine-scale acceptance run on the virtual-time medium:
    /// N = 50 000 under every coordinated strategy, with the O(log N)
    /// per-flow check from N = 10 000 → 50 000. Run explicitly with
    /// `cargo test -p calciom-bench --release -- --ignored scale_50k`.
    #[test]
    #[ignore = "machine-scale run; exercised by `fig13_scale` without --quick"]
    fn scale_50k_completes_and_grows_like_n_log_n() {
        let out = run(false).unwrap();
        let fair = &out.figures[2];
        let log_n = 50_000f64.ln() / 10_000f64.ln();
        for strategy in COORDINATED {
            let series = fair.series(&strategy.label()).unwrap();
            let at = |n: f64| series.y_at(n).unwrap();
            // Completion at N = 50 000 is implied by the point existing.
            let growth = at(50_000.0) / at(10_000.0);
            assert!(
                growth <= log_n,
                "{}: per-flow medium work grew x{growth:.2} from N=10k to N=50k (bound x{log_n:.2})",
                strategy.label()
            );
        }
    }
}
