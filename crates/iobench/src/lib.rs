//! # iobench — IOR-like benchmark and experiment harness
//!
//! The paper evaluates CALCioM with a benchmark derived from IOR that gives
//! fine control over each application's access pattern and the exact moment
//! it starts writing. This crate is the equivalent driver for the simulated
//! stack:
//!
//! * [`baseline`] — the process-wide [`BaselineCache`] memoizing the
//!   `T_alone` stand-alone runs every sweep needs, keyed on the exact
//!   `(application, file system)` pair.
//! * [`delta`] — Δ-graph sweeps (write time / interference factor versus the
//!   start offset `dt` between two applications), the device used by most
//!   figures.
//! * [`compare`] — run the same scenario under several strategies (or,
//!   via [`compare_policies`], arbitrary named [`calciom::PolicySpec`]s
//!   from the policy registry) and compare interference factors and
//!   machine-wide metrics (Figs. 9–11, the `fig14_policies` panel).
//! * [`periodic`] — periodic writers against a caching backend (Fig. 3).
//! * [`aggregate`] — size sweeps: a small application against a big one
//!   (Fig. 4).
//! * [`expected`] — the analytic proportional-sharing expectation plotted
//!   as "Expected" in the paper's Δ-graphs.
//! * [`series`] — result series and plain-text tables used by the bench
//!   binaries to print exactly the rows/curves each figure shows.
//! * [`parallel`] — one scoped-thread fan-out ([`parallel_map_owned`])
//!   plus [`run_scenarios`] / [`run_scenarios_traced`], which validate
//!   every scenario up front and then build and execute each session
//!   through [`calciom::Scenario::run_with`] on the worker thread that
//!   runs it (deterministic: same reports — and same recorded traces — as
//!   a sequential run), and [`run_scenarios_sharded`], the machine-scale
//!   variant that batches scenarios into shards and resolves `T_alone`
//!   baselines through a shared [`BaselineCache`] as it goes.
//!
//! Every fallible entry point returns [`calciom::Error`] — the typed error
//! surface shared by the whole stack.
//!
//! ## Example: a miniature Δ-graph
//!
//! ```
//! use iobench::delta::{dt_range, run_delta_sweep, DeltaSweepConfig};
//! use calciom::{AccessPattern, AppConfig, AppId, PfsConfig, Strategy};
//!
//! let a = AppConfig::new(AppId(0), "A", 336, AccessPattern::contiguous(16.0e6));
//! let b = AppConfig::new(AppId(1), "B", 336, AccessPattern::contiguous(16.0e6));
//! let cfg = DeltaSweepConfig::new(PfsConfig::grid5000_rennes(), a, b, dt_range(-4.0, 4.0, 4.0))
//!     .with_strategy(Strategy::FcfsSerialize);
//! let sweep = run_delta_sweep(&cfg).unwrap();
//! assert_eq!(sweep.points.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod baseline;
pub mod compare;
pub mod delta;
pub mod expected;
pub mod parallel;
pub mod periodic;
pub mod series;

pub use aggregate::{run_size_sweep, SizeSweepConfig, SizeSweepPoint};
pub use baseline::{alone_time_cached, BaselineCache};
pub use compare::{
    alone_times, compare_policies, compare_strategies, PolicyComparison, PolicyRun,
    StrategyComparison, StrategyRun,
};
pub use delta::{dt_range, run_delta_sweep, DeltaPoint, DeltaSweepConfig, DeltaSweepResult};
pub use expected::{expected_factors, expected_times, ExpectedTimes};
pub use parallel::{
    parallel_map, parallel_map_owned, run_scenarios, run_scenarios_sharded, run_scenarios_traced,
    ShardedRun,
};
pub use periodic::{run_periodic, PeriodicConfig, PeriodicResult};
pub use series::{FigureData, Series};
