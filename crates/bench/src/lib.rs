//! # calciom-bench — figure reproduction harness
//!
//! One module per figure of the paper's evaluation. Each module exposes a
//! `run(quick: bool)` function that executes the experiment and returns a
//! [`FigureOutput`] (the same curves/rows the paper plots, plus free-form
//! notes) or a typed [`calciom::Error`], and an [`Experiment`]
//! implementation that plugs it into the [`Registry`]. The binaries in
//! `src/bin/` are thin [`cli`] entry points over the registry.
//!
//! `quick = true` runs a reduced parameter sweep (fewer `dt` points, fewer
//! iterations) so that the whole suite stays fast in CI; `quick = false`
//! reproduces the figures at full resolution.

#![warn(missing_docs)]

pub mod cli;
pub mod experiment;
pub mod figures;

pub use experiment::{Experiment, ExperimentOutput, Flag, Registry, RunOptions};
pub use figures::FigureOutput;
