//! # simcore — discrete-event / fluid-flow simulation engine
//!
//! This crate is the foundation of the CALCioM reproduction. It provides the
//! building blocks shared by every substrate:
//!
//! * [`time`] — integer-tick simulated clock ([`SimTime`], [`SimDuration`]).
//! * [`event`] — a deterministic time-ordered [`EventQueue`].
//! * [`kernel`] — the [`Kernel`]: one owner for simulated time, coupling an
//!   [`EventQueue`] with a continuous [`Medium`] (a [`FluidNetwork`], or a
//!   richer substrate built on one) behind a single
//!   `schedule`/`cancel`/`advance_to_next` API.
//! * [`fluid`] — the [`FluidNetwork`] bandwidth-sharing model: transfers are
//!   *flows* draining bytes through shared capacity *constraints* with
//!   weighted max-min fairness. This is how cross-application interference
//!   at the parallel file system emerges in the simulation.
//! * [`fair`] — the [`VtFairNetwork`] virtual-time fair-sharing model: the
//!   same flow/constraint vocabulary, but completions are predicted once at
//!   insert via a per-group virtual clock and a priority queue, making every
//!   mutation `O(log n)`. [`SharingModel`] selects between the two, or
//!   leaves the choice to the file system layer (the default).
//! * [`observe`] — time-stamped event streams ([`Stamped`], [`EventLog`]),
//!   the substrate of the observability layer: higher crates define domain
//!   events and stream them through observers built on these containers.
//! * [`stats`] — time series, online summaries and histograms used by the
//!   experiment harnesses.
//! * [`rng`] — a small deterministic PRNG for workload synthesis.
//! * [`work`] — [`Work`], deterministic counts of kernel events and medium
//!   visits: the cost of a simulation, measured without a clock.
//!
//! The higher layers compose these pieces: the `pfs` crate builds storage
//! servers and caches out of constraints, the `mpiio` crate turns
//! application I/O phases into sequences of flows, and the `calciom` crate
//! (the paper's contribution) coordinates the applications that own those
//! flows.
//!
//! ## Example
//!
//! ```
//! use simcore::fluid::{FluidNetwork, FlowSpec};
//! use simcore::time::SimDuration;
//!
//! // One storage server at 100 MB/s shared by two applications.
//! let mut net = FluidNetwork::new();
//! let server = net.add_constraint(100.0e6);
//! let a = net.add_flow(FlowSpec::new(600.0e6, 1.0, f64::INFINITY, vec![server]));
//! let b = net.add_flow(FlowSpec::new(200.0e6, 1.0, f64::INFINITY, vec![server]));
//!
//! // Both share the server fairly: 50 MB/s each.
//! assert!((net.rate(a) - 50.0e6).abs() < 1.0);
//! assert!((net.rate(b) - 50.0e6).abs() < 1.0);
//!
//! // Advance until the first completion; the survivor then gets the full
//! // server to itself.
//! let dt = net.time_to_next_completion().unwrap();
//! net.advance(dt);
//! assert!(net.is_complete(b));
//! assert!((net.rate(a) - 100.0e6).abs() < 1.0);
//! # let _ = SimDuration::ZERO;
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod fair;
pub mod fluid;
pub mod kernel;
pub mod observe;
pub mod rng;
pub mod stats;
pub mod time;
pub mod work;

pub use event::{EventId, EventQueue};
pub use fair::{SharingModel, VtFairNetwork};
pub use fluid::{ConstraintId, FlowId, FlowProgress, FlowSpec, FluidNetwork};
pub use kernel::{Kernel, Medium};
pub use observe::{EventLog, Stamped};
pub use rng::DetRng;
pub use stats::{Histogram, Summary, TimeSeries};
pub use time::{SimDuration, SimTime, TICKS_PER_SEC};
pub use work::Work;
