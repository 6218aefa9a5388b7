//! Deterministic work counts.
//!
//! A [`Work`] record counts what a simulation *did* — kernel events and
//! every per-flow visit a bandwidth medium makes — instead of how long it
//! took on the host. The counts are plain integers bumped on the
//! simulation thread: no atomics, no clock. They are a pure function of
//! the scenario, identical across runs, hosts and build profiles, so a
//! test can pin them exactly and bound how they grow with the problem
//! size.

use std::ops::Add;

/// What one simulation did, counted.
///
/// The kernel fills the event fields; a medium fills its own fields and
/// leaves the other medium's at zero. [`Kernel::work`](crate::Kernel::work)
/// adds the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Events scheduled on the kernel queue.
    pub events_scheduled: u64,
    /// Events popped off the kernel queue and handed to the driver.
    pub events_popped: u64,
    /// Scheduled events cancelled before they fired.
    pub events_cancelled: u64,
    /// Flows that transferred their last byte (either medium).
    pub flows_completed: u64,
    /// [`FluidNetwork`](crate::FluidNetwork): constraint components
    /// re-solved by progressive filling.
    pub components_solved: u64,
    /// [`FluidNetwork`](crate::FluidNetwork): flows assigned a new rate,
    /// summed over every re-solve.
    pub flows_rerated: u64,
    /// [`FluidNetwork`](crate::FluidNetwork): flows visited by whole-network
    /// scans (next completion, advance, stall detection).
    pub flows_scanned: u64,
    /// [`VtFairNetwork`](crate::VtFairNetwork): finish tags pushed on a
    /// group heap.
    pub heap_pushes: u64,
    /// [`VtFairNetwork`](crate::VtFairNetwork): live finish tags popped
    /// (completions).
    pub heap_pops: u64,
    /// [`VtFairNetwork`](crate::VtFairNetwork): stale heap entries
    /// discarded.
    pub stale_skipped: u64,
    /// [`VtFairNetwork`](crate::VtFairNetwork): flows visited by loops over
    /// the flow arena (stall detection, lone-flow rate sums, resync).
    pub members_visited: u64,
}

impl Work {
    /// Per-flow visits the medium made: every re-rate, scan, heap
    /// operation and member visit, on either medium. This is the medium
    /// cost a regression to `O(N)` work per event shows up in.
    pub fn medium_visits(&self) -> u64 {
        self.flows_rerated
            + self.flows_scanned
            + self.heap_pushes
            + self.heap_pops
            + self.stale_skipped
            + self.members_visited
    }

    /// Kernel events scheduled, popped and cancelled.
    pub fn kernel_events(&self) -> u64 {
        self.events_scheduled + self.events_popped + self.events_cancelled
    }
}

impl Add for Work {
    type Output = Work;

    fn add(self, o: Work) -> Work {
        Work {
            events_scheduled: self.events_scheduled + o.events_scheduled,
            events_popped: self.events_popped + o.events_popped,
            events_cancelled: self.events_cancelled + o.events_cancelled,
            flows_completed: self.flows_completed + o.flows_completed,
            components_solved: self.components_solved + o.components_solved,
            flows_rerated: self.flows_rerated + o.flows_rerated,
            flows_scanned: self.flows_scanned + o.flows_scanned,
            heap_pushes: self.heap_pushes + o.heap_pushes,
            heap_pops: self.heap_pops + o.heap_pops,
            stale_skipped: self.stale_skipped + o.stale_skipped,
            members_visited: self.members_visited + o.members_visited,
        }
    }
}
