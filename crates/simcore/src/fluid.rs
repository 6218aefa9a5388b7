//! Fluid-flow bandwidth-sharing model.
//!
//! Ongoing data transfers are modelled as *flows* draining a fixed number of
//! bytes through one or more capacity *constraints* (client links, the
//! interconnect, storage servers). Whenever the set of active flows or a
//! capacity changes, per-flow rates are recomputed with **weighted max-min
//! fairness** (progressive filling): each flow receives bandwidth
//! proportionally to its weight until it hits its own rate cap or a shared
//! constraint saturates.
//!
//! This is the mechanism that reproduces the paper's central observation
//! (Section II): a parallel file system shares its bandwidth per *request
//! stream*, not per *application*, so an application with many processes
//! crowds out a small one — the small application's interference factor can
//! reach 14× (Fig. 6b) even though the sharing is "fair" at the request
//! level.
//!
//! ## Incremental allocation
//!
//! Rates are recomputed *incrementally*: the network maintains, per
//! constraint, the set of flows currently competing on it, and every
//! mutation (a flow added, removed, paused, resumed or completed; a
//! capacity changed) marks only the finite-capacity constraints it
//! touches. The next rate query re-solves just the affected *components* —
//! the transitive closure of flows connected through binding-capable
//! constraints — and leaves every other flow's allocation untouched.
//! Infinite-capacity constraints never bind, so they never couple
//! components (the typical infinite interconnect does not glue the whole
//! machine into one component).
//!
//! The invariant behind this (checked by a from-scratch re-solve after
//! every incremental pass in debug builds): flows in different components
//! share no finite constraint, so the max-min allocation of a component
//! depends only on that component's flows and capacities.

use crate::time::SimDuration;
use crate::work::Work;
use std::collections::{BTreeMap, BTreeSet};

/// Numerical tolerance for byte counts and rates.
pub(crate) const EPS: f64 = 1e-9;
/// A flow whose remaining volume falls below this many bytes is complete.
const COMPLETE_BYTES: f64 = 1e-6;
/// Relative completion slack. `advance` integrates `remaining -= rate · dt`
/// in f64 per step, so a flow advanced in many segments accumulates
/// rounding drift proportional to its volume (about one ulp of `bytes`
/// per step). A flow is therefore snapped complete when its remaining
/// volume is within `bytes · COMPLETE_REL` of zero — comfortably above
/// thousands of steps of drift (~2e-13 · bytes), yet orders of magnitude
/// below the bytes a real flow moves in one simulator tick.
const COMPLETE_REL: f64 = 1e-12;

/// Bytes below which a flow of the given total volume counts as complete.
pub(crate) fn completion_threshold(bytes: f64) -> f64 {
    COMPLETE_BYTES.max(bytes * COMPLETE_REL)
}

/// Handle to a capacity constraint (e.g. one storage server's bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintId(pub usize);

/// Handle to a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Static description of a flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Total number of bytes the flow must transfer.
    pub bytes: f64,
    /// Fair-share weight (typically the number of client processes backing
    /// the flow).
    pub weight: f64,
    /// Upper bound on the flow's own rate in bytes/s (e.g. the aggregate
    /// client-side link bandwidth). May be `f64::INFINITY` if at least one
    /// constraint is attached.
    pub rate_cap: f64,
    /// The shared constraints this flow traverses.
    pub constraints: Vec<ConstraintId>,
}

impl FlowSpec {
    /// Convenience constructor for a flow crossing the given constraints.
    pub fn new(bytes: f64, weight: f64, rate_cap: f64, constraints: Vec<ConstraintId>) -> Self {
        FlowSpec {
            bytes,
            weight,
            rate_cap,
            constraints,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    spec: FlowSpec,
    remaining: f64,
    transferred: f64,
    rate: f64,
    paused: bool,
}

/// Snapshot of a flow's progress, returned by accessors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowProgress {
    /// Bytes still to transfer.
    pub remaining: f64,
    /// Bytes transferred so far.
    pub transferred: f64,
    /// Current allocated rate in bytes/s (0 when paused or starved).
    pub rate: f64,
    /// Whether the flow is currently paused.
    pub paused: bool,
}

/// The fluid network: a set of constraints and the flows sharing them.
#[derive(Debug, Clone, Default)]
pub struct FluidNetwork {
    capacities: Vec<f64>,
    flows: BTreeMap<FlowId, FlowState>,
    next_flow: u64,
    /// Per-constraint set of *participating* flows (neither paused nor
    /// complete) — the adjacency the incremental solver walks.
    members: Vec<BTreeSet<FlowId>>,
    /// Constraints whose component must be re-solved before the next rate
    /// query.
    dirty_constraints: BTreeSet<usize>,
    /// Changed flows that cross no finite constraint (their rate is their
    /// own cap; nobody else is affected).
    dirty_lone: BTreeSet<FlowId>,
    /// Completions since the last [`FluidNetwork::drain_completed`].
    newly_completed: Vec<FlowId>,
    /// Re-solves, re-rates and scans so far.
    work: Work,
}

impl FluidNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a capacity constraint (bytes/s) and returns its handle.
    pub fn add_constraint(&mut self, capacity: f64) -> ConstraintId {
        assert!(capacity >= 0.0, "constraint capacity must be non-negative");
        self.capacities.push(capacity);
        self.members.push(BTreeSet::new());
        ConstraintId(self.capacities.len() - 1)
    }

    /// Number of constraints in the network.
    pub fn constraint_count(&self) -> usize {
        self.capacities.len()
    }

    /// Current capacity of a constraint.
    pub fn capacity(&self, id: ConstraintId) -> f64 {
        self.capacities[id.0]
    }

    /// Updates the capacity of a constraint (used by the PFS layer to model
    /// cache-full transitions and locality-breakage penalties).
    pub fn set_capacity(&mut self, id: ConstraintId, capacity: f64) {
        assert!(capacity >= 0.0, "constraint capacity must be non-negative");
        let old = self.capacities[id.0];
        let changed = if old.is_finite() && capacity.is_finite() {
            (old - capacity).abs() > EPS
        } else {
            old != capacity
        };
        if changed {
            self.capacities[id.0] = capacity;
            self.dirty_constraints.insert(id.0);
        }
    }

    /// Registers a new flow and returns its handle. Rates are lazily
    /// recomputed on the next query.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.bytes >= 0.0, "flow volume must be non-negative");
        assert!(spec.weight > 0.0, "flow weight must be positive");
        assert!(
            spec.rate_cap > 0.0,
            "flow rate cap must be positive (use f64::INFINITY for uncapped)"
        );
        assert!(
            spec.rate_cap.is_finite() || !spec.constraints.is_empty(),
            "a flow must have a finite rate cap or at least one constraint"
        );
        for c in &spec.constraints {
            assert!(c.0 < self.capacities.len(), "unknown constraint {c:?}");
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let participates = spec.bytes > completion_threshold(spec.bytes);
        self.flows.insert(
            id,
            FlowState {
                remaining: spec.bytes,
                transferred: 0.0,
                rate: 0.0,
                paused: false,
                spec,
            },
        );
        if participates {
            self.join(id);
        }
        id
    }

    /// Removes a flow (complete or not) and returns its final progress.
    pub fn remove_flow(&mut self, id: FlowId) -> Option<FlowProgress> {
        if self.participates(id) {
            self.leave(id);
        }
        let st = self.flows.remove(&id)?;
        Some(FlowProgress {
            remaining: st.remaining,
            transferred: st.transferred,
            rate: 0.0,
            paused: st.paused,
        })
    }

    /// Pauses a flow: it stops consuming bandwidth but keeps its remaining
    /// volume (used by the interruption strategy).
    pub fn pause_flow(&mut self, id: FlowId) {
        let Some(f) = self.flows.get_mut(&id) else {
            return;
        };
        if f.paused {
            return;
        }
        let was_active = f.remaining > completion_threshold(f.spec.bytes);
        f.paused = true;
        f.rate = 0.0;
        if was_active {
            self.leave(id);
        }
    }

    /// Resumes a paused flow.
    pub fn resume_flow(&mut self, id: FlowId) {
        let Some(f) = self.flows.get_mut(&id) else {
            return;
        };
        if !f.paused {
            return;
        }
        f.paused = false;
        if f.remaining > completion_threshold(f.spec.bytes) {
            self.join(id);
        }
    }

    /// Returns the progress snapshot of a flow.
    pub fn progress(&mut self, id: FlowId) -> Option<FlowProgress> {
        self.ensure_rates();
        self.flows.get(&id).map(|f| FlowProgress {
            remaining: f.remaining,
            transferred: f.transferred,
            rate: f.rate,
            paused: f.paused,
        })
    }

    /// True if the flow has transferred all of its bytes.
    pub fn is_complete(&self, id: FlowId) -> bool {
        self.flows
            .get(&id)
            .map(|f| f.remaining <= completion_threshold(f.spec.bytes))
            .unwrap_or(false)
    }

    /// Number of registered flows (complete flows stay registered until
    /// removed).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Iterates over all flow ids in deterministic (insertion id) order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.flows.keys().copied()
    }

    /// Current rate of a flow in bytes/s.
    pub fn rate(&mut self, id: FlowId) -> f64 {
        self.ensure_rates();
        self.flows.get(&id).map(|f| f.rate).unwrap_or(0.0)
    }

    /// Aggregate rate (bytes/s) over all active flows.
    pub fn aggregate_rate(&mut self) -> f64 {
        self.ensure_rates();
        self.work.flows_scanned += self.flows.len() as u64;
        self.flows.values().map(|f| f.rate).sum()
    }

    /// Time until the earliest active flow completes at current rates, or
    /// `None` if no active flow is making progress.
    pub fn time_to_next_completion(&mut self) -> Option<SimDuration> {
        self.ensure_rates();
        self.work.flows_scanned += self.flows.len() as u64;
        let mut best: Option<f64> = None;
        for f in self.flows.values() {
            if f.paused || f.remaining <= completion_threshold(f.spec.bytes) || f.rate <= EPS {
                continue;
            }
            let t = f.remaining / f.rate;
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        best.map(SimDuration::from_secs)
    }

    /// Advances every active flow by `dt` at its current rate. Flows never
    /// overshoot: remaining volume is clamped at zero.
    ///
    /// Rates are piecewise constant between mutations, so advancing does
    /// *not* by itself invalidate the allocation — only the flows that
    /// complete during the step mark their constraints for an incremental
    /// re-fill.
    pub fn advance(&mut self, dt: SimDuration) {
        self.ensure_rates();
        let secs = dt.as_secs();
        if secs <= 0.0 {
            return;
        }
        self.work.flows_scanned += self.flows.len() as u64;
        let mut completed: Vec<FlowId> = Vec::new();
        for (id, f) in self.flows.iter_mut() {
            if f.paused || f.rate <= EPS {
                continue;
            }
            let moved = (f.rate * secs).min(f.remaining);
            // simlint: allow(R5, moved is clamped to remaining and the threshold below snaps completion exactly)
            f.remaining -= moved;
            f.transferred += moved;
            // The relative slack snaps a flow complete when per-step f64
            // integration drift would otherwise leave it a few ulps short
            // at its own predicted completion instant (which would cost an
            // extra near-zero event round to mop up).
            if f.remaining <= completion_threshold(f.spec.bytes) {
                f.transferred = f.spec.bytes;
                f.remaining = 0.0;
                f.rate = 0.0;
                completed.push(*id);
            }
        }
        // Completions free capacity for the survivors of their component.
        self.work.flows_completed += completed.len() as u64;
        for id in completed {
            self.newly_completed.push(id);
            self.leave(id);
        }
    }

    /// Flows that completed since the last call, in completion order.
    pub fn drain_completed(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.newly_completed)
    }

    /// Active (unpaused, incomplete) flows currently allocated a zero
    /// rate — starved by binding constraints (e.g. a zero-capacity
    /// constraint) or by an infinite-cap-on-infinite-constraint
    /// degeneracy. Such flows never produce a completion event, so a
    /// session driving the network would hang without detecting them.
    pub fn stalled_flows(&mut self) -> Vec<FlowId> {
        self.ensure_rates();
        self.work.flows_scanned += self.flows.len() as u64;
        self.flows
            .iter()
            .filter(|(_, f)| {
                !f.paused && f.remaining > completion_threshold(f.spec.bytes) && f.rate <= EPS
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Flows that are complete but still registered.
    pub fn completed_flows(&self) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|(_, f)| f.remaining <= completion_threshold(f.spec.bytes))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Forces a full rate recomputation (normally done incrementally).
    pub fn recompute(&mut self) {
        self.dirty_constraints.extend(0..self.capacities.len());
        self.work.flows_scanned += self.flows.len() as u64;
        for (id, f) in &self.flows {
            if !f.spec.constraints.is_empty() {
                continue;
            }
            self.dirty_lone.insert(*id);
        }
        self.ensure_rates();
    }

    /// Re-solves, re-rates and scans so far (see [`Work`]).
    pub fn work(&self) -> Work {
        self.work
    }

    /// Whether a flow currently takes part in the allocation.
    fn participates(&self, id: FlowId) -> bool {
        self.flows
            .get(&id)
            .map(|f| !f.paused && f.remaining > completion_threshold(f.spec.bytes))
            .unwrap_or(false)
    }

    /// Registers a flow as an allocation participant and marks the affected
    /// part of the network for re-solving.
    fn join(&mut self, id: FlowId) {
        let constraints = self.flows[&id].spec.constraints.clone();
        for c in &constraints {
            self.members[c.0].insert(id);
        }
        self.mark_dirty(id, &constraints);
    }

    /// Removes a flow from the allocation (pause, completion, removal) and
    /// marks the affected part of the network for re-solving.
    fn leave(&mut self, id: FlowId) {
        let constraints = self.flows[&id].spec.constraints.clone();
        for c in &constraints {
            self.members[c.0].remove(&id);
        }
        self.mark_dirty(id, &constraints);
    }

    /// Marks the finite constraints a changed flow crosses; a flow that
    /// crosses none (infinite-only or constraint-free) affects nobody else
    /// and is queued for the lone-flow shortcut instead.
    fn mark_dirty(&mut self, id: FlowId, constraints: &[ConstraintId]) {
        let mut has_finite = false;
        for c in constraints {
            if self.capacities[c.0].is_finite() {
                has_finite = true;
                self.dirty_constraints.insert(c.0);
            }
        }
        if !has_finite {
            self.dirty_lone.insert(id);
        }
    }

    /// Re-solves whatever the accumulated mutations touched. Untouched
    /// components keep their rates verbatim.
    fn ensure_rates(&mut self) {
        if self.dirty_constraints.is_empty() && self.dirty_lone.is_empty() {
            return;
        }
        for id in std::mem::take(&mut self.dirty_lone) {
            self.solve_lone(id);
        }
        let seeds = std::mem::take(&mut self.dirty_constraints);
        let mut visited = vec![false; self.capacities.len()];
        for seed in seeds {
            if self.capacities[seed].is_finite() {
                self.solve_component(seed, &mut visited);
            } else {
                // The constraint stopped binding (capacity raised to
                // infinity): each member's residual component — and members
                // left without any binding constraint — must be re-solved.
                self.work.flows_scanned += self.members[seed].len() as u64;
                for id in self.members[seed].clone() {
                    let first_finite = self.flows[&id]
                        .spec
                        .constraints
                        .iter()
                        .find(|c| self.capacities[c.0].is_finite())
                        .map(|c| c.0);
                    match first_finite {
                        Some(c) => self.solve_component(c, &mut visited),
                        None => self.solve_lone(id),
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_consistent();
    }

    /// A participating flow with no binding-capable constraint runs at its
    /// own cap (or is starved if it has none — the degenerate
    /// infinite-on-infinite case).
    fn solve_lone(&mut self, id: FlowId) {
        let Some(f) = self.flows.get_mut(&id) else {
            return;
        };
        self.work.flows_rerated += 1;
        let active = !f.paused && f.remaining > completion_threshold(f.spec.bytes);
        f.rate = if active && f.spec.rate_cap.is_finite() {
            f.spec.rate_cap
        } else {
            0.0
        };
    }

    /// Solves the component reachable from `seed` through finite
    /// constraints (skipping it if a previous seed already covered it) and
    /// installs the resulting rates.
    fn solve_component(&mut self, seed: usize, visited: &mut [bool]) {
        if visited[seed] {
            return;
        }
        let subset = self.collect_component(seed, visited);
        if subset.is_empty() {
            return;
        }
        self.work.components_solved += 1;
        self.work.flows_rerated += subset.len() as u64;
        let rates = Self::solve(&self.capacities, &self.flows, &subset);
        for (id, rate) in subset.iter().zip(rates) {
            // simlint: allow(R4, collect_component only returns ids present in the flow map)
            self.flows.get_mut(id).expect("component flow exists").rate = rate;
        }
    }

    /// The transitive closure of flows connected to `seed` through
    /// finite-capacity constraints, in deterministic (id) order. Marks the
    /// finite constraints it spans as visited.
    fn collect_component(&self, seed: usize, visited: &mut [bool]) -> Vec<FlowId> {
        let mut stack = vec![seed];
        visited[seed] = true;
        let mut subset: BTreeSet<FlowId> = BTreeSet::new();
        while let Some(c) = stack.pop() {
            for id in &self.members[c] {
                if !subset.insert(*id) {
                    continue;
                }
                for c2 in &self.flows[id].spec.constraints {
                    if !visited[c2.0] && self.capacities[c2.0].is_finite() {
                        visited[c2.0] = true;
                        stack.push(c2.0);
                    }
                }
            }
        }
        subset.into_iter().collect()
    }

    /// Weighted max-min fair allocation of one component via progressive
    /// filling: raise every unfrozen flow's rate in lockstep
    /// (proportionally to its weight) until either the flow hits its own
    /// cap or one of its constraints saturates; freeze and repeat.
    ///
    /// `subset` must be *closed*: every finite constraint crossed by a
    /// subset flow has all of its participating flows in the subset. The
    /// result then depends only on the subset, which is what makes the
    /// incremental path equivalent to a from-scratch solve.
    fn solve(
        capacities: &[f64],
        flows: &BTreeMap<FlowId, FlowState>,
        subset: &[FlowId],
    ) -> Vec<f64> {
        let n_constraints = capacities.len();
        let mut cap_left = capacities.to_vec();

        // Index-based working set: one map lookup per flow up front, then
        // the hot rounds below touch only vectors (a machine-scale
        // component holds thousands of flows).
        let states: Vec<&FlowState> = subset.iter().map(|id| &flows[id]).collect();

        // The constraints the subset actually touches, in index order.
        let span: Vec<usize> = {
            let mut span: BTreeSet<usize> = BTreeSet::new();
            for f in &states {
                span.extend(f.spec.constraints.iter().map(|c| c.0));
            }
            span.into_iter().collect()
        };

        let mut rate = vec![0.0f64; subset.len()];
        let mut unfrozen: Vec<usize> = (0..subset.len()).collect();
        let mut weight_on = vec![0.0f64; n_constraints];
        let mut guard = 0usize;
        let max_iters = unfrozen.len() + n_constraints + 2;
        while !unfrozen.is_empty() && guard <= max_iters {
            guard += 1;

            // Weight crossing each constraint.
            for &c in &span {
                weight_on[c] = 0.0;
            }
            for &i in &unfrozen {
                let f = states[i];
                for c in &f.spec.constraints {
                    weight_on[c.0] += f.spec.weight;
                }
            }

            // Largest uniform per-weight increment permitted by constraints.
            let mut delta = f64::INFINITY;
            for &c in &span {
                let w = weight_on[c];
                if w > EPS {
                    delta = delta.min((cap_left[c]).max(0.0) / w);
                }
            }
            // ... and by per-flow caps.
            for &i in &unfrozen {
                let f = states[i];
                if f.spec.rate_cap.is_finite() {
                    delta = delta.min((f.spec.rate_cap - rate[i]).max(0.0) / f.spec.weight);
                }
            }

            if !delta.is_finite() {
                // No binding constraint and no finite cap: cannot happen
                // because add_flow requires one of the two; defensively stop.
                break;
            }

            // Apply the increment.
            if delta > 0.0 {
                for &i in &unfrozen {
                    rate[i] += states[i].spec.weight * delta;
                }
                for &c in &span {
                    let w = weight_on[c];
                    if w > EPS {
                        cap_left[c] -= w * delta;
                    }
                }
            }

            // Freeze flows that hit their cap or cross a saturated constraint.
            let before = unfrozen.len();
            unfrozen.retain(|&i| {
                let f = states[i];
                let capped = f.spec.rate_cap.is_finite() && rate[i] >= f.spec.rate_cap - EPS;
                let blocked = f.spec.constraints.iter().any(|c| cap_left[c.0] <= EPS);
                !(capped || blocked)
            });
            if unfrozen.len() == before && delta <= EPS {
                // No progress possible (all remaining flows starved).
                for &i in &unfrozen {
                    rate[i] = 0.0;
                }
                break;
            }
        }
        rate
    }

    /// Debug-only invariant: the incrementally maintained allocation must
    /// agree with a from-scratch solve of every component.
    #[cfg(debug_assertions)]
    fn assert_consistent(&self) {
        let mut expected: BTreeMap<FlowId, f64> = BTreeMap::new();
        let mut visited = vec![false; self.capacities.len()];
        for c in 0..self.capacities.len() {
            if visited[c] || !self.capacities[c].is_finite() {
                continue;
            }
            let subset = self.collect_component(c, &mut visited);
            if subset.is_empty() {
                continue;
            }
            let rates = Self::solve(&self.capacities, &self.flows, &subset);
            expected.extend(subset.into_iter().zip(rates));
        }
        for (id, f) in &self.flows {
            let want = if !f.paused && f.remaining > completion_threshold(f.spec.bytes) {
                match expected.get(id) {
                    Some(&r) => r,
                    // Not in any finite component: the lone-flow shortcut.
                    None if f.spec.rate_cap.is_finite() => f.spec.rate_cap,
                    None => 0.0,
                }
            } else {
                0.0
            };
            let tolerance = 1e-9 * want.abs().max(1.0);
            debug_assert!(
                (f.rate - want).abs() <= tolerance,
                "incremental allocation diverged for {id:?}: have {}, from-scratch {want}",
                f.rate
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_constraint() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(1000.0, 1.0, 60.0, vec![server]));
        assert!(approx(net.rate(f), 60.0));

        let g = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        // f capped at 60 is below its fair share; g takes the rest.
        assert!(approx(net.rate(f), 50.0) || net.rate(f) <= 60.0 + 1e-6);
        assert!(approx(net.rate(f) + net.rate(g), 100.0));
    }

    #[test]
    fn equal_weights_split_evenly() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        let b = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(a), 50.0));
        assert!(approx(net.rate(b), 50.0));
    }

    #[test]
    fn weights_bias_the_split() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let big = net.add_flow(FlowSpec::new(1e6, 3.0, f64::INFINITY, vec![server]));
        let small = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(big), 75.0));
        assert!(approx(net.rate(small), 25.0));
    }

    #[test]
    fn capped_flow_leaves_spare_bandwidth_to_others() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let capped = net.add_flow(FlowSpec::new(1e6, 1.0, 10.0, vec![server]));
        let open = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(capped), 10.0));
        assert!(approx(net.rate(open), 90.0));
    }

    #[test]
    fn multi_constraint_bottleneck_is_respected() {
        let mut net = FluidNetwork::new();
        let wide = net.add_constraint(1000.0);
        let narrow = net.add_constraint(30.0);
        let through_both = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![wide, narrow]));
        let wide_only = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![wide]));
        assert!(approx(net.rate(through_both), 30.0));
        assert!(approx(net.rate(wide_only), 970.0));
    }

    #[test]
    fn advance_and_completion() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(200.0, 1.0, f64::INFINITY, vec![server]));
        let ttc = net.time_to_next_completion().unwrap();
        assert!(approx(ttc.as_secs(), 2.0));
        net.advance(SimDuration::from_secs(1.0));
        assert!(approx(net.progress(f).unwrap().remaining, 100.0));
        net.advance(SimDuration::from_secs(1.0));
        assert!(net.is_complete(f));
        assert_eq!(net.completed_flows(), vec![f]);
        assert!(net.time_to_next_completion().is_none());
    }

    #[test]
    fn many_segment_flow_completes_at_its_predicted_instant() {
        // Regression for per-step f64 integration drift: a flow advanced
        // in thousands of segments accumulates rounding error in
        // `remaining -= rate * dt` and used to land a few hundred ulps
        // short of the absolute completion threshold at its own predicted
        // completion time, costing an extra near-zero event round. The
        // relative completion slack must absorb that drift.
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(1.0e8 / 7.0); // non-representable rate
        let f = net.add_flow(FlowSpec::new(1.0e9, 1.0, f64::INFINITY, vec![server]));
        let total = net.time_to_next_completion().unwrap();
        // Alternating uneven segments (prime tick counts) so the per-step
        // rounding errors do not telescope away; this pattern accumulates
        // ~1.2e-5 bytes of drift, an order of magnitude above the absolute
        // completion threshold.
        let mut left = total.ticks();
        let mut toggle = true;
        while left > 0 {
            let step = if toggle { 7919 } else { 104_729 }.min(left);
            net.advance(SimDuration::from_ticks(step));
            left -= step;
            toggle = !toggle;
        }
        assert!(
            net.is_complete(f),
            "drift left the flow incomplete at its predicted completion: {:?}",
            net.progress(f).unwrap()
        );
        assert_eq!(net.drain_completed(), vec![f]);
        let p = net.progress(f).unwrap();
        assert_eq!(p.remaining, 0.0);
        assert_eq!(p.transferred, 1.0e9);
    }

    #[test]
    fn stalled_flows_reports_zero_rate_active_flows() {
        let mut net = FluidNetwork::new();
        let dead = net.add_constraint(0.0);
        let live = net.add_constraint(100.0);
        let stuck = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![dead]));
        let ok = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![live]));
        assert_eq!(net.stalled_flows(), vec![stuck]);
        // Paused and completed flows are not "stalled".
        net.pause_flow(stuck);
        assert!(net.stalled_flows().is_empty());
        net.advance(SimDuration::from_secs(10.0));
        assert!(net.is_complete(ok));
        assert!(net.stalled_flows().is_empty());
    }

    #[test]
    fn advance_never_overshoots() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(50.0, 1.0, f64::INFINITY, vec![server]));
        net.advance(SimDuration::from_secs(10.0));
        let p = net.progress(f).unwrap();
        assert_eq!(p.remaining, 0.0);
        assert!(approx(p.transferred, 50.0));
    }

    #[test]
    fn pause_and_resume() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        let b = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        net.pause_flow(a);
        assert_eq!(net.rate(a), 0.0);
        assert!(approx(net.rate(b), 100.0), "paused flow frees its share");
        net.advance(SimDuration::from_secs(1.0));
        assert!(approx(net.progress(a).unwrap().remaining, 1000.0));
        net.resume_flow(a);
        assert!(approx(net.rate(a), 50.0));
    }

    #[test]
    fn completion_frees_capacity_for_survivors() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let short = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![server]));
        let long = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        // Both run at 50 B/s; the short one finishes after 2 s.
        let ttc = net.time_to_next_completion().unwrap();
        assert!(approx(ttc.as_secs(), 2.0));
        net.advance(ttc);
        assert!(net.is_complete(short));
        assert!(approx(net.rate(long), 100.0));
    }

    #[test]
    fn set_capacity_changes_rates() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(f), 100.0));
        net.set_capacity(server, 10.0);
        assert!(approx(net.rate(f), 10.0));
        assert!(approx(net.capacity(server), 10.0));
    }

    #[test]
    fn remove_flow_returns_progress() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![server]));
        net.advance(SimDuration::from_secs(0.5));
        let p = net.remove_flow(f).unwrap();
        assert!(approx(p.transferred, 50.0));
        assert!(approx(p.remaining, 50.0));
        assert_eq!(net.flow_count(), 0);
        assert!(net.remove_flow(f).is_none());
    }

    #[test]
    fn zero_byte_flow_is_immediately_complete() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(0.0, 1.0, f64::INFINITY, vec![server]));
        assert!(net.is_complete(f));
    }

    #[test]
    fn aggregate_rate_sums_all_flows() {
        let mut net = FluidNetwork::new();
        let s1 = net.add_constraint(100.0);
        let s2 = net.add_constraint(40.0);
        net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![s1]));
        net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![s2]));
        assert!(approx(net.aggregate_rate(), 140.0));
    }

    #[test]
    fn zero_capacity_constraint_starves_flows() {
        let mut net = FluidNetwork::new();
        let dead = net.add_constraint(0.0);
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![dead]));
        assert_eq!(net.rate(f), 0.0);
        assert!(net.time_to_next_completion().is_none());
    }

    #[test]
    #[should_panic]
    fn unknown_constraint_panics() {
        let mut net = FluidNetwork::new();
        net.add_flow(FlowSpec::new(1.0, 1.0, 1.0, vec![ConstraintId(3)]));
    }

    #[test]
    #[should_panic]
    fn uncapped_unconstrained_flow_panics() {
        let mut net = FluidNetwork::new();
        net.add_flow(FlowSpec::new(1.0, 1.0, f64::INFINITY, vec![]));
    }

    // --- Edge cases the property suite does not reach ---

    #[test]
    fn zero_byte_flow_consumes_no_bandwidth() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let empty = net.add_flow(FlowSpec::new(0.0, 5.0, f64::INFINITY, vec![server]));
        let real = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        // The complete flow is excluded from the allocation: despite its
        // larger weight the whole capacity goes to the active flow.
        assert_eq!(net.rate(empty), 0.0);
        assert!(approx(net.rate(real), 100.0));
        assert!(net.completed_flows().contains(&empty));
    }

    #[test]
    fn zero_byte_flow_survives_advance_and_removal() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let empty = net.add_flow(FlowSpec::new(0.0, 1.0, f64::INFINITY, vec![server]));
        net.advance(SimDuration::from_secs(3.0));
        let p = net.progress(empty).unwrap();
        assert_eq!(p.remaining, 0.0);
        assert_eq!(p.transferred, 0.0);
        let removed = net.remove_flow(empty).unwrap();
        assert_eq!(removed.transferred, 0.0);
        assert_eq!(net.flow_count(), 0);
    }

    #[test]
    fn constraint_free_flow_runs_at_its_cap() {
        // A flow attached to no constraints is legal with a finite cap: it
        // models a transfer limited only by the client-side link.
        let mut net = FluidNetwork::new();
        let f = net.add_flow(FlowSpec::new(120.0, 2.0, 40.0, vec![]));
        assert!(approx(net.rate(f), 40.0));
        let ttc = net.time_to_next_completion().unwrap();
        assert!(approx(ttc.as_secs(), 3.0));
        net.advance(ttc);
        assert!(net.is_complete(f));
    }

    #[test]
    fn constraint_free_flows_do_not_contend() {
        let mut net = FluidNetwork::new();
        let a = net.add_flow(FlowSpec::new(1e6, 1.0, 30.0, vec![]));
        let b = net.add_flow(FlowSpec::new(1e6, 9.0, 50.0, vec![]));
        // No shared constraint: each runs at its own cap, weights are moot.
        assert!(approx(net.rate(a), 30.0));
        assert!(approx(net.rate(b), 50.0));
    }

    #[test]
    fn infinite_capacity_constraint_never_binds() {
        let mut net = FluidNetwork::new();
        let infinite = net.add_constraint(f64::INFINITY);
        let narrow = net.add_constraint(25.0);
        let capped = net.add_flow(FlowSpec::new(1e6, 1.0, 10.0, vec![infinite]));
        let through_narrow = net.add_flow(FlowSpec::new(
            1e6,
            1.0,
            f64::INFINITY,
            vec![infinite, narrow],
        ));
        // The infinite constraint limits nobody: the first flow hits its own
        // cap, the second saturates the narrow server.
        assert!(approx(net.rate(capped), 10.0));
        assert!(approx(net.rate(through_narrow), 25.0));
    }

    #[test]
    fn uncapped_flow_on_infinite_constraint_is_starved_not_stuck() {
        // Degenerate: no finite cap and no finite constraint. The allocator
        // cannot assign a finite rate; it must terminate with rate 0 while
        // still serving well-posed flows correctly.
        let mut net = FluidNetwork::new();
        let infinite = net.add_constraint(f64::INFINITY);
        let unbounded = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![infinite]));
        assert_eq!(net.rate(unbounded), 0.0);
        assert!(net.time_to_next_completion().is_none());
        // Advancing past this state neither panics nor creates bytes.
        net.advance(SimDuration::from_secs(1.0));
        let p = net.progress(unbounded).unwrap();
        assert_eq!(p.transferred, 0.0);
        assert!(approx(p.remaining, 1e6));
    }

    #[test]
    fn advance_past_all_completions_is_a_fixpoint() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(50.0, 1.0, f64::INFINITY, vec![server]));
        let b = net.add_flow(FlowSpec::new(150.0, 1.0, f64::INFINITY, vec![server]));
        // One giant step completes everything at once (rates are held for
        // the whole step; both flows clamp at zero remaining).
        net.advance(SimDuration::from_secs(1_000.0));
        assert!(net.is_complete(a) && net.is_complete(b));
        assert_eq!(net.completed_flows().len(), 2);
        assert!(net.time_to_next_completion().is_none());
        assert_eq!(net.aggregate_rate(), 0.0);
        // Further advancing is a no-op on progress.
        let before_a = net.progress(a).unwrap();
        let before_b = net.progress(b).unwrap();
        net.advance(SimDuration::from_secs(1_000.0));
        assert_eq!(net.progress(a).unwrap(), before_a);
        assert_eq!(net.progress(b).unwrap(), before_b);
        // And freed capacity is immediately available to a new flow.
        let late = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(late), 100.0));
    }
}
