//! Virtual-time fair-throughput-sharing network.
//!
//! [`VtFairNetwork`] is a second [`Medium`](crate::kernel::Medium)-capable
//! bandwidth model next to [`FluidNetwork`](crate::fluid::FluidNetwork).
//! Where the fluid model re-solves a whole constraint component after
//! every mutation (progressive filling — exact weighted max-min at
//! `O(component)` per change), this model predicts each flow's completion
//! *once*, at insert, in *virtual work* units, and keeps flows in a
//! priority queue per constraint group:
//!
//! * every group (one per capacity constraint) carries a cumulative
//!   **virtual time** `V` — bytes moved per unit of fair-share weight
//!   since the group was created;
//! * a flow inserted with `remaining` bytes and weight `w` is assigned
//!   the virtual finish tag `finish_v = V + remaining / w` and pushed on
//!   the group's min-heap;
//! * real time advances `V` at the group's *per-weight rate*
//!   `rv = min(C / W, k_min)` — capacity over total active weight, capped
//!   by the smallest member `rate_cap / weight` ratio (maintained as an
//!   ordered multiset);
//! * flows complete in `finish_v` order, popped from the heap.
//!
//! **The virtual-time invariant:** while every member's rate stays
//! proportional to its weight (`rate_i = w_i · rv`), a change of `rv`
//! rescales all completion times by the same factor and therefore never
//! reorders the heap. Insert, pause, resume and complete are `O(log n)`
//! (heap + multiset ops); advancing time is `O(groups)`; **no mutation
//! ever re-solves the allocation**.
//!
//! ## Exact vs. approximate
//!
//! The per-weight rate is the first progressive-filling increment of the
//! fluid solver, so this model reproduces weighted max-min *exactly* on
//! **equal-share topologies**: every flow is governed by one binding
//! constraint (its *home group*, fixed at insert as its smallest-capacity
//! finite constraint), and within a group the `rate_cap / weight` ratio is
//! uniform — then either the capacity binds for everyone (`rv = C/W`) or
//! every flow runs at its own cap (`rv = k`). That is precisely the shape
//! the PFS layer produces under request-stream-proportional sharing: each
//! server flow has `weight = procs` and `cap = procs · link_bw / servers`,
//! a uniform ratio of `link_bw / servers`. With heterogeneous ratios
//! inside a group, or when a non-home constraint would bind, the model is
//! a *conservative approximation*: it caps the whole group at the
//! tightest ratio rather than redistributing the capped flows' slack.
//! The differential property suite pins the exact regime against the
//! fluid solver.

use crate::fluid::{completion_threshold, ConstraintId, FlowId, FlowProgress, FlowSpec, EPS};
use crate::time::SimDuration;
use crate::work::Work;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Which bandwidth-sharing model a file system (and everything above it)
/// runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingModel {
    /// The incremental weighted max-min solver
    /// ([`FluidNetwork`](crate::fluid::FluidNetwork)) — exact,
    /// `O(component)` per mutation.
    #[default]
    MaxMin,
    /// The virtual-time fair-throughput model ([`VtFairNetwork`]) —
    /// `O(log n)` per mutation, exact on equal-share topologies.
    FairFast,
}

impl SharingModel {
    /// Stable codec label (`max-min` / `fair-fast`).
    pub fn label(self) -> &'static str {
        match self {
            SharingModel::MaxMin => "max-min",
            SharingModel::FairFast => "fair-fast",
        }
    }

    /// Parses [`SharingModel::label`] output.
    pub fn from_label(s: &str) -> Option<SharingModel> {
        match s {
            "max-min" => Some(SharingModel::MaxMin),
            "fair-fast" => Some(SharingModel::FairFast),
            _ => None,
        }
    }
}

/// Where a flow currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residence {
    /// Active member of the group for the given constraint index.
    Group(u32),
    /// Active with no finite constraint: runs at its own (finite) cap,
    /// tracked in the lone pseudo-group.
    Lone,
    /// Active but unable to progress (no finite cap and no finite
    /// constraint): rate 0, produces no completion event.
    Starved,
    /// Paused by the coordination layer.
    Paused,
    /// All bytes transferred; stays registered until removed.
    Complete,
}

#[derive(Debug, Clone)]
struct Slot {
    /// Generation minted into this flow's public [`FlowId`].
    gen: u32,
    weight: f64,
    rate_cap: f64,
    bytes: f64,
    /// `rate_cap / weight`, this flow's key in the group ratio multiset.
    cap_ratio: f64,
    /// Settled bytes still to transfer (as of `settled_v`).
    remaining: f64,
    /// Settled bytes moved so far.
    transferred: f64,
    /// Group (or lone) virtual time at the last settlement. Meaningless
    /// while paused/starved/complete.
    settled_v: f64,
    /// Home group chosen at insert (kept across pause/resume).
    home: Option<u32>,
    residence: Residence,
}

/// Heap entry: virtual finish tag (positive, so IEEE bit order is value
/// order), slot index as a deterministic tie-break, and the slot epoch
/// that validates it (lazy deletion — the epoch bumps whenever the flow
/// leaves its group).
type HeapEntry = Reverse<(u64, u32, u32)>;

#[derive(Debug, Clone, Default)]
struct Group {
    /// Mirror of the constraint's capacity `C`.
    capacity: f64,
    /// Total weight `W` of active members.
    weight: f64,
    /// Number of active members.
    members: usize,
    /// Cumulative virtual time `V` (bytes per weight unit).
    virt: f64,
    /// Current per-weight rate `rv = min(C / W, k_min)`; `0` when empty
    /// or starved.
    rate_v: f64,
    /// Multiset of member `rate_cap / weight` ratios keyed by IEEE bits
    /// (ratios are positive, so bit order is numeric order).
    ratios: BTreeMap<u64, u32>,
    heap: BinaryHeap<HeapEntry>,
}

impl Group {
    fn k_min(&self) -> f64 {
        self.ratios
            .keys()
            .next()
            .map(|&bits| f64::from_bits(bits))
            .unwrap_or(f64::INFINITY)
    }

    /// Re-derives `rv` after a membership/capacity change. The quotient
    /// `C / W` and the cap ratio are the exact expressions of the fluid
    /// solver's first filling increment, which is what makes the two
    /// models agree on equal-share topologies.
    fn settle_rate(&mut self) {
        if self.members == 0 || self.weight <= EPS {
            self.rate_v = 0.0;
            return;
        }
        let rv = (self.capacity.max(0.0) / self.weight).min(self.k_min());
        self.rate_v = if rv.is_finite() && rv > EPS { rv } else { 0.0 };
    }

    fn add_member(&mut self, weight: f64, cap_ratio: f64) {
        self.weight += weight;
        self.members += 1;
        *self.ratios.entry(cap_ratio.to_bits()).or_insert(0) += 1;
        self.settle_rate();
    }

    fn remove_member(&mut self, weight: f64, cap_ratio: f64) {
        self.weight -= weight;
        self.members -= 1;
        if self.members == 0 {
            // Integer-valued weights subtract exactly; for fractional
            // weights this resync stops rounding residue from outliving
            // the members that produced it.
            self.weight = 0.0;
        }
        let bits = cap_ratio.to_bits();
        // simlint: allow(R4, members only leave with the cap ratio they entered with)
        let n = self.ratios.get_mut(&bits).expect("tracked cap ratio");
        *n -= 1;
        if *n == 0 {
            self.ratios.remove(&bits);
        }
        self.settle_rate();
    }
}

/// The lone pseudo-group holds flows with a finite cap but no finite
/// constraint. Its virtual time advances one second per second and a
/// member's "weight" is its own cap, so `finish_v − V` is exactly the
/// seconds left at full cap.
#[derive(Debug, Clone, Default)]
struct LoneGroup {
    virt: f64,
    members: usize,
    heap: BinaryHeap<HeapEntry>,
}

/// The virtual-time fair-throughput-sharing network. The public surface
/// mirrors [`FluidNetwork`](crate::fluid::FluidNetwork) so the PFS layer
/// can swap either in behind one dispatch point.
#[derive(Debug, Clone, Default)]
pub struct VtFairNetwork {
    capacities: Vec<f64>,
    groups: Vec<Group>,
    lone: LoneGroup,
    /// Flow arena. Indices recycle through `free`; external [`FlowId`]s
    /// stay unique because they carry the per-index generation.
    slots: Vec<Option<Slot>>,
    /// Per-index generation for the *next* insert (bumped on remove).
    gens: Vec<u32>,
    /// Per-index heap-entry validity counter (bumped whenever the tenant
    /// leaves a group, so stale heap entries never validate).
    epochs: Vec<u32>,
    free: Vec<u32>,
    /// Completions since the last [`VtFairNetwork::drain_completed`].
    newly_completed: Vec<FlowId>,
    /// Completed flows not yet removed.
    finished: BTreeSet<FlowId>,
    /// Active flows with no group at all (no finite cap, no finite
    /// constraint): pinned at rate zero.
    starved: BTreeSet<FlowId>,
    /// Heap operations and arena visits so far.
    work: Work,
}

fn make_id(idx: u32, gen: u32) -> FlowId {
    FlowId(((gen as u64) << 32) | idx as u64)
}

fn split_id(id: FlowId) -> (u32, u32) {
    (id.0 as u32, (id.0 >> 32) as u32)
}

// Arena access. Every `idx` that reaches these helpers came from
// `lookup` (which checks the generation against an occupied slot) or from
// a heap entry validated by `entry_live` — an empty slot here means the
// arena invariant itself is broken, and no simulation state can be
// trusted past that point. Funneling all slot access through three
// helpers keeps that justified panic in exactly one place per access
// mode. They are free functions (not methods) so callers can keep
// disjoint borrows of `groups` / `lone` alongside the slot.

/// Mutable access to an occupied arena slot.
fn live(slot: &mut Option<Slot>) -> &mut Slot {
    // simlint: allow(R4, arena indices are validated by lookup/entry_live before reaching here)
    slot.as_mut().expect("live slot")
}

/// Shared access to an occupied arena slot.
fn live_ref(slot: &Option<Slot>) -> &Slot {
    // simlint: allow(R4, arena indices are validated by lookup/entry_live before reaching here)
    slot.as_ref().expect("live slot")
}

/// Moves an occupied arena slot out, leaving `None`.
fn take_live(slot: &mut Option<Slot>) -> Slot {
    // simlint: allow(R4, arena indices are validated by lookup/entry_live before reaching here)
    slot.take().expect("live slot")
}

impl VtFairNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a capacity constraint (bytes/s) and returns its handle.
    pub fn add_constraint(&mut self, capacity: f64) -> ConstraintId {
        assert!(capacity >= 0.0, "constraint capacity must be non-negative");
        self.capacities.push(capacity);
        self.groups.push(Group {
            capacity,
            ..Group::default()
        });
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

    /// Updates the capacity of a constraint. All members keep rates
    /// proportional to their weights, so the completion heap stays
    /// ordered and the update is `O(1)`.
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
            let g = &mut self.groups[id.0];
            g.capacity = capacity;
            g.settle_rate();
        }
    }

    /// Registers a new flow: `O(log n)` — one heap push plus one ratio
    /// multiset update on its home group; nobody's rate is re-solved.
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

        // Home group: the smallest-capacity finite constraint at insert.
        // On equal-share topologies this is the unique binding constraint;
        // the others are assumed slack (see module docs).
        let home = spec
            .constraints
            .iter()
            .filter(|c| self.capacities[c.0].is_finite())
            .min_by(|a, b| self.capacities[a.0].total_cmp(&self.capacities[b.0]))
            .map(|c| c.0 as u32);

        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.epochs.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.gens[idx as usize];
        let id = make_id(idx, gen);

        let mut slot = Slot {
            gen,
            weight: spec.weight,
            rate_cap: spec.rate_cap,
            bytes: spec.bytes,
            cap_ratio: spec.rate_cap / spec.weight,
            remaining: spec.bytes,
            transferred: 0.0,
            settled_v: 0.0,
            home,
            residence: Residence::Starved,
        };

        if spec.bytes <= completion_threshold(spec.bytes) {
            slot.remaining = 0.0;
            slot.residence = Residence::Complete;
            self.slots[idx as usize] = Some(slot);
            self.finished.insert(id);
            return id;
        }

        self.enter(idx, &mut slot);
        let starved = slot.residence == Residence::Starved;
        self.slots[idx as usize] = Some(slot);
        if starved {
            self.starved.insert(id);
        }
        id
    }

    /// Puts an active-eligible flow into its group (or the lone group),
    /// assigning its virtual finish tag from its settled remaining bytes.
    fn enter(&mut self, idx: u32, slot: &mut Slot) {
        let epoch = self.epochs[idx as usize];
        match slot.home {
            Some(g) => {
                let group = &mut self.groups[g as usize];
                slot.settled_v = group.virt;
                let finish_v = group.virt + slot.remaining / slot.weight;
                group.add_member(slot.weight, slot.cap_ratio);
                group.heap.push(Reverse((finish_v.to_bits(), idx, epoch)));
                self.work.heap_pushes += 1;
                slot.residence = Residence::Group(g);
            }
            None if slot.rate_cap.is_finite() => {
                slot.settled_v = self.lone.virt;
                let finish_v = self.lone.virt + slot.remaining / slot.rate_cap;
                self.lone.members += 1;
                self.lone
                    .heap
                    .push(Reverse((finish_v.to_bits(), idx, epoch)));
                self.work.heap_pushes += 1;
                slot.residence = Residence::Lone;
            }
            None => {
                // No finite constraint and no finite cap: starved, like
                // the fluid model's degenerate infinite-on-infinite case.
                slot.residence = Residence::Starved;
            }
        }
    }

    /// Brings a flow's byte counters up to the present using the virtual
    /// time elapsed since its last settlement, then drops it from its
    /// group (`O(log n)`: one multiset update; the heap entry dies lazily
    /// via the epoch bump). No-op for inactive flows.
    fn settle_and_leave(&mut self, idx: u32) {
        let slot = live(&mut self.slots[idx as usize]);
        match slot.residence {
            Residence::Group(g) => {
                let group = &mut self.groups[g as usize];
                let dv = (group.virt - slot.settled_v).max(0.0);
                let moved = (slot.weight * dv).min(slot.remaining);
                // simlint: allow(R5, moved is clamped to remaining and completion snaps counters exactly)
                slot.remaining -= moved;
                slot.transferred += moved;
                slot.settled_v = group.virt;
                let (w, r) = (slot.weight, slot.cap_ratio);
                group.remove_member(w, r);
                self.epochs[idx as usize] = self.epochs[idx as usize].wrapping_add(1);
            }
            Residence::Lone => {
                let dv = (self.lone.virt - slot.settled_v).max(0.0);
                let moved = (slot.rate_cap * dv).min(slot.remaining);
                // simlint: allow(R5, moved is clamped to remaining and completion snaps counters exactly)
                slot.remaining -= moved;
                slot.transferred += moved;
                slot.settled_v = self.lone.virt;
                self.lone.members -= 1;
                self.epochs[idx as usize] = self.epochs[idx as usize].wrapping_add(1);
            }
            Residence::Starved | Residence::Paused | Residence::Complete => {}
        }
    }

    /// Removes a flow (complete or not) and returns its final progress.
    pub fn remove_flow(&mut self, id: FlowId) -> Option<FlowProgress> {
        let idx = self.lookup(id)?;
        self.settle_and_leave(idx);
        let slot = take_live(&mut self.slots[idx as usize]);
        self.finished.remove(&id);
        self.starved.remove(&id);
        self.gens[idx as usize] = self.gens[idx as usize].wrapping_add(1);
        self.epochs[idx as usize] = self.epochs[idx as usize].wrapping_add(1);
        self.free.push(idx);
        Some(FlowProgress {
            remaining: slot.remaining,
            transferred: slot.transferred,
            rate: 0.0,
            paused: slot.residence == Residence::Paused,
        })
    }

    /// Pauses a flow: settles its bytes, removes its weight and cap ratio
    /// from the group, and lazily invalidates its heap entry. `O(log n)`.
    pub fn pause_flow(&mut self, id: FlowId) {
        let Some(idx) = self.lookup(id) else {
            return;
        };
        match live_ref(&self.slots[idx as usize]).residence {
            Residence::Paused | Residence::Complete => {}
            Residence::Starved => {
                self.starved.remove(&id);
                live(&mut self.slots[idx as usize]).residence = Residence::Paused;
            }
            Residence::Group(_) | Residence::Lone => {
                self.settle_and_leave(idx);
                live(&mut self.slots[idx as usize]).residence = Residence::Paused;
            }
        }
    }

    /// Resumes a paused flow: re-predicts its completion from its settled
    /// remaining bytes and pushes it back on the heap. `O(log n)`.
    pub fn resume_flow(&mut self, id: FlowId) {
        let Some(idx) = self.lookup(id) else {
            return;
        };
        if live_ref(&self.slots[idx as usize]).residence != Residence::Paused {
            return;
        }
        let mut slot = take_live(&mut self.slots[idx as usize]);
        if slot.remaining <= completion_threshold(slot.bytes) {
            slot.remaining = 0.0;
            slot.residence = Residence::Complete;
            self.slots[idx as usize] = Some(slot);
            self.finished.insert(id);
            self.newly_completed.push(id);
            self.work.flows_completed += 1;
            return;
        }
        self.enter(idx, &mut slot);
        let starved = slot.residence == Residence::Starved;
        self.slots[idx as usize] = Some(slot);
        if starved {
            self.starved.insert(id);
        }
    }

    /// Returns the progress snapshot of a flow (settling it first).
    pub fn progress(&mut self, id: FlowId) -> Option<FlowProgress> {
        let idx = self.lookup(id)?;
        self.settle_in_place(idx);
        let slot = live_ref(&self.slots[idx as usize]);
        Some(FlowProgress {
            remaining: slot.remaining,
            transferred: slot.transferred,
            rate: self.slot_rate(slot),
            paused: slot.residence == Residence::Paused,
        })
    }

    /// Settles a flow's byte counters without leaving its group.
    fn settle_in_place(&mut self, idx: u32) {
        let lone_virt = self.lone.virt;
        let group_virts: &[Group] = &self.groups;
        let slot = live(&mut self.slots[idx as usize]);
        let dv_bytes = match slot.residence {
            Residence::Group(g) => {
                let v = group_virts[g as usize].virt;
                let dv = (v - slot.settled_v).max(0.0);
                slot.settled_v = v;
                slot.weight * dv
            }
            Residence::Lone => {
                let dv = (lone_virt - slot.settled_v).max(0.0);
                slot.settled_v = lone_virt;
                slot.rate_cap * dv
            }
            _ => 0.0,
        };
        let moved = dv_bytes.min(slot.remaining);
        // simlint: allow(R5, moved is clamped to remaining and completion snaps counters exactly)
        slot.remaining -= moved;
        slot.transferred += moved;
    }

    /// True if the flow has transferred all of its bytes.
    pub fn is_complete(&self, id: FlowId) -> bool {
        let Some(idx) = self.lookup(id) else {
            return false;
        };
        let slot = live_ref(&self.slots[idx as usize]);
        let remaining = match slot.residence {
            Residence::Complete => return true,
            Residence::Group(g) => {
                let v = self.groups[g as usize].virt;
                slot.remaining - slot.weight * (v - slot.settled_v).max(0.0)
            }
            Residence::Lone => {
                slot.remaining - slot.rate_cap * (self.lone.virt - slot.settled_v).max(0.0)
            }
            _ => slot.remaining,
        };
        remaining <= completion_threshold(slot.bytes)
    }

    /// Number of registered flows (complete flows stay registered until
    /// removed).
    pub fn flow_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Iterates over all flow ids in deterministic (arena index) order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| make_id(i as u32, s.gen)))
    }

    /// Current rate of a flow in bytes/s.
    pub fn rate(&mut self, id: FlowId) -> f64 {
        match self.lookup(id) {
            Some(idx) => self.slot_rate(live_ref(&self.slots[idx as usize])),
            None => 0.0,
        }
    }

    fn slot_rate(&self, slot: &Slot) -> f64 {
        match slot.residence {
            Residence::Group(g) => slot.weight * self.groups[g as usize].rate_v,
            Residence::Lone => slot.rate_cap,
            _ => 0.0,
        }
    }

    /// Aggregate rate (bytes/s) over all active flows: `O(groups)`, plus
    /// a slot scan only when lone flows exist.
    pub fn aggregate_rate(&mut self) -> f64 {
        let mut total: f64 = self.groups.iter().map(|g| g.weight * g.rate_v).sum();
        if self.lone.members > 0 {
            self.work.members_visited += self.slots.len() as u64;
            total += self
                .slots
                .iter()
                .flatten()
                .filter(|s| s.residence == Residence::Lone)
                .map(|s| s.rate_cap)
                .sum::<f64>();
        }
        total
    }

    /// Time until the earliest active flow completes at current rates, or
    /// `None` if no active flow is making progress: `O(groups)` plus
    /// amortized cleanup of lazily deleted heap entries.
    pub fn time_to_next_completion(&mut self) -> Option<SimDuration> {
        let mut best: Option<f64> = None;
        for g in 0..self.groups.len() {
            if let Some(t) = self.group_ttc(g) {
                best = Some(best.map_or(t, |b: f64| b.min(t)));
            }
        }
        if let Some(t) = self.lone_ttc() {
            best = Some(best.map_or(t, |b: f64| b.min(t)));
        }
        best.map(SimDuration::from_secs)
    }

    /// Pops stale heap entries until the top is a live member, then
    /// converts its virtual deadline into seconds. Groups pinned at rate
    /// zero are skipped — their members never complete (see
    /// [`VtFairNetwork::stalled_flows`]).
    fn group_ttc(&mut self, g: usize) -> Option<f64> {
        let top = loop {
            let &Reverse((bits, idx, epoch)) = self.groups[g].heap.peek()?;
            if self.entry_live(idx, epoch, Residence::Group(g as u32)) {
                break f64::from_bits(bits);
            }
            self.groups[g].heap.pop();
            self.work.stale_skipped += 1;
        };
        let group = &self.groups[g];
        if group.rate_v <= EPS {
            return None;
        }
        Some((top - group.virt).max(0.0) / group.rate_v)
    }

    fn lone_ttc(&mut self) -> Option<f64> {
        let top = loop {
            let &Reverse((bits, idx, epoch)) = self.lone.heap.peek()?;
            if self.entry_live(idx, epoch, Residence::Lone) {
                break f64::from_bits(bits);
            }
            self.lone.heap.pop();
            self.work.stale_skipped += 1;
        };
        Some((top - self.lone.virt).max(0.0))
    }

    fn entry_live(&self, idx: u32, epoch: u32, expect: Residence) -> bool {
        self.epochs[idx as usize] == epoch
            && matches!(&self.slots[idx as usize], Some(s) if s.residence == expect)
    }

    /// Advances every active flow by `dt` at its current rate:
    /// `O(groups + completions · log n)` — one virtual-clock bump per
    /// group, then completions pop off the heaps in finish order.
    pub fn advance(&mut self, dt: SimDuration) {
        let secs = dt.as_secs();
        if secs <= 0.0 {
            return;
        }
        for g in 0..self.groups.len() {
            let group = &mut self.groups[g];
            if group.members > 0 && group.rate_v > EPS {
                group.virt += group.rate_v * secs;
            }
            self.pop_group_completions(g);
        }
        if self.lone.members > 0 {
            self.lone.virt += secs;
        }
        self.pop_lone_completions();
    }

    fn pop_group_completions(&mut self, g: usize) {
        loop {
            let Some(&Reverse((bits, idx, epoch))) = self.groups[g].heap.peek() else {
                return;
            };
            if !self.entry_live(idx, epoch, Residence::Group(g as u32)) {
                self.groups[g].heap.pop();
                self.work.stale_skipped += 1;
                continue;
            }
            let virt = self.groups[g].virt;
            let (weight, threshold) = {
                let s = live_ref(&self.slots[idx as usize]);
                (s.weight, completion_threshold(s.bytes))
            };
            if (f64::from_bits(bits) - virt) * weight > threshold {
                return;
            }
            self.groups[g].heap.pop();
            self.work.heap_pops += 1;
            self.complete_slot(idx);
        }
    }

    fn pop_lone_completions(&mut self) {
        loop {
            let Some(&Reverse((bits, idx, epoch))) = self.lone.heap.peek() else {
                return;
            };
            if !self.entry_live(idx, epoch, Residence::Lone) {
                self.lone.heap.pop();
                self.work.stale_skipped += 1;
                continue;
            }
            let (cap, threshold) = {
                let s = live_ref(&self.slots[idx as usize]);
                (s.rate_cap, completion_threshold(s.bytes))
            };
            if (f64::from_bits(bits) - self.lone.virt) * cap > threshold {
                return;
            }
            self.lone.heap.pop();
            self.work.heap_pops += 1;
            self.complete_slot(idx);
        }
    }

    /// Finalizes a completed flow: snap the byte counters, release its
    /// share of the group, queue it for
    /// [`VtFairNetwork::drain_completed`].
    fn complete_slot(&mut self, idx: u32) {
        self.settle_and_leave(idx);
        let slot = live(&mut self.slots[idx as usize]);
        slot.transferred = slot.bytes;
        slot.remaining = 0.0;
        slot.residence = Residence::Complete;
        let id = make_id(idx, slot.gen);
        self.finished.insert(id);
        self.newly_completed.push(id);
        self.work.flows_completed += 1;
    }

    /// Flows that completed since the last call, in completion order.
    pub fn drain_completed(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.newly_completed)
    }

    /// Flows that are complete but still registered.
    pub fn completed_flows(&self) -> Vec<FlowId> {
        self.finished.iter().copied().collect()
    }

    /// Active (unpaused, incomplete) flows currently pinned at rate zero:
    /// starved flows plus members of groups whose per-weight rate is zero
    /// (e.g. a zero-capacity constraint). Such flows never produce a
    /// completion event, so a session driving the network would hang
    /// without detecting them.
    pub fn stalled_flows(&mut self) -> Vec<FlowId> {
        self.work.members_visited += self.slots.len() as u64;
        let mut out: Vec<FlowId> = self.starved.iter().copied().collect();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            if let Residence::Group(g) = slot.residence {
                if self.groups[g as usize].rate_v <= EPS {
                    out.push(make_id(i as u32, slot.gen));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Forces a from-scratch resync of every group's aggregate state
    /// (normally maintained incrementally). Kept as a debugging aid and
    /// for API parity with the fluid solver's `recompute`.
    pub fn recompute(&mut self) {
        self.work.members_visited += self.slots.len() as u64;
        for g in &mut self.groups {
            g.weight = 0.0;
            g.members = 0;
            g.ratios.clear();
        }
        for slot in self.slots.iter().flatten() {
            if let Residence::Group(g) = slot.residence {
                let group = &mut self.groups[g as usize];
                group.weight += slot.weight;
                group.members += 1;
                *group.ratios.entry(slot.cap_ratio.to_bits()).or_insert(0) += 1;
            }
        }
        for g in &mut self.groups {
            g.settle_rate();
        }
    }

    /// Heap operations and arena visits so far (see [`Work`]).
    pub fn work(&self) -> Work {
        self.work
    }

    /// Validates an external id against the arena.
    fn lookup(&self, id: FlowId) -> Option<u32> {
        let (idx, gen) = split_id(id);
        let slot = self.slots.get(idx as usize)?.as_ref()?;
        (slot.gen == gen).then_some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FluidNetwork;

    fn secs(d: Option<SimDuration>) -> f64 {
        d.expect("expected a completion time").as_secs()
    }

    #[test]
    fn sharing_model_labels_round_trip() {
        for m in [SharingModel::MaxMin, SharingModel::FairFast] {
            assert_eq!(SharingModel::from_label(m.label()), Some(m));
        }
        assert_eq!(SharingModel::from_label("bogus"), None);
        assert_eq!(SharingModel::default(), SharingModel::MaxMin);
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_constraint() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(1000.0, 1.0, 250.0, vec![c]));
        assert!((net.rate(f) - 100.0).abs() < 1e-9);
        let g = net.add_flow(FlowSpec::new(1000.0, 1.0, 30.0, vec![c]));
        // k_min = 30 now caps the whole group per unit weight.
        assert!((net.rate(g) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_split_capacity_evenly() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(90.0);
        let ids: Vec<_> = (0..3)
            .map(|_| net.add_flow(FlowSpec::new(900.0, 1.0, f64::INFINITY, vec![c])))
            .collect();
        for id in &ids {
            assert!((net.rate(*id) - 30.0).abs() < 1e-9);
        }
        assert!((net.aggregate_rate() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_flows_share_proportionally() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(120.0);
        let a = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![c]));
        let b = net.add_flow(FlowSpec::new(1e6, 2.0, f64::INFINITY, vec![c]));
        assert!((net.rate(a) - 40.0).abs() < 1e-9);
        assert!((net.rate(b) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn completion_happens_in_finish_tag_order() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let small = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![c]));
        let big = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![c]));
        // Both run at 50; small finishes at t=2.
        let t = secs(net.time_to_next_completion());
        assert!((t - 2.0).abs() < 1e-9);
        net.advance(SimDuration::from_secs(t));
        assert_eq!(net.drain_completed(), vec![small]);
        assert!(net.is_complete(small));
        assert!(!net.is_complete(big));
        // Big now runs alone at 100 with 900 left.
        assert!((net.rate(big) - 100.0).abs() < 1e-9);
        let t2 = secs(net.time_to_next_completion());
        assert!((t2 - 9.0).abs() < 1e-6);
        net.advance(SimDuration::from_secs(t2));
        assert_eq!(net.drain_completed(), vec![big]);
    }

    #[test]
    fn late_insert_slows_the_incumbent() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![c]));
        net.advance(SimDuration::from_secs(2.0)); // a: 800 left
        let b = net.add_flow(FlowSpec::new(400.0, 1.0, f64::INFINITY, vec![c]));
        assert!((net.rate(a) - 50.0).abs() < 1e-9);
        assert!((net.rate(b) - 50.0).abs() < 1e-9);
        // b finishes first: 400 / 50 = 8s.
        let t = secs(net.time_to_next_completion());
        assert!((t - 8.0).abs() < 1e-6);
        net.advance(SimDuration::from_secs(t));
        assert_eq!(net.drain_completed(), vec![b]);
        let pa = net.progress(a).unwrap();
        assert!((pa.remaining - 400.0).abs() < 1e-3);
    }

    #[test]
    fn pause_resume_preserves_bytes_and_membership() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![c]));
        let b = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![c]));
        net.advance(SimDuration::from_secs(4.0)); // both at 50 → 800 left
        net.pause_flow(a);
        let pa = net.progress(a).unwrap();
        assert!(pa.paused);
        assert!((pa.remaining - 800.0).abs() < 1e-6);
        assert!(net.rate(a).abs() < 1e-12);
        // b now owns the full capacity.
        assert!((net.rate(b) - 100.0).abs() < 1e-9);
        net.advance(SimDuration::from_secs(2.0)); // b: 600 left, a frozen
        net.resume_flow(a);
        assert!((net.rate(a) - 50.0).abs() < 1e-9);
        let pa = net.progress(a).unwrap();
        assert!((pa.remaining - 800.0).abs() < 1e-6);
        let pb = net.progress(b).unwrap();
        assert!((pb.remaining - 600.0).abs() < 1e-6);
    }

    #[test]
    fn work_counts_every_heap_operation() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![c]));
        net.pause_flow(a);
        net.resume_flow(a);
        net.advance(SimDuration::from_secs(2.0));
        assert_eq!(net.drain_completed(), vec![a]);
        net.stalled_flows();
        // Insert and resume push; the pause left one stale entry behind,
        // skipped before the live one pops.
        assert_eq!(
            net.work(),
            Work {
                flows_completed: 1,
                heap_pushes: 2,
                heap_pops: 1,
                stale_skipped: 1,
                members_visited: 1,
                ..Work::default()
            }
        );
    }

    #[test]
    fn remove_returns_final_progress_and_recycles_the_slot() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![c]));
        net.advance(SimDuration::from_secs(3.0));
        let p = net.remove_flow(a).unwrap();
        assert!((p.transferred - 300.0).abs() < 1e-6);
        assert!((p.remaining - 700.0).abs() < 1e-6);
        assert_eq!(net.flow_count(), 0);
        // The recycled slot mints a distinct id; the old id is dead.
        let b = net.add_flow(FlowSpec::new(10.0, 1.0, f64::INFINITY, vec![c]));
        assert_ne!(a, b);
        assert!(net.remove_flow(a).is_none());
        assert!(net.progress(b).is_some());
    }

    #[test]
    fn zero_capacity_constraint_starves_flows() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(0.0);
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![c]));
        assert!(net.rate(f).abs() < 1e-12);
        assert!(net.time_to_next_completion().is_none());
        assert_eq!(net.stalled_flows(), vec![f]);
        net.advance(SimDuration::from_secs(10.0));
        assert!(!net.is_complete(f));
    }

    #[test]
    fn uncapped_flow_on_infinite_constraint_is_starved_not_stuck() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(f64::INFINITY);
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![c]));
        assert!(net.rate(f).abs() < 1e-12);
        assert!(net.time_to_next_completion().is_none());
        assert_eq!(net.stalled_flows(), vec![f]);
        // Pausing and resuming a starved flow keeps it tracked, not lost.
        net.pause_flow(f);
        assert!(net.stalled_flows().is_empty());
        net.resume_flow(f);
        assert_eq!(net.stalled_flows(), vec![f]);
    }

    #[test]
    fn capped_flow_without_constraint_runs_lone_at_cap() {
        let mut net = VtFairNetwork::new();
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, 20.0, vec![]));
        assert!((net.rate(f) - 20.0).abs() < 1e-9);
        let t = secs(net.time_to_next_completion());
        assert!((t - 5.0).abs() < 1e-9);
        net.advance(SimDuration::from_secs(t));
        assert_eq!(net.drain_completed(), vec![f]);
        assert!(net.is_complete(f));
    }

    #[test]
    fn zero_byte_flow_is_complete_immediately() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(0.0, 1.0, f64::INFINITY, vec![c]));
        assert!(net.is_complete(f));
        assert_eq!(net.completed_flows(), vec![f]);
        // It holds no share of the capacity.
        let g = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![c]));
        assert!((net.rate(g) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn set_capacity_rescales_without_reordering() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let small = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![c]));
        let big = net.add_flow(FlowSpec::new(300.0, 1.0, f64::INFINITY, vec![c]));
        net.set_capacity(c, 50.0);
        assert!((net.rate(small) - 25.0).abs() < 1e-9);
        let t = secs(net.time_to_next_completion());
        assert!((t - 4.0).abs() < 1e-9);
        net.advance(SimDuration::from_secs(t));
        assert_eq!(net.drain_completed(), vec![small]);
        assert!(!net.is_complete(big));
    }

    #[test]
    fn advance_past_all_completions_is_a_fixpoint() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![c]));
        net.advance(SimDuration::from_secs(100.0));
        assert!(net.is_complete(f));
        assert_eq!(net.drain_completed(), vec![f]);
        net.advance(SimDuration::from_secs(100.0));
        assert!(net.drain_completed().is_empty());
        let p = net.progress(f).unwrap();
        assert!((p.transferred - 100.0).abs() < 1e-9);
        assert_eq!(p.remaining, 0.0);
    }

    #[test]
    fn recompute_matches_incremental_state() {
        let mut net = VtFairNetwork::new();
        let c = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1000.0, 2.0, 80.0, vec![c]));
        let _b = net.add_flow(FlowSpec::new(1000.0, 3.0, 90.0, vec![c]));
        net.advance(SimDuration::from_secs(1.0));
        let before = net.rate(a);
        net.recompute();
        assert!((net.rate(a) - before).abs() < 1e-12);
    }

    /// Spot differential check against the fluid solver on an equal-share
    /// topology (the randomized version lives in tests/properties.rs).
    #[test]
    fn matches_fluid_on_an_equal_share_group() {
        let mut fair = VtFairNetwork::new();
        let mut fluid = FluidNetwork::new();
        let cf = fair.add_constraint(100.0);
        let cl = fluid.add_constraint(100.0);
        let specs = [(300.0, 2.0), (500.0, 1.0), (900.0, 3.0)];
        let fair_ids: Vec<_> = specs
            .iter()
            .map(|&(b, w)| fair.add_flow(FlowSpec::new(b, w, 40.0 * w, vec![cf])))
            .collect();
        let fluid_ids: Vec<_> = specs
            .iter()
            .map(|&(b, w)| fluid.add_flow(FlowSpec::new(b, w, 40.0 * w, vec![cl])))
            .collect();
        for _ in 0..6 {
            let tf = fair.time_to_next_completion().map(|d| d.as_secs());
            let tl = fluid.time_to_next_completion().map(|d| d.as_secs());
            match (tf, tl) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-6, "ttc diverged: {a} vs {b}");
                    let dt = SimDuration::from_secs(a.max(b));
                    fair.advance(dt);
                    fluid.advance(dt);
                    for (fa, fl) in fair_ids.iter().zip(&fluid_ids) {
                        let pa = fair.progress(*fa).unwrap();
                        let pb = fluid.progress(*fl).unwrap();
                        assert!(
                            (pa.remaining - pb.remaining).abs() < 1e-2,
                            "remaining diverged: {} vs {}",
                            pa.remaining,
                            pb.remaining
                        );
                    }
                }
                _ => panic!("one model sees a completion, the other does not"),
            }
        }
        assert!(fair_ids.iter().all(|f| fair.is_complete(*f)));
    }
}
