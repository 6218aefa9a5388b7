//! Hierarchical multi-machine arbitration: an arbiter tree over a shared
//! parallel file system.
//!
//! The paper coordinates applications sharing *one* machine's I/O system;
//! real centers run many machines against one shared PFS. This module
//! generalizes the coordination layer to a two-level tree:
//!
//! * **Leaves** — one full [`Arbiter`] per machine (mechanism engine +
//!   pluggable policy, exactly the flat code path). Applications only ever
//!   talk to their own machine's leaf, so [`Session`](crate::Session) and
//!   the policy layer run unchanged.
//! * **Root** — owns a fixed number of shared-PFS bandwidth *slots*. A
//!   machine whose leaf has admitted work but that holds no slot
//!   *escalates* to the root; the root grants a free slot or queues the
//!   machine FIFO. Escalations piggyback an aggregated per-machine
//!   [`MachineLoad`] rollup of the leaf's shared [`IoInfo`](crate::IoInfo) — per-machine
//!   aggregates cross the tree, never per-application fan-in.
//!
//! Cross-arbiter messages (escalation, grant, slot return) travel with a
//! **modeled simulated-time latency**, configurable per machine edge: a
//! grant issued by the root at `t` lands on machine `m` at
//! `t + latency(m)`, and only then do the machine's applications become
//! granted end-to-end. The in-flight message queue is surfaced to the
//! driver through [`CoordinationTransport::next_wakeup`] /
//! [`CoordinationTransport::deliver_due`].
//!
//! **Starvation freedom** comes from two mechanisms: the root queue is
//! FIFO, and a machine holding a slot while others queue is *revoked*
//! after a rotation quantum ([`ClusterSpec::quantum`]) — it re-escalates
//! at the back of the queue if it still has work. A machine that goes
//! idle returns its slot as soon as anyone is queued.
//!
//! **Exactness envelope**: a 1-machine cluster never escalates (its slot
//! is assigned at construction and the root queue stays empty), so its
//! schedule — and its golden trace hash — is bit-identical to the flat
//! arbiter's. Slot revocation never interrupts an I/O step already in
//! flight; it only gates *future* grants, mirroring how the flat arbiter
//! only takes decisions at coordination points.

use crate::api::CoordinationTransport;
use crate::arbiter::Arbiter;
use crate::error::{ClusterConfigError, ConfigError, ScenarioParseError};
use crate::scenario::{invalid, Scenario};
use pfs::AppId;
use simcore::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// Default slot-rotation quantum: how long a machine may hold a
/// shared-PFS slot while other machines are queued at the root.
pub const DEFAULT_QUANTUM: SimDuration = SimDuration::from_ticks(30_000_000);

/// Topology of a hierarchical cluster: how many shared-PFS slots the root
/// arbiter owns and which applications run on which machine.
///
/// Carried by [`Scenario::cluster`]; a scenario without one runs the flat,
/// single-arbiter code path. Encoded as the optional `cluster =` key of
/// the scenario text codec (see [`ClusterSpec::to_text`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of shared-PFS bandwidth slots the root arbiter owns —
    /// machines holding a slot may let their applications do I/O.
    pub slots: u32,
    /// Rotation quantum: a machine holding a slot while others are queued
    /// is revoked after this long and re-escalates at the back of the
    /// FIFO (the starvation-freedom bound).
    pub quantum: SimDuration,
    /// The machines, in machine-index order.
    pub machines: Vec<MachineSpec>,
}

/// One machine of a [`ClusterSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// One-way cross-arbiter message latency between this machine's leaf
    /// and the root (escalations travel up with it, grants down with it).
    pub latency: SimDuration,
    /// The applications assigned to this machine.
    pub apps: Vec<AppId>,
}

impl ClusterSpec {
    /// Creates a spec with the default rotation quantum
    /// ([`DEFAULT_QUANTUM`]).
    pub fn new(slots: u32, machines: Vec<MachineSpec>) -> Self {
        ClusterSpec {
            slots,
            quantum: DEFAULT_QUANTUM,
            machines,
        }
    }

    /// Serializes the spec as the single-line value of the scenario
    /// codec's `cluster =` key, e.g.
    /// `slots=1 quantum_ticks=30000000 machine lat_ticks=2000 apps=0,1 machine lat_ticks=0 apps=2`.
    /// Integer ticks only, so the encoding round-trips exactly.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "slots={} quantum_ticks={}",
            self.slots,
            self.quantum.ticks()
        );
        for machine in &self.machines {
            out.push_str(&format!(
                " machine lat_ticks={} apps={}",
                machine.latency.ticks(),
                machine
                    .apps
                    .iter()
                    .map(|a| a.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        out
    }

    /// Parses the encoding produced by [`ClusterSpec::to_text`].
    pub fn from_text(text: &str) -> Result<ClusterSpec, ScenarioParseError> {
        /// Pops the next token and unwraps its `name=` prefix.
        fn field<'a>(
            tokens: &mut impl Iterator<Item = &'a str>,
            name: &str,
            full: &str,
        ) -> Result<String, ScenarioParseError> {
            tokens
                .next()
                .and_then(|t| t.strip_prefix(name))
                .and_then(|t| t.strip_prefix('='))
                .map(str::to_string)
                .ok_or_else(|| invalid("cluster", full))
        }
        let bad = || invalid::<ScenarioParseError>("cluster", text);
        let mut tokens = text.split_whitespace().peekable();
        let slots: u32 = field(&mut tokens, "slots", text)?
            .parse()
            .map_err(|_| bad())?;
        let quantum = SimDuration::from_ticks(
            field(&mut tokens, "quantum_ticks", text)?
                .parse()
                .map_err(|_| bad())?,
        );
        let mut machines = Vec::new();
        while tokens.peek().is_some() {
            if tokens.next() != Some("machine") {
                return Err(bad());
            }
            let latency = SimDuration::from_ticks(
                field(&mut tokens, "lat_ticks", text)?
                    .parse()
                    .map_err(|_| bad())?,
            );
            let apps_field = field(&mut tokens, "apps", text)?;
            let apps = if apps_field.is_empty() {
                Vec::new()
            } else {
                apps_field
                    .split(',')
                    .map(|t| t.parse().map(AppId).map_err(|_| bad()))
                    .collect::<Result<Vec<_>, _>>()?
            };
            machines.push(MachineSpec { latency, apps });
        }
        Ok(ClusterSpec {
            slots,
            quantum,
            machines,
        })
    }

    /// Validates the topology against the scenario's application list:
    /// every application must be assigned to exactly one machine, no
    /// machine may list an unknown application, and the tree needs at
    /// least one machine and one slot.
    pub fn validate(
        &self,
        apps: impl IntoIterator<Item = AppId>,
    ) -> Result<(), ClusterConfigError> {
        if self.machines.is_empty() {
            return Err(ClusterConfigError::NoMachines);
        }
        if self.slots == 0 {
            return Err(ClusterConfigError::NoSlots);
        }
        let known: BTreeSet<AppId> = apps.into_iter().collect();
        let mut assigned = BTreeSet::new();
        for machine in &self.machines {
            for &app in &machine.apps {
                if !known.contains(&app) {
                    return Err(ClusterConfigError::UnknownApp(app));
                }
                if !assigned.insert(app) {
                    return Err(ClusterConfigError::DuplicateAssignment(app));
                }
            }
        }
        if let Some(&orphan) = known.difference(&assigned).next() {
            return Err(ClusterConfigError::UnassignedApp(orphan));
        }
        Ok(())
    }

    /// Application → machine-index routing table.
    fn machine_of(&self) -> BTreeMap<AppId, usize> {
        let mut map = BTreeMap::new();
        for (m, machine) in self.machines.iter().enumerate() {
            for &app in &machine.apps {
                map.insert(app, m);
            }
        }
        map
    }
}

/// Aggregated per-machine load rollup — the *only* information a leaf
/// shares with the root (the IoInfo aggregation contract: per-machine
/// sums cross the tree, never per-application records). Snapshotted from
/// the leaf's shared [`crate::IoInfo`] at escalation time and piggybacked
/// on the escalation message, so the exchange costs no extra messages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MachineLoad {
    /// Applications that have shared information on this machine.
    pub apps: u32,
    /// Total processes behind them.
    pub procs: u64,
    /// Total bytes they still intend to write.
    pub bytes_remaining: f64,
    /// Sum of their estimated remaining stand-alone I/O times (seconds).
    pub est_alone_remaining_secs: f64,
}

impl MachineLoad {
    /// Rolls up a leaf arbiter's shared information.
    fn aggregate(leaf: &Arbiter) -> MachineLoad {
        let mut load = MachineLoad::default();
        for info in leaf.infos() {
            load.apps += 1;
            load.procs += u64::from(info.procs);
            load.bytes_remaining += info.bytes_remaining;
            load.est_alone_remaining_secs += info.est_alone_remaining_secs;
        }
        load
    }
}

/// Message-accounting snapshot of a [`ClusterTransport`] — the quantities
/// the flat-vs-hierarchical cost study (`fig15_cluster`) compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Number of machines in the tree.
    pub machines: usize,
    /// Shared-PFS slots the root owns.
    pub slots: u32,
    /// Leaf → root slot requests (each carries one [`MachineLoad`]).
    pub escalations: u64,
    /// Root → leaf slot grants.
    pub root_grants: u64,
    /// Leaf → root slot returns (idle hand-backs and quantum revocations).
    pub slot_returns: u64,
    /// Sum of the per-leaf protocol messages (the flat-arbiter count each
    /// machine would report on its own).
    pub leaf_messages: u64,
}

impl ClusterStats {
    /// Messages that crossed the tree: exactly one per escalation, grant
    /// and return — *exactly linear* in the number of escalations (each
    /// escalation triggers at most one grant, each grant at most one
    /// later return), never per-application fan-in.
    pub fn root_messages(&self) -> u64 {
        self.escalations + self.root_grants + self.slot_returns
    }

    /// Leaf plus cross-arbiter messages — what
    /// [`CoordinationTransport::message_count`] reports for the tree.
    pub fn total_messages(&self) -> u64 {
        self.leaf_messages + self.root_messages()
    }
}

/// Where a machine stands with respect to a shared-PFS slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Holds no slot and asked for none.
    Idle,
    /// Escalation in flight towards the root.
    Requesting,
    /// Escalation arrived; the machine is queued FIFO at the root.
    Queued,
    /// The root granted a slot; the grant message is still in flight.
    GrantInFlight,
    /// Holds a slot — its leaf's grants are end-to-end.
    Holding,
}

/// An in-flight cross-arbiter message (the key of the delivery queue is
/// its arrival time plus a send sequence number, so delivery order is
/// deterministic).
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// A machine's slot request reaches the root (with its load rollup).
    Escalation(usize, MachineLoad),
    /// A returned slot reaches the root.
    SlotReturn,
    /// A slot grant reaches its machine.
    SlotGrant(usize),
}

/// The whole tree, behind the transport's one lock.
#[derive(Debug)]
struct ClusterState {
    /// One leaf arbiter per machine (same policy, independent state).
    leaves: Vec<Arbiter>,
    /// Application → machine index. Applications missing from the map
    /// (possible only for the degenerate single-machine transport built by
    /// [`CoordinationTransport::new`]) route to machine 0.
    machine_of: BTreeMap<AppId, usize>,
    /// One-way message latency per machine edge.
    latency: Vec<SimDuration>,
    /// Rotation quantum (see [`ClusterSpec::quantum`]).
    quantum: SimDuration,
    slot_state: Vec<SlotState>,
    /// When each currently-Holding machine received its slot.
    hold_since: Vec<SimTime>,
    /// Latest load rollup each machine escalated.
    loads: Vec<MachineLoad>,
    /// Total shared-PFS slots the root owns (configuration, for stats).
    slots: u32,
    free_slots: u32,
    /// Machines queued at the root, FIFO.
    root_queue: VecDeque<usize>,
    /// In-flight messages, keyed by (arrival time, send sequence).
    in_flight: BTreeMap<(SimTime, u64), Msg>,
    seq: u64,
    escalations: u64,
    root_grants: u64,
    slot_returns: u64,
    /// The tree's clock: the max of every driver-visible instant so far.
    now: SimTime,
}

impl ClusterState {
    fn build(machines: usize, slots: u32, quantum: SimDuration, arbiter: Arbiter) -> ClusterState {
        let held = machines.min(slots as usize);
        let mut leaves = Vec::with_capacity(machines);
        for _ in 1..machines {
            leaves.push(arbiter.clone());
        }
        leaves.insert(0, arbiter);
        ClusterState {
            leaves,
            machine_of: BTreeMap::new(),
            latency: vec![SimDuration::ZERO; machines],
            quantum,
            // The first `min(slots, machines)` machines hold a slot from
            // the start — with one machine the root is therefore never
            // consulted and the tree is bit-identical to the flat arbiter.
            slot_state: (0..machines)
                .map(|m| {
                    if m < held {
                        SlotState::Holding
                    } else {
                        SlotState::Idle
                    }
                })
                .collect(),
            hold_since: vec![SimTime::ZERO; machines],
            loads: vec![MachineLoad::default(); machines],
            slots,
            free_slots: slots - held as u32,
            root_queue: VecDeque::new(),
            in_flight: BTreeMap::new(),
            seq: 0,
            escalations: 0,
            root_grants: 0,
            slot_returns: 0,
            now: SimTime::ZERO,
        }
    }

    fn machine(&self, app: AppId) -> usize {
        self.machine_of.get(&app).copied().unwrap_or(0)
    }

    /// Whether `app` is granted *end-to-end*: its machine holds a
    /// shared-PFS slot and its leaf arbiter granted it.
    fn granted(&self, app: AppId) -> bool {
        let m = self.machine(app);
        self.slot_state[m] == SlotState::Holding && self.leaves[m].is_granted(app)
    }

    fn send(&mut self, at: SimTime, msg: Msg) {
        self.seq += 1;
        self.in_flight.insert((at, self.seq), msg);
    }

    /// Sends a slot grant for machine `m`, issued by the root at `at`.
    fn grant_slot(&mut self, m: usize, at: SimTime) {
        self.free_slots -= 1;
        self.root_grants += 1;
        self.slot_state[m] = SlotState::GrantInFlight;
        self.send(at + self.latency[m], Msg::SlotGrant(m));
    }

    /// Delivers every in-flight message that has arrived by `now` and
    /// performs due quantum rotations. Returns whether any message was
    /// delivered (i.e. whether a waiting application may have become
    /// granted end-to-end).
    fn pump(&mut self, now: SimTime) -> bool {
        self.now = self.now.max(now);
        let mut delivered = false;
        while let Some((&key, &msg)) = self.in_flight.first_key_value() {
            if key.0 > self.now {
                break;
            }
            let at = key.0;
            self.in_flight.remove(&key);
            delivered = true;
            match msg {
                Msg::Escalation(m, load) => {
                    self.escalations += 1;
                    self.loads[m] = load;
                    if self.slot_state[m] != SlotState::Requesting {
                        // The request was obsoleted in flight (e.g. the
                        // machine went idle and reconciliation cleared it).
                        continue;
                    }
                    if self.free_slots > 0 {
                        self.grant_slot(m, at);
                    } else {
                        self.slot_state[m] = SlotState::Queued;
                        self.root_queue.push_back(m);
                    }
                }
                Msg::SlotReturn => {
                    self.slot_returns += 1;
                    self.free_slots += 1;
                    if let Some(m) = self.root_queue.pop_front() {
                        self.grant_slot(m, at);
                    }
                }
                Msg::SlotGrant(m) => {
                    self.slot_state[m] = SlotState::Holding;
                    self.hold_since[m] = at;
                }
            }
        }
        // Quantum rotation: a machine holding a slot while others queue
        // is revoked once its quantum elapses; reconciliation re-escalates
        // it (at the back of the FIFO) if it still has work.
        for m in 0..self.leaves.len() {
            if self.slot_state[m] == SlotState::Holding
                && !self.root_queue.is_empty()
                && self.now >= self.hold_since[m] + self.quantum
            {
                self.revoke(m);
            }
        }
        delivered
    }

    /// Takes machine `m`'s slot away and sends the return towards the
    /// root (it arrives `latency(m)` later).
    fn revoke(&mut self, m: usize) {
        self.slot_state[m] = SlotState::Idle;
        let at = self.now + self.latency[m];
        self.send(at, Msg::SlotReturn);
    }

    /// Brings machine `m`'s slot state in line with its leaf's workload:
    /// escalate when the leaf has admitted work but holds no slot, hand
    /// the slot back when the leaf went idle while others are queued.
    fn reconcile(&mut self, m: usize) {
        let busy = self.leaves[m].active_count() > 0 || self.leaves[m].parked_count() > 0;
        match self.slot_state[m] {
            SlotState::Idle if busy => {
                self.slot_state[m] = SlotState::Requesting;
                let load = MachineLoad::aggregate(&self.leaves[m]);
                let at = self.now + self.latency[m];
                self.send(at, Msg::Escalation(m, load));
            }
            SlotState::Holding if !busy && !self.root_queue.is_empty() => {
                self.revoke(m);
            }
            _ => {}
        }
    }

    fn reconcile_all(&mut self) {
        for m in 0..self.leaves.len() {
            self.reconcile(m);
        }
    }

    /// The earliest instant the tree has self-driven work: an in-flight
    /// message arriving or a rotation falling due.
    fn next_wakeup(&self) -> Option<SimTime> {
        let message = self.in_flight.keys().next().map(|&(at, _)| at);
        let rotation = if self.root_queue.is_empty() {
            None
        } else {
            (0..self.leaves.len())
                .filter(|&m| self.slot_state[m] == SlotState::Holding)
                .map(|m| self.hold_since[m] + self.quantum)
                .min()
        };
        match (message, rotation) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// The waiting applications that are granted end-to-end, ascending.
    /// Walks the slot-holding machines' (small) active sets rather than
    /// the cluster-wide waiting set, so a release on one machine does not
    /// pay for every other machine's queue.
    fn granted_waiting(&self, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        let mut out: Vec<AppId> = self
            .leaves
            .iter()
            .enumerate()
            .filter(|&(m, _)| self.slot_state[m] == SlotState::Holding)
            .flat_map(|(_, leaf)| leaf.active())
            .filter(|app| waiting.contains(app))
            .collect();
        out.sort_unstable();
        out
    }

    fn stats(&self) -> ClusterStats {
        ClusterStats {
            machines: self.leaves.len(),
            slots: self.slots,
            escalations: self.escalations,
            root_grants: self.root_grants,
            slot_returns: self.slot_returns,
            leaf_messages: self.leaves.iter().map(Arbiter::message_count).sum(),
        }
    }
}

/// Hierarchical [`CoordinationTransport`]: per-machine leaf arbiters
/// under a slot-owning root, with modeled cross-arbiter message latency.
///
/// Built from a [`Scenario`] carrying a [`ClusterSpec`]
/// (`Session::<ClusterTransport>::with_transport`, or simply
/// [`Scenario::run`] which dispatches here automatically). `Send + Sync`
/// like [`SharedTransport`](crate::SharedTransport), so cluster sessions
/// fan out across the `iobench` shards unchanged.
#[derive(Debug, Clone)]
pub struct ClusterTransport {
    inner: Arc<Mutex<ClusterState>>,
}

impl ClusterTransport {
    /// Builds the arbiter tree for a validated spec; each machine's leaf
    /// is an independent copy of `arbiter` (same policy, fresh state).
    pub fn from_spec(spec: &ClusterSpec, arbiter: Arbiter) -> ClusterTransport {
        let mut state = ClusterState::build(spec.machines.len(), spec.slots, spec.quantum, arbiter);
        state.machine_of = spec.machine_of();
        state.latency = spec.machines.iter().map(|m| m.latency).collect();
        ClusterTransport {
            inner: Arc::new(Mutex::new(state)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ClusterState> {
        // Like SharedTransport: the state is a plain state machine, so a
        // poisoned lock is still usable.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Message-accounting snapshot (see [`ClusterStats`]).
    pub fn stats(&self) -> ClusterStats {
        self.lock().stats()
    }

    /// Latest load rollup escalated by each machine, in machine order —
    /// what the root knows about the cluster (the aggregation contract:
    /// nothing finer-grained ever crosses the tree).
    pub fn machine_loads(&self) -> Vec<MachineLoad> {
        self.lock().loads.clone()
    }

    /// Per-machine arbitration queue depth, in machine order: how many
    /// applications each leaf currently has parked. The root-side view
    /// load-aware placement decisions read.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.lock()
            .leaves
            .iter()
            .map(Arbiter::parked_count)
            .collect()
    }
}

impl CoordinationTransport for ClusterTransport {
    /// Degenerate single-machine tree (one leaf, one slot, zero latency):
    /// behaviorally identical to the flat transports.
    fn new(arbiter: Arbiter) -> Self {
        ClusterTransport {
            inner: Arc::new(Mutex::new(ClusterState::build(
                1,
                1,
                DEFAULT_QUANTUM,
                arbiter,
            ))),
        }
    }

    fn for_scenario(scenario: &Scenario, arbiter: Arbiter) -> Result<Self, ConfigError> {
        match &scenario.cluster {
            Some(spec) => {
                spec.validate(scenario.apps.iter().map(|a| a.id))
                    .map_err(ConfigError::Cluster)?;
                Ok(ClusterTransport::from_spec(spec, arbiter))
            }
            None => Ok(ClusterTransport::new(arbiter)),
        }
    }

    /// Visits machine 0's leaf — the degenerate entry point external
    /// [`Coordinator`](crate::Coordinator) embeddings use; the session
    /// drives the tree through [`CoordinationTransport::with_app`].
    fn with<R>(&self, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        let mut state = self.lock();
        let result = f(&mut state.leaves[0]);
        let leaf_now = state.leaves[0].now();
        let now = state.now.max(leaf_now);
        state.pump(now);
        state.reconcile_all();
        result
    }

    fn with_app<R>(&self, app: AppId, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        let mut state = self.lock();
        let m = state.machine(app);
        let result = f(&mut state.leaves[m]);
        // The session advances the leaf clock inside `f` (`set_now`);
        // propagate it to the tree, deliver whatever arrived by then, and
        // reconcile every machine's slot against its leaf workload.
        let leaf_now = state.leaves[m].now();
        let now = state.now.max(leaf_now);
        state.pump(now);
        state.reconcile_all();
        result
    }

    fn is_granted(&self, app: AppId) -> bool {
        self.lock().granted(app)
    }

    fn message_count(&self) -> u64 {
        self.lock().stats().total_messages()
    }

    fn resumable(&self, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        self.lock().granted_waiting(waiting)
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.lock().next_wakeup()
    }

    fn deliver_due(&self, now: SimTime, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        let mut state = self.lock();
        let delivered = state.pump(now);
        state.reconcile_all();
        if !delivered {
            // Nothing crossed the tree: every grant that exists was
            // already notified by the leaf-side paths. Returning nothing
            // keeps the 1-machine tree's event sequence bit-identical to
            // the flat arbiter's.
            return Vec::new();
        }
        state.granted_waiting(waiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::IoInfo;
    use crate::metrics::EfficiencyMetric;
    use crate::policy::DynamicPolicy;
    use crate::strategy::Strategy;
    use mpiio::Granularity;

    fn arbiter() -> Arbiter {
        Arbiter::new(
            Strategy::FcfsSerialize,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
    }

    fn spec(slots: u32, lats_and_apps: &[(u64, &[usize])]) -> ClusterSpec {
        ClusterSpec::new(
            slots,
            lats_and_apps
                .iter()
                .map(|&(lat, apps)| MachineSpec {
                    latency: SimDuration::from_ticks(lat),
                    apps: apps.iter().copied().map(AppId).collect(),
                })
                .collect(),
        )
    }

    fn info(app: usize) -> IoInfo {
        IoInfo {
            app: AppId(app),
            procs: 64,
            files_total: 1,
            rounds_total: 1,
            bytes_total: 1.0e9,
            bytes_remaining: 1.0e9,
            est_alone_total_secs: 10.0,
            est_alone_remaining_secs: 10.0,
            pfs_share: 1.0,
            granularity: Granularity::Round,
        }
    }

    /// Drives the tree exactly as the session does: visit the app's leaf
    /// with the clock advanced to `now`, then deliver due messages.
    fn request(t: &ClusterTransport, app: usize, now: SimTime) {
        t.with_app(AppId(app), |arb| {
            arb.set_now(now);
            arb.update_info(info(app));
            arb.request_access(AppId(app))
        });
    }

    fn settle(t: &ClusterTransport, waiting: &BTreeSet<AppId>) -> Vec<(SimTime, Vec<AppId>)> {
        let mut woken = Vec::new();
        while let Some(at) = t.next_wakeup() {
            let apps = t.deliver_due(at, waiting);
            if !apps.is_empty() {
                woken.push((at, apps));
            }
        }
        woken
    }

    #[test]
    fn spec_text_round_trips_exactly() {
        let mut s = spec(2, &[(2000, &[0, 1]), (0, &[2])]);
        s.quantum = SimDuration::from_ticks(12_345);
        let text = s.to_text();
        assert_eq!(
            text,
            "slots=2 quantum_ticks=12345 machine lat_ticks=2000 apps=0,1 machine lat_ticks=0 apps=2"
        );
        assert_eq!(ClusterSpec::from_text(&text).unwrap(), s);

        // An empty machine round-trips too.
        let empty = spec(1, &[(5, &[])]);
        assert_eq!(ClusterSpec::from_text(&empty.to_text()).unwrap(), empty);

        for broken in [
            "",
            "slots=x quantum_ticks=1",
            "slots=1",
            "slots=1 quantum_ticks=1 machine",
            "slots=1 quantum_ticks=1 machine lat_ticks=0 apps=a",
            "slots=1 quantum_ticks=1 rogue",
        ] {
            assert!(
                ClusterSpec::from_text(broken).is_err(),
                "{broken:?} must not parse"
            );
        }
    }

    #[test]
    fn validation_catches_topology_mistakes() {
        let apps = || (0..3).map(AppId);
        let ok = spec(1, &[(0, &[0, 1]), (0, &[2])]);
        ok.validate(apps()).unwrap();
        assert_eq!(
            spec(1, &[]).validate(apps()),
            Err(ClusterConfigError::NoMachines)
        );
        assert_eq!(
            spec(0, &[(0, &[0, 1, 2])]).validate(apps()),
            Err(ClusterConfigError::NoSlots)
        );
        assert_eq!(
            spec(1, &[(0, &[0, 1]), (0, &[1, 2])]).validate(apps()),
            Err(ClusterConfigError::DuplicateAssignment(AppId(1)))
        );
        assert_eq!(
            spec(1, &[(0, &[0, 1, 2, 7])]).validate(apps()),
            Err(ClusterConfigError::UnknownApp(AppId(7)))
        );
        assert_eq!(
            spec(1, &[(0, &[0, 2])]).validate(apps()),
            Err(ClusterConfigError::UnassignedApp(AppId(1)))
        );
    }

    #[test]
    fn escalated_grant_arrives_exactly_one_round_trip_later() {
        // Machine 0 holds the only slot but is idle; machine 1's request
        // must travel up (lat), queue, wait for machine 0's hand-back
        // (reconciled the moment the request arrives, another lat for the
        // zero-latency edge 0), and the grant travels down (lat): the
        // end-to-end grant lands exactly 2×lat after the request.
        let lat = 2_000u64;
        let s = spec(1, &[(0, &[0]), (lat, &[1])]);
        let t = ClusterTransport::from_spec(&s, arbiter());
        request(&t, 1, SimTime::ZERO);
        assert!(
            !t.is_granted(AppId(1)),
            "leaf granted, but no slot yet — not end-to-end"
        );

        let waiting: BTreeSet<AppId> = [AppId(1)].into();
        let woken = settle(&t, &waiting);
        assert_eq!(
            woken,
            vec![(SimTime::from_ticks(2 * lat), vec![AppId(1)])],
            "the grant must land exactly latency-up + latency-down later"
        );
        assert!(t.is_granted(AppId(1)));
    }

    #[test]
    fn root_messages_stay_exactly_linear_in_escalations() {
        // Two machines ping-pong the only slot: every hand-over is exactly
        // one escalation + one return + one grant — no hidden chatter.
        let s = spec(1, &[(0, &[0]), (0, &[1])]);
        let t = ClusterTransport::from_spec(&s, arbiter());
        let waiting = BTreeSet::new();
        let mut expected_escalations = 0;
        for round in 0..10u64 {
            let now = SimTime::from_ticks(round * 1_000);
            // Machine 1 asks, machine 0's idle slot rotates over, and the
            // release below hands it back next round.
            let app = 1 - (round as usize % 2);
            request(&t, app, now);
            expected_escalations += 1;
            settle(&t, &waiting);
            t.with_app(AppId(app), |arb| arb.release(AppId(app)));
            settle(&t, &waiting);
            let stats = t.stats();
            assert_eq!(stats.escalations, expected_escalations);
            assert_eq!(
                stats.root_messages(),
                stats.escalations + stats.root_grants + stats.slot_returns,
                "root traffic is exactly its three unit-cost message kinds"
            );
            assert!(
                stats.root_grants <= stats.escalations,
                "at most one grant per escalation"
            );
            assert!(
                stats.slot_returns <= stats.root_grants + 1,
                "at most one return per granted slot (plus the initial one)"
            );
        }
    }

    #[test]
    fn single_machine_tree_never_talks_to_the_root() {
        // The exactness envelope: with one machine the slot is assigned at
        // construction, nothing escalates, no latency is ever paid — the
        // golden kernel test pins the resulting bit-identical trace.
        let t = ClusterTransport::new(arbiter());
        request(&t, 0, SimTime::ZERO);
        assert!(t.is_granted(AppId(0)));
        request(&t, 1, SimTime::ZERO);
        t.with_app(AppId(0), |arb| arb.release(AppId(0)));
        assert!(t.is_granted(AppId(1)));
        assert_eq!(t.next_wakeup(), None, "no self-driven work, ever");
        let stats = t.stats();
        assert_eq!(stats.root_messages(), 0);
        assert_eq!(
            t.message_count(),
            stats.leaf_messages,
            "the tree's count is exactly the flat arbiter's"
        );
    }

    #[test]
    fn quantum_rotation_prevents_starvation() {
        // Machine 0 holds the slot and never goes idle; machine 1 queues.
        // The rotation quantum must revoke machine 0 and hand the slot
        // over anyway.
        let mut s = spec(1, &[(0, &[0]), (0, &[1])]);
        s.quantum = SimDuration::from_ticks(10_000);
        let t = ClusterTransport::from_spec(&s, arbiter());
        request(&t, 0, SimTime::ZERO);
        assert!(t.is_granted(AppId(0)));
        request(&t, 1, SimTime::ZERO);
        assert!(!t.is_granted(AppId(1)));

        // Neither application ever releases, so the quantum rotates the
        // slot between the two machines forever — drain wakeups only
        // until the queued machine gets its turn (a plain `settle` would
        // follow the rotation indefinitely).
        let waiting: BTreeSet<AppId> = [AppId(1)].into();
        let mut granted_at = None;
        for _ in 0..32 {
            // simlint: allow(R4, the loop stops before the queue drains)
            let at = t.next_wakeup().expect("rotation keeps the tree live");
            t.deliver_due(at, &waiting);
            if t.is_granted(AppId(1)) {
                granted_at = Some(at);
                break;
            }
        }
        assert!(
            granted_at.is_some(),
            "rotation must eventually grant the queued machine"
        );
        assert!(!t.is_granted(AppId(0)), "the revoked machine lost its slot");
        // And machine 0 re-escalated: it is queued again, not forgotten.
        let stats = t.stats();
        assert!(stats.escalations >= 2, "revoked machine re-escalates");
    }

    #[test]
    fn machine_loads_aggregate_per_machine_not_per_app() {
        let s = spec(1, &[(0, &[0]), (10, &[1, 2])]);
        let t = ClusterTransport::from_spec(&s, arbiter());
        // Both applications share their information before anyone asks for
        // access; the escalation the first request triggers then carries
        // the whole machine's rollup in a single message.
        t.with_app(AppId(1), |arb| {
            arb.update_info(info(1));
            arb.update_info(info(2));
        });
        request(&t, 1, SimTime::ZERO);
        request(&t, 2, SimTime::ZERO);
        let waiting = BTreeSet::new();
        settle(&t, &waiting);
        let loads = t.machine_loads();
        assert_eq!(loads.len(), 2);
        // Machine 1 escalated once; its rollup sums both applications.
        assert_eq!(loads[1].apps, 2);
        assert_eq!(loads[1].procs, 128);
        assert_eq!(loads[1].est_alone_remaining_secs, 20.0);
        // Queue depths are per machine (app 2 parked behind app 1 at the
        // leaf).
        assert_eq!(t.queue_depths(), vec![0, 1]);
    }
}
