//! The parallel file system front-end.
//!
//! [`Pfs`] owns the fluid network, the storage servers and the set of
//! in-flight transfers. Client layers (the `mpiio` crate, or a raw
//! benchmark) submit *atomic writes* — the unit the paper calls an
//! "independent contiguous write" issued by the ADIO layer — and drive the
//! simulation clock through [`Pfs::advance_to`]. All interference effects
//! (request-stream-proportional sharing, locality breakage, cache
//! thrashing) happen inside this type.

use crate::config::PfsConfig;
use crate::error::ConfigError;
use crate::server::ServerState;
use crate::{AppId, WriteBackCache};
use simcore::fair::{SharingModel, VtFairNetwork};
use simcore::fluid::{ConstraintId, FlowId, FlowProgress, FlowSpec, FluidNetwork};
use simcore::time::{SimDuration, SimTime};
use simcore::Work;
use std::collections::BTreeMap;

/// Handle to a submitted transfer (one atomic write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// Progress snapshot for a transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferProgress {
    /// Bytes written so far.
    pub transferred: f64,
    /// Bytes still to write.
    pub remaining: f64,
    /// Current aggregate rate across all servers (bytes/s).
    pub rate: f64,
    /// Submission time.
    pub started: SimTime,
    /// Completion time, if finished.
    pub completed: Option<SimTime>,
    /// Whether the transfer is currently paused.
    pub paused: bool,
}

#[derive(Debug, Clone)]
struct FlowSlot {
    flow: FlowId,
    done: bool,
}

#[derive(Debug, Clone)]
struct Transfer {
    app: AppId,
    bytes: f64,
    per_server_bytes: f64,
    flows: Vec<FlowSlot>,
    /// Flows not yet done — completion fires when this reaches zero,
    /// without scanning `flows`.
    pending: usize,
    started: SimTime,
    completed: Option<SimTime>,
    paused: bool,
    done_bytes: f64,
}

/// The bandwidth-sharing substrate behind the file system: either the
/// exact incremental max-min solver or the `O(log n)` virtual-time model,
/// selected per [`SharingModel`]. Enum dispatch (rather than generics)
/// keeps `Pfs` a single concrete type for every layer above it.
#[derive(Debug, Clone)]
enum Network {
    MaxMin(FluidNetwork),
    FairFast(VtFairNetwork),
}

macro_rules! delegate {
    ($self:ident, $net:ident => $body:expr) => {
        match $self {
            Network::MaxMin($net) => $body,
            Network::FairFast($net) => $body,
        }
    };
}

impl Network {
    fn add_constraint(&mut self, capacity: f64) -> ConstraintId {
        delegate!(self, net => net.add_constraint(capacity))
    }
    fn set_capacity(&mut self, id: ConstraintId, capacity: f64) {
        delegate!(self, net => net.set_capacity(id, capacity))
    }
    fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        delegate!(self, net => net.add_flow(spec))
    }
    fn remove_flow(&mut self, id: FlowId) -> Option<FlowProgress> {
        delegate!(self, net => net.remove_flow(id))
    }
    fn pause_flow(&mut self, id: FlowId) {
        delegate!(self, net => net.pause_flow(id))
    }
    fn resume_flow(&mut self, id: FlowId) {
        delegate!(self, net => net.resume_flow(id))
    }
    fn progress(&mut self, id: FlowId) -> Option<FlowProgress> {
        delegate!(self, net => net.progress(id))
    }
    fn is_complete(&self, id: FlowId) -> bool {
        delegate!(self, net => net.is_complete(id))
    }
    fn rate(&mut self, id: FlowId) -> f64 {
        delegate!(self, net => net.rate(id))
    }
    fn aggregate_rate(&mut self) -> f64 {
        delegate!(self, net => net.aggregate_rate())
    }
    fn time_to_next_completion(&mut self) -> Option<SimDuration> {
        delegate!(self, net => net.time_to_next_completion())
    }
    fn advance(&mut self, dt: SimDuration) {
        delegate!(self, net => net.advance(dt))
    }
    fn drain_completed(&mut self) -> Vec<FlowId> {
        delegate!(self, net => net.drain_completed())
    }
    fn stalled_flows(&mut self) -> Vec<FlowId> {
        delegate!(self, net => net.stalled_flows())
    }
    fn work(&self) -> Work {
        delegate!(self, net => net.work())
    }
}

/// The simulated parallel file system.
#[derive(Debug, Clone)]
pub struct Pfs {
    cfg: PfsConfig,
    net: Network,
    servers: Vec<ServerState>,
    interconnect: ConstraintId,
    transfers: BTreeMap<TransferId, Transfer>,
    /// Reverse map from network flow to its (transfer, server) slot, so
    /// completions drain in `O(log n)` instead of a full transfer scan.
    flow_index: BTreeMap<FlowId, (TransferId, usize)>,
    /// Transfers completed since the last [`Pfs::poll_completed`].
    newly_done: Vec<(SimTime, TransferId)>,
    /// Per-application count of unpaused, incomplete transfers.
    active_counts: BTreeMap<AppId, usize>,
    next_id: u64,
    now: SimTime,
    bytes_completed: BTreeMap<AppId, f64>,
}

impl Pfs {
    /// Builds a file system from a validated configuration, on the
    /// default medium ([`SharingModel::Auto`]: max-min results).
    pub fn new(cfg: PfsConfig) -> Result<Self, ConfigError> {
        Self::with_medium(cfg, SharingModel::default())
    }

    /// Builds a file system on a chosen sharing model.
    /// [`SharingModel::Auto`] resolves to the virtual-time medium when
    /// [`PfsConfig::fair_fast_is_exact`] holds and to the max-min solver
    /// otherwise; the explicit models are taken as named.
    pub fn with_medium(cfg: PfsConfig, sharing: SharingModel) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let fair_fast = match sharing {
            SharingModel::Auto => cfg.fair_fast_is_exact(),
            SharingModel::MaxMin => false,
            SharingModel::FairFast => true,
        };
        let mut net = if fair_fast {
            Network::FairFast(VtFairNetwork::new())
        } else {
            Network::MaxMin(FluidNetwork::new())
        };
        let interconnect = net.add_constraint(cfg.interconnect_bw);
        let mut servers = Vec::with_capacity(cfg.num_servers);
        for _ in 0..cfg.num_servers {
            let cache = cfg.cache.map(WriteBackCache::new);
            // Initial capacity: single-application, cache empty.
            let constraint = net.add_constraint(match &cfg.cache {
                Some(c) => c.absorb_bw,
                None => cfg.server_bw,
            });
            servers.push(ServerState::new(constraint, cache));
        }
        Ok(Pfs {
            cfg,
            net,
            servers,
            interconnect,
            transfers: BTreeMap::new(),
            flow_index: BTreeMap::new(),
            newly_done: Vec::new(),
            active_counts: BTreeMap::new(),
            next_id: 0,
            now: SimTime::ZERO,
            bytes_completed: BTreeMap::new(),
        })
    }

    /// Moves a file system that has not yet seen a write onto the max-min
    /// solver, keeping every constraint's current capacity (so an earlier
    /// [`Pfs::throttle_interconnect`] survives). Returns whether the file
    /// system now runs on max-min: `false` only when it runs on the
    /// virtual-time medium and a write was already submitted, in which
    /// case nothing changes.
    pub fn use_max_min(&mut self) -> bool {
        let Network::FairFast(fair) = &self.net else {
            return true;
        };
        if self.next_id > 0 {
            return false;
        }
        let mut exact = FluidNetwork::new();
        for idx in 0..fair.constraint_count() {
            exact.add_constraint(fair.capacity(ConstraintId(idx)));
        }
        self.net = Network::MaxMin(exact);
        true
    }

    /// The configuration in use.
    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submits an atomic collective write of `bytes` bytes issued by
    /// application `app` from `procs` processes. The data is striped over
    /// all servers. Returns a handle used to track or pause the transfer.
    pub fn submit_write(&mut self, app: AppId, bytes: f64, procs: u32) -> TransferId {
        assert!(bytes >= 0.0, "write size must be non-negative");
        let id = TransferId(self.next_id);
        self.next_id += 1;

        let n = self.servers.len() as f64;
        let per_server_bytes = bytes / n;
        let client_cap_per_server = (procs.max(1) as f64 * self.cfg.process_link_bw / n).max(1.0);
        let weight = ServerState::share_weight(self.cfg.share_policy, procs);

        let mut flows = Vec::with_capacity(self.servers.len());
        for server in &mut self.servers {
            let flow = self.net.add_flow(FlowSpec::new(
                per_server_bytes,
                weight,
                client_cap_per_server,
                vec![server.constraint, self.interconnect],
            ));
            server.add_stream(app);
            flows.push(FlowSlot { flow, done: false });
        }

        let pending = flows.len();
        for (idx, slot) in flows.iter().enumerate() {
            self.flow_index.insert(slot.flow, (id, idx));
        }
        // A zero-byte write's flows are born complete.
        let born_done: Vec<FlowId> = flows
            .iter()
            .filter(|s| self.net.is_complete(s.flow))
            .map(|s| s.flow)
            .collect();
        self.transfers.insert(
            id,
            Transfer {
                app,
                bytes,
                per_server_bytes,
                flows,
                pending,
                started: self.now,
                completed: None,
                paused: false,
                done_bytes: 0.0,
            },
        );
        *self.active_counts.entry(app).or_insert(0) += 1;
        for flow in born_done {
            self.finish_flow(flow);
        }
        self.refresh_capacities();
        id
    }

    /// Pauses an in-flight transfer (its flows stop consuming bandwidth and
    /// it no longer counts as an active application on the servers). Used
    /// by CALCioM's interruption strategy.
    pub fn pause(&mut self, id: TransferId) {
        let Some(tr) = self.transfers.get_mut(&id) else {
            return;
        };
        if tr.paused || tr.completed.is_some() {
            return;
        }
        tr.paused = true;
        for (idx, slot) in tr.flows.iter().enumerate() {
            if !slot.done {
                self.net.pause_flow(slot.flow);
                self.servers[idx].remove_stream(tr.app);
            }
        }
        let count = self.active_counts.entry(tr.app).or_insert(0);
        *count = count.saturating_sub(1);
        self.refresh_capacities();
    }

    /// Resumes a paused transfer.
    pub fn resume(&mut self, id: TransferId) {
        let Some(tr) = self.transfers.get_mut(&id) else {
            return;
        };
        if !tr.paused || tr.completed.is_some() {
            return;
        }
        tr.paused = false;
        for (idx, slot) in tr.flows.iter().enumerate() {
            if !slot.done {
                self.net.resume_flow(slot.flow);
                self.servers[idx].add_stream(tr.app);
            }
        }
        *self.active_counts.entry(tr.app).or_insert(0) += 1;
        self.refresh_capacities();
        // A resumed flow whose bytes were already settled complete (the
        // virtual-time medium snaps these at resume) must finish its
        // transfer bookkeeping immediately.
        self.collect_completions();
    }

    /// Cancels a transfer, discarding any unfinished bytes.
    pub fn cancel(&mut self, id: TransferId) {
        let Some(tr) = self.transfers.remove(&id) else {
            return;
        };
        for (idx, slot) in tr.flows.iter().enumerate() {
            if !slot.done {
                self.net.remove_flow(slot.flow);
                self.flow_index.remove(&slot.flow);
                if !tr.paused {
                    self.servers[idx].remove_stream(tr.app);
                }
            }
        }
        if tr.completed.is_none() && !tr.paused {
            let count = self.active_counts.entry(tr.app).or_insert(0);
            *count = count.saturating_sub(1);
        }
        self.refresh_capacities();
    }

    /// True once every byte of the transfer has been written.
    pub fn is_complete(&self, id: TransferId) -> bool {
        self.transfers
            .get(&id)
            .map(|t| t.completed.is_some())
            .unwrap_or(false)
    }

    /// Whether the given application currently has an unpaused, incomplete
    /// transfer in flight. `O(log n)` via the per-application counter.
    pub fn app_is_active(&self, app: AppId) -> bool {
        self.active_counts.get(&app).copied().unwrap_or(0) > 0
    }

    /// Progress snapshot for a transfer.
    pub fn progress(&mut self, id: TransferId) -> Option<TransferProgress> {
        let tr = self.transfers.get(&id)?;
        let mut transferred = tr.done_bytes;
        let mut rate = 0.0;
        for slot in &tr.flows {
            if !slot.done {
                if let Some(p) = self.net.progress(slot.flow) {
                    transferred += p.transferred;
                    rate += p.rate;
                }
            }
        }
        let tr = self.transfers.get(&id)?;
        Some(TransferProgress {
            transferred,
            remaining: (tr.bytes - transferred).max(0.0),
            rate,
            started: tr.started,
            completed: tr.completed,
            paused: tr.paused,
        })
    }

    /// Aggregate write rate across all applications (bytes/s).
    pub fn aggregate_rate(&mut self) -> f64 {
        self.net.aggregate_rate()
    }

    /// Total bytes written by an application across completed transfers.
    pub fn bytes_completed(&self, app: AppId) -> f64 {
        self.bytes_completed.get(&app).copied().unwrap_or(0.0)
    }

    /// Applications with at least one active stream on at least one server.
    pub fn active_apps(&self) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self.servers.iter().flat_map(|s| s.active_apps()).collect();
        apps.sort_unstable();
        apps.dedup();
        apps
    }

    /// Next instant at which something internal changes (a flow completes
    /// or a cache crosses a threshold), or `None` if nothing is in flight.
    /// The returned time is always strictly after [`Pfs::now`] so that a
    /// driver looping on it always makes progress.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        if let Some(ttc) = self.net.time_to_next_completion() {
            best = Some(self.now + ttc);
        }
        if self.cfg.cache.is_some() {
            let ingest = self.per_server_ingest();
            for (idx, server) in self.servers.iter().enumerate() {
                if let Some(cache) = &server.cache {
                    if let Some(t) = cache.time_to_transition(ingest[idx]) {
                        let at = self.now + SimDuration::from_secs(t);
                        best = Some(match best {
                            Some(b) => b.min(at),
                            None => at,
                        });
                    }
                }
            }
        }
        // Guard against sub-microsecond remainders rounding to "now": the
        // caller would otherwise spin without advancing the clock.
        best.map(|t| t.max(self.now + SimDuration::from_ticks(1)))
    }

    /// Advances the simulation to `target`, handling flow completions and
    /// cache transitions internally (subdividing the interval so that rates
    /// are piecewise constant).
    pub fn advance_to(&mut self, target: SimTime) {
        let mut guard = 0u64;
        while self.now < target {
            guard += 1;
            assert!(
                guard < 10_000_000,
                "Pfs::advance_to failed to converge (simulation bug)"
            );

            // Cache bookkeeping needs the per-server ingest rates; on a
            // cache-less file system (the common sweep configuration) the
            // O(flows × servers) scan is skipped entirely.
            let ingest = if self.cfg.cache.is_some() {
                self.per_server_ingest()
            } else {
                Vec::new()
            };

            // Next internal change point.
            let mut step_end = target;
            if let Some(ttc) = self.net.time_to_next_completion() {
                step_end = step_end.min(self.now + ttc);
            }
            for (idx, server) in self.servers.iter().enumerate() {
                if let Some(cache) = &server.cache {
                    if let Some(t) = cache.time_to_transition(ingest[idx]) {
                        step_end = step_end.min(self.now + SimDuration::from_secs(t));
                    }
                }
            }
            // Guarantee forward progress despite microsecond rounding.
            if step_end <= self.now {
                step_end = self.now + SimDuration::from_ticks(1);
            }
            let step_end = step_end.min(target.max(self.now + SimDuration::from_ticks(1)));
            let dt = step_end.saturating_since(self.now);

            self.net.advance(dt);
            for (idx, server) in self.servers.iter_mut().enumerate() {
                if let Some(cache) = &mut server.cache {
                    cache.advance(dt.as_secs(), ingest[idx]);
                }
            }
            self.now = step_end;
            self.collect_completions();
            self.refresh_capacities();
        }
    }

    /// Transfers that completed since the last call, in completion order.
    /// `O(completions)` — completions queue as they drain from the
    /// network; no transfer scan.
    pub fn poll_completed(&mut self) -> Vec<TransferId> {
        if self.newly_done.is_empty() {
            return Vec::new();
        }
        let mut done: Vec<(SimTime, TransferId)> = std::mem::take(&mut self.newly_done)
            .into_iter()
            // A transfer cancelled after completing is never reported,
            // matching the pre-queue scan semantics.
            .filter(|(_, id)| self.transfers.contains_key(id))
            .collect();
        done.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        done.into_iter().map(|(_, id)| id).collect()
    }

    /// Transfers that are active (unpaused, incomplete) yet pinned at a
    /// zero rate by the network — e.g. starved by a zero-capacity
    /// constraint. Such transfers never produce a completion event; the
    /// session layer surfaces them as a structured error instead of
    /// hanging until the horizon.
    pub fn stalled_transfers(&mut self) -> Vec<(AppId, TransferId)> {
        let stalled = self.net.stalled_flows();
        let mut out: Vec<(AppId, TransferId)> = stalled
            .iter()
            .filter_map(|f| self.flow_index.get(f))
            .filter_map(|&(tid, _)| self.transfers.get(&tid).map(|t| (t.app, tid)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Overrides the interconnect ceiling at runtime (fault injection for
    /// degraded-network experiments; `0.0` starves every in-flight
    /// transfer, which [`Pfs::stalled_transfers`] then reports).
    pub fn throttle_interconnect(&mut self, bw: f64) {
        assert!(bw >= 0.0 && !bw.is_nan(), "bandwidth must be non-negative");
        self.net.set_capacity(self.interconnect, bw);
    }

    fn per_server_ingest(&mut self) -> Vec<f64> {
        let mut ingest = vec![0.0; self.servers.len()];
        let flows: Vec<(usize, FlowId)> = self
            .transfers
            .values()
            .flat_map(|t| {
                t.flows
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.done)
                    .map(|(idx, s)| (idx, s.flow))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (idx, flow) in flows {
            ingest[idx] += self.net.rate(flow);
        }
        ingest
    }

    /// Drains flow completions out of the network and folds them into
    /// their transfers: `O(completions · log n)`, no transfer scan.
    fn collect_completions(&mut self) {
        let done = self.net.drain_completed();
        if done.is_empty() {
            return;
        }
        for flow in done {
            self.finish_flow(flow);
        }
        self.refresh_capacities();
    }

    /// Retires one completed flow: marks its server slot done, releases
    /// its stream, and completes the owning transfer when it was the last.
    fn finish_flow(&mut self, flow: FlowId) {
        let Some((tid, idx)) = self.flow_index.remove(&flow) else {
            return;
        };
        let now = self.now;
        let Some(tr) = self.transfers.get_mut(&tid) else {
            return;
        };
        let slot = &mut tr.flows[idx];
        if slot.done {
            return;
        }
        slot.done = true;
        tr.pending -= 1;
        tr.done_bytes += tr.per_server_bytes;
        self.net.remove_flow(flow);
        if !tr.paused {
            self.servers[idx].remove_stream(tr.app);
        }
        if tr.pending == 0 {
            tr.completed = Some(now);
            tr.done_bytes = tr.bytes;
            *self.bytes_completed.entry(tr.app).or_insert(0.0) += tr.bytes;
            // A transfer can only finish through unpaused flows, so it
            // still counts as active here.
            let count = self.active_counts.entry(tr.app).or_insert(0);
            *count = count.saturating_sub(1);
            self.newly_done.push((now, tid));
        }
    }

    fn refresh_capacities(&mut self) {
        for server in &self.servers {
            self.net
                .set_capacity(server.constraint, server.effective_bandwidth(&self.cfg));
        }
    }
}

/// The file system is the *continuous* half of a coupled simulation: a
/// [`simcore::Kernel`] owns the clock and drives the in-flight transfers
/// (and cache state) through this impl, interleaved with its discrete
/// events. The kernel's clock and [`Pfs::now`] advance in lockstep — both
/// are integer-tick, so no drift is possible.
impl simcore::kernel::Medium for Pfs {
    fn time_to_next(&mut self) -> Option<SimDuration> {
        let now = self.now;
        self.next_event_time().map(|t| t.saturating_since(now))
    }

    fn advance(&mut self, dt: SimDuration) {
        let target = self.now + dt;
        self.advance_to(target);
    }

    /// The bandwidth medium's counts: the file system's own bookkeeping
    /// is not counted.
    fn work(&self) -> Work {
        self.net.work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, SharePolicy};

    fn simple_cfg() -> PfsConfig {
        PfsConfig {
            num_servers: 4,
            server_bw: 100.0e6, // 100 MB/s per server → 400 MB/s aggregate
            cache: None,
            interference_gamma: 1.0,
            process_link_bw: 10.0e6,
            interconnect_bw: f64::INFINITY,
            share_policy: SharePolicy::ProportionalToProcesses,
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_write_takes_bytes_over_bandwidth() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        // 400 MB from 128 procs: client cap = 1.28 GB/s, server cap = 400 MB/s
        // → bottleneck 400 MB/s → 1 second.
        let tr = pfs.submit_write(AppId(0), 400.0e6, 128);
        pfs.advance_to(t(0.5));
        assert!(!pfs.is_complete(tr));
        let p = pfs.progress(tr).unwrap();
        assert!((p.transferred - 200.0e6).abs() < 1.0e6);
        pfs.advance_to(t(1.01));
        assert!(pfs.is_complete(tr));
        let p = pfs.progress(tr).unwrap();
        assert!(p.completed.unwrap() <= t(1.01));
        assert!(p.completed.unwrap() >= t(0.99));
        assert_eq!(pfs.poll_completed(), vec![tr]);
        assert!(pfs.poll_completed().is_empty(), "reported only once");
    }

    #[test]
    fn zero_capacity_interconnect_starves_transfers_and_is_reported() {
        for sharing in [SharingModel::MaxMin, SharingModel::FairFast] {
            let cfg = PfsConfig {
                // Finite and binding, so both media route flows through it.
                interconnect_bw: 50.0e6,
                ..simple_cfg()
            };
            let mut pfs = Pfs::with_medium(cfg, sharing).unwrap();
            let tr = pfs.submit_write(AppId(0), 100.0e6, 128);
            assert!(pfs.stalled_transfers().is_empty(), "{sharing:?}: healthy");
            pfs.throttle_interconnect(0.0);
            pfs.advance_to(t(1.0));
            assert!(!pfs.is_complete(tr), "{sharing:?}: cannot progress");
            assert_eq!(
                pfs.stalled_transfers(),
                vec![(AppId(0), tr)],
                "{sharing:?}: the starved transfer is reported"
            );
            assert!(
                pfs.next_event_time().is_none(),
                "{sharing:?}: a starved transfer never becomes an event"
            );
        }
    }

    /// The medium a file system resolved to.
    fn medium(pfs: &Pfs) -> SharingModel {
        match pfs.net {
            Network::MaxMin(_) => SharingModel::MaxMin,
            Network::FairFast(_) => SharingModel::FairFast,
        }
    }

    #[test]
    fn default_medium_is_fair_fast_only_where_exact() {
        let on = |cfg: PfsConfig, sharing| medium(&Pfs::with_medium(cfg, sharing).unwrap());
        let rennes = PfsConfig::grid5000_rennes();
        let nancy = PfsConfig::grid5000_nancy();
        assert_eq!(
            on(rennes.clone(), SharingModel::Auto),
            SharingModel::FairFast
        );
        assert_eq!(on(nancy.clone(), SharingModel::Auto), SharingModel::MaxMin);
        for cfg in [rennes, nancy] {
            for explicit in [SharingModel::MaxMin, SharingModel::FairFast] {
                assert_eq!(on(cfg.clone(), explicit), explicit);
            }
        }
    }

    #[test]
    fn use_max_min_keeps_capacities_and_refuses_after_a_write() {
        let cfg = simple_cfg();
        let mut pfs = Pfs::new(cfg.clone()).unwrap();
        assert_eq!(medium(&pfs), SharingModel::FairFast);
        pfs.throttle_interconnect(0.0);
        assert!(pfs.use_max_min());
        assert_eq!(medium(&pfs), SharingModel::MaxMin);
        // The throttle survived the move: the write starves.
        let tr = pfs.submit_write(AppId(0), 100.0e6, 128);
        pfs.advance_to(t(1.0));
        assert_eq!(pfs.stalled_transfers(), vec![(AppId(0), tr)]);

        let mut busy = Pfs::with_medium(cfg, SharingModel::FairFast).unwrap();
        busy.submit_write(AppId(0), 100.0e6, 128);
        assert!(!busy.use_max_min(), "in-flight flows cannot move");
        assert_eq!(medium(&busy), SharingModel::FairFast);
    }

    #[test]
    fn small_app_is_limited_by_its_client_links() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        // 8 procs × 10 MB/s = 80 MB/s client-side cap, well below the
        // 400 MB/s the file system could deliver.
        let tr = pfs.submit_write(AppId(0), 80.0e6, 8);
        pfs.advance_to(t(1.05));
        assert!(pfs.is_complete(tr));
        let p = pfs.progress(tr).unwrap();
        let dur = p.completed.unwrap().saturating_since(p.started).as_secs();
        assert!((dur - 1.0).abs() < 0.05, "duration was {dur}");
    }

    #[test]
    fn two_equal_apps_share_and_both_slow_down() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        let a = pfs.submit_write(AppId(0), 400.0e6, 128);
        let b = pfs.submit_write(AppId(1), 400.0e6, 128);
        pfs.advance_to(t(2.1));
        assert!(pfs.is_complete(a) && pfs.is_complete(b));
        let ta = pfs.progress(a).unwrap().completed.unwrap().as_secs();
        let tb = pfs.progress(b).unwrap().completed.unwrap().as_secs();
        // Each would take 1 s alone; sharing makes both take ~2 s.
        assert!((ta - 2.0).abs() < 0.05, "ta = {ta}");
        assert!((tb - 2.0).abs() < 0.05, "tb = {tb}");
    }

    #[test]
    fn big_app_crowds_out_small_app() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        // Big app: 360 procs; small app: 40 procs. Server bandwidth is
        // shared 9:1, so the small app's 40 MB write that would take 0.1 s
        // alone (client-limited at 400MB/s? no: 40procs*10MB/s=400MB/s,
        // server 400MB/s → 0.1 s) now gets only ~40 MB/s.
        let big = pfs.submit_write(AppId(0), 3600.0e6, 360);
        let small = pfs.submit_write(AppId(1), 40.0e6, 40);
        pfs.advance_to(t(30.0));
        assert!(pfs.is_complete(small));
        let p = pfs.progress(small).unwrap();
        let dur = p.completed.unwrap().saturating_since(p.started).as_secs();
        assert!(
            dur > 0.5,
            "small app should be heavily slowed down, got {dur}"
        );
        assert!(pfs.is_complete(big));
    }

    #[test]
    fn locality_penalty_makes_interference_worse_than_serial() {
        let mut cfg = simple_cfg();
        cfg.interference_gamma = 0.7;
        let mut pfs = Pfs::new(cfg).unwrap();
        let a = pfs.submit_write(AppId(0), 400.0e6, 128);
        let b = pfs.submit_write(AppId(1), 400.0e6, 128);
        pfs.advance_to(t(10.0));
        let ta = pfs.progress(a).unwrap().completed.unwrap().as_secs();
        let tb = pfs.progress(b).unwrap().completed.unwrap().as_secs();
        // Serialized, the pair would need 2 s. With γ=0.7 both finish
        // later than that.
        assert!(ta > 2.2 && tb > 2.2, "ta={ta} tb={tb}");
    }

    #[test]
    fn pause_and_resume_freeze_progress() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        let a = pfs.submit_write(AppId(0), 400.0e6, 128);
        pfs.advance_to(t(0.5));
        pfs.pause(a);
        let before = pfs.progress(a).unwrap().transferred;
        pfs.advance_to(t(5.0));
        let after = pfs.progress(a).unwrap().transferred;
        assert!((before - after).abs() < 1.0);
        assert!(!pfs.app_is_active(AppId(0)));
        pfs.resume(a);
        assert!(pfs.app_is_active(AppId(0)));
        pfs.advance_to(t(5.6));
        assert!(pfs.is_complete(a));
    }

    #[test]
    fn paused_app_frees_bandwidth_for_the_other() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        let a = pfs.submit_write(AppId(0), 400.0e6, 128);
        let b = pfs.submit_write(AppId(1), 400.0e6, 128);
        pfs.pause(a);
        pfs.advance_to(t(1.05));
        assert!(pfs.is_complete(b), "b should finish in ~1 s with a paused");
        assert!(!pfs.is_complete(a));
        let _ = a;
    }

    #[test]
    fn cancel_removes_transfer() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        let a = pfs.submit_write(AppId(0), 400.0e6, 128);
        pfs.advance_to(t(0.2));
        pfs.cancel(a);
        assert!(pfs.progress(a).is_none());
        assert!(!pfs.app_is_active(AppId(0)));
        assert!(pfs.active_apps().is_empty());
    }

    #[test]
    fn cache_absorbs_small_bursts_then_thrashes() {
        let cfg = PfsConfig {
            num_servers: 1,
            server_bw: 10.0e6,
            cache: Some(CacheConfig {
                capacity_bytes: 50.0e6,
                absorb_bw: 100.0e6,
                drain_bw: 10.0e6,
            }),
            interference_gamma: 1.0,
            process_link_bw: 100.0e6,
            interconnect_bw: f64::INFINITY,
            share_policy: SharePolicy::ProportionalToProcesses,
        };
        let mut pfs = Pfs::new(cfg).unwrap();
        // A 30 MB burst fits in the cache: completes at ~cache speed.
        let a = pfs.submit_write(AppId(0), 30.0e6, 4);
        pfs.advance_to(t(1.0));
        assert!(pfs.is_complete(a));
        let dur_a = {
            let p = pfs.progress(a).unwrap();
            p.completed.unwrap().saturating_since(p.started).as_secs()
        };
        assert!(dur_a < 0.5, "cached burst should be fast, got {dur_a}");

        // A 200 MB burst (cache still holding ~27 MB) saturates the cache
        // and ends up at disk speed.
        let b = pfs.submit_write(AppId(0), 200.0e6, 4);
        pfs.advance_to(t(60.0));
        assert!(pfs.is_complete(b));
        let p = pfs.progress(b).unwrap();
        let dur_b = p.completed.unwrap().saturating_since(p.started).as_secs();
        assert!(
            dur_b > 10.0,
            "saturating burst should be disk-bound, got {dur_b}"
        );
    }

    #[test]
    fn next_event_time_tracks_completions() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        assert!(pfs.next_event_time().is_none());
        let _a = pfs.submit_write(AppId(0), 400.0e6, 128);
        let next = pfs.next_event_time().unwrap();
        assert!((next.as_secs() - 1.0).abs() < 0.01);
    }

    #[test]
    fn bytes_completed_accumulates_per_app() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        pfs.submit_write(AppId(0), 100.0e6, 64);
        pfs.submit_write(AppId(0), 50.0e6, 64);
        pfs.submit_write(AppId(1), 25.0e6, 64);
        pfs.advance_to(t(5.0));
        assert!((pfs.bytes_completed(AppId(0)) - 150.0e6).abs() < 1.0);
        assert!((pfs.bytes_completed(AppId(1)) - 25.0e6).abs() < 1.0);
        assert_eq!(pfs.bytes_completed(AppId(9)), 0.0);
    }

    #[test]
    fn zero_byte_write_completes_immediately() {
        let mut pfs = Pfs::new(simple_cfg()).unwrap();
        let a = pfs.submit_write(AppId(0), 0.0, 16);
        assert!(pfs.is_complete(a));
        assert_eq!(pfs.poll_completed(), vec![a]);
    }

    #[test]
    fn equal_share_policy_protects_small_app() {
        let mut cfg = simple_cfg();
        cfg.share_policy = SharePolicy::EqualPerApplication;
        let mut pfs = Pfs::new(cfg).unwrap();
        let _big = pfs.submit_write(AppId(0), 3600.0e6, 360);
        let small = pfs.submit_write(AppId(1), 40.0e6, 40);
        pfs.advance_to(t(30.0));
        let p = pfs.progress(small).unwrap();
        let dur = p.completed.unwrap().saturating_since(p.started).as_secs();
        // With per-application fairness the small app gets 200 MB/s and
        // finishes in ~0.2-0.4 s instead of several seconds.
        assert!(dur < 0.5, "equal-share small app took {dur}");
    }
}
