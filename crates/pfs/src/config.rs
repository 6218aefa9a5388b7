//! Parallel file system configuration and platform presets.
//!
//! The presets approximate the two experimental platforms of the paper
//! (Section IV-A): Argonne's BG/P *Surveyor* with a 4-server PVFS2 volume,
//! and the Grid'5000 Rennes/Nancy clusters with a 12-/35-server
//! OrangeFS/PVFS deployment over InfiniBand. Absolute bandwidth numbers are
//! calibrated so that the *shape* of the published figures is reproduced
//! (see `EXPERIMENTS.md`); they are not measurements of the original
//! hardware.

use crate::error::ConfigError;

/// The most storage servers a file system may have. Each server costs a
/// constraint, a state slot and one flow per in-flight transfer, so the
/// count sizes allocations before any simulation runs; the bound keeps a
/// scenario from outside (a service request) from asking for more memory
/// than the host has. The largest preset has 35 servers.
pub const MAX_SERVERS: usize = 1024;

/// How a storage server shares its bandwidth between concurrent clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharePolicy {
    /// Bandwidth is shared proportionally to the number of processes
    /// (request streams) each application has in flight. This models a
    /// plain first-in-first-out network request scheduler and is the
    /// default: it is what makes a small application suffer a large
    /// interference factor when competing with a big one (Fig. 4, Fig. 6).
    ProportionalToProcesses,
    /// Bandwidth is shared equally between applications regardless of their
    /// size, modelling an application-aware fair scheduler (used in
    /// ablation studies).
    EqualPerApplication,
}

/// Write-back cache configuration for a storage server (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Dirty-data capacity in bytes. Bursts smaller than this are absorbed
    /// at `absorb_bw`.
    pub capacity_bytes: f64,
    /// Ingest bandwidth while the cache has room (bytes/s); typically the
    /// server's network bandwidth.
    pub absorb_bw: f64,
    /// Background drain (disk) bandwidth in bytes/s.
    pub drain_bw: f64,
}

/// Full parallel file system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PfsConfig {
    /// Number of storage servers (files are striped across all of them).
    pub num_servers: usize,
    /// Per-server disk bandwidth in bytes/s (steady-state write speed with a
    /// single well-formed request stream).
    pub server_bw: f64,
    /// Optional write-back cache per server. `None` models a deployment
    /// with caching disabled (as the paper did on Grid'5000 Rennes).
    pub cache: Option<CacheConfig>,
    /// Locality-breakage penalty γ ∈ (0, 1]: with `k` distinct applications
    /// concurrently accessing a server, the server's effective bandwidth is
    /// `server_bw × γ^(k−1)`. γ = 1 disables the penalty (ablation).
    pub interference_gamma: f64,
    /// Per-process client link bandwidth in bytes/s (compute-node NIC share
    /// of one process).
    pub process_link_bw: f64,
    /// Aggregate interconnect ceiling in bytes/s between compute nodes and
    /// the storage system (`f64::INFINITY` to disable; must be positive).
    pub interconnect_bw: f64,
    /// How servers share bandwidth between concurrent applications.
    pub share_policy: SharePolicy,
}

impl PfsConfig {
    /// Validates the configuration, returning a typed error for the first
    /// problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_servers == 0 {
            return Err(ConfigError::NoServers);
        }
        if self.num_servers > MAX_SERVERS {
            return Err(ConfigError::TooManyServers {
                num_servers: self.num_servers,
            });
        }
        if self.server_bw.is_nan() || self.server_bw <= 0.0 {
            return Err(ConfigError::NonPositive { field: "server_bw" });
        }
        if !(self.interference_gamma > 0.0 && self.interference_gamma <= 1.0) {
            return Err(ConfigError::GammaOutOfRange {
                gamma: self.interference_gamma,
            });
        }
        if self.process_link_bw.is_nan() || self.process_link_bw <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "process_link_bw",
            });
        }
        if self.interconnect_bw.is_nan() || self.interconnect_bw <= 0.0 {
            // Use f64::INFINITY to disable the interconnect ceiling.
            return Err(ConfigError::NonPositive {
                field: "interconnect_bw",
            });
        }
        if let Some(c) = &self.cache {
            if !(c.capacity_bytes > 0.0 && c.absorb_bw > 0.0 && c.drain_bw > 0.0) {
                return Err(ConfigError::NonPositive {
                    field: "cache parameters",
                });
            }
            if c.drain_bw > c.absorb_bw {
                return Err(ConfigError::CacheDrainExceedsAbsorb {
                    drain_bw: c.drain_bw,
                    absorb_bw: c.absorb_bw,
                });
            }
        }
        Ok(())
    }

    /// Whether the `O(log n)` virtual-time medium reproduces the max-min
    /// solver exactly on this file system: every write's per-server flows
    /// are then governed by their server alone, at a cap/weight ratio
    /// shared by every flow. Three clauses, all required:
    ///
    /// * the share policy is [`SharePolicy::ProportionalToProcesses`], so
    ///   a flow's weight is its process count and its client cap is that
    ///   count times `process_link_bw / num_servers`;
    /// * `process_link_bw / num_servers >= 1`, so the cap's `.max(1.0)`
    ///   floor in [`Pfs::submit_write`](crate::Pfs::submit_write) never
    ///   lifts one flow's ratio above the others';
    /// * `num_servers` times the peak server capacity (`absorb_bw` with a
    ///   cache, `server_bw` without) fits in `interconnect_bw`, so the
    ///   interconnect — a constraint every flow crosses but none is
    ///   homed on — can never bind.
    ///
    /// The Nancy preset fails the last clause: 35 × 300 MB/s of cache
    /// ingest exceeds its 10 GB/s interconnect.
    pub fn fair_fast_is_exact(&self) -> bool {
        let peak_server_bw = match &self.cache {
            Some(c) => c.absorb_bw,
            None => self.server_bw,
        };
        self.share_policy == SharePolicy::ProportionalToProcesses
            && self.process_link_bw / self.num_servers as f64 >= 1.0
            && self.num_servers as f64 * peak_server_bw <= self.interconnect_bw
    }

    /// Total aggregate file system bandwidth (no cache, single application).
    pub fn aggregate_server_bw(&self) -> f64 {
        self.server_bw * self.num_servers as f64
    }

    /// Approximation of Argonne's *Surveyor* (one BG/P rack, 4-server PVFS2,
    /// caching not relied upon). Calibrated so that 2048 processes writing
    /// 32 MB each take on the order of 10–20 s, as in Fig. 7a.
    pub fn surveyor() -> Self {
        PfsConfig {
            num_servers: 4,
            server_bw: 1.0e9, // 1 GB/s per server, ~4 GB/s aggregate
            cache: None,
            interference_gamma: 0.85,
            // 2.5 MB/s injection per process: 1024-process applications are
            // client-limited (the Fig. 7b regime where interference is lower
            // than expected), 2048-process ones saturate the file system.
            process_link_bw: 2.5e6,
            interconnect_bw: 16.0e9, // tree network ceiling
            share_policy: SharePolicy::ProportionalToProcesses,
        }
    }

    /// Approximation of the Grid'5000 Rennes deployment (12-server OrangeFS
    /// on local disks, ext3, **caching disabled**), used for Figs. 2, 4, 6
    /// and 9.
    pub fn grid5000_rennes() -> Self {
        PfsConfig {
            num_servers: 12,
            server_bw: 70.0e6, // ~70 MB/s per local disk
            cache: None,
            interference_gamma: 0.85,
            process_link_bw: 12.0e6, // IB link share per process
            interconnect_bw: 10.0e9,
            share_policy: SharePolicy::ProportionalToProcesses,
        }
    }

    /// Approximation of the Grid'5000 Nancy deployment (35-server PVFS,
    /// **kernel caching enabled** in the storage backend), used for Fig. 3.
    pub fn grid5000_nancy() -> Self {
        PfsConfig {
            num_servers: 35,
            server_bw: 55.0e6,
            cache: Some(CacheConfig {
                capacity_bytes: 100.0e6, // dirty-page budget per server
                absorb_bw: 300.0e6,      // network-limited ingest
                drain_bw: 55.0e6,        // disk drain
            }),
            interference_gamma: 0.85,
            process_link_bw: 12.0e6,
            interconnect_bw: 10.0e9,
            share_policy: SharePolicy::ProportionalToProcesses,
        }
    }
}

impl Default for PfsConfig {
    fn default() -> Self {
        Self::grid5000_rennes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        PfsConfig::surveyor().validate().unwrap();
        PfsConfig::grid5000_rennes().validate().unwrap();
        PfsConfig::grid5000_nancy().validate().unwrap();
        PfsConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = PfsConfig {
            num_servers: 0,
            ..PfsConfig::default()
        };
        assert!(c.validate().is_err());

        let c = PfsConfig {
            server_bw: 0.0,
            ..PfsConfig::default()
        };
        assert!(c.validate().is_err());

        let c = PfsConfig {
            num_servers: MAX_SERVERS + 1,
            ..PfsConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyServers {
                num_servers: MAX_SERVERS + 1
            })
        );
        let c = PfsConfig {
            num_servers: MAX_SERVERS,
            ..PfsConfig::default()
        };
        c.validate().unwrap();

        let mut c = PfsConfig {
            interference_gamma: 0.0,
            ..PfsConfig::default()
        };
        assert!(c.validate().is_err());
        c.interference_gamma = 1.5;
        assert!(c.validate().is_err());

        let c = PfsConfig {
            process_link_bw: -1.0,
            ..PfsConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = PfsConfig::grid5000_nancy();
        if let Some(cache) = &mut c.cache {
            cache.drain_bw = cache.absorb_bw * 2.0;
        }
        assert!(c.validate().is_err());
    }

    #[test]
    fn aggregate_bandwidth() {
        let c = PfsConfig {
            num_servers: 4,
            server_bw: 25.0,
            ..PfsConfig::default()
        };
        assert_eq!(c.aggregate_server_bw(), 100.0);
    }

    #[test]
    fn fair_fast_exactness_needs_every_clause() {
        let rennes = PfsConfig::grid5000_rennes();
        assert!(rennes.fair_fast_is_exact());
        assert!(PfsConfig::surveyor().fair_fast_is_exact());

        // Clause 1: per-application shares give every flow weight 1 but a
        // cap that grows with its process count.
        let equal = PfsConfig {
            share_policy: SharePolicy::EqualPerApplication,
            ..rennes.clone()
        };
        assert!(!equal.fair_fast_is_exact());

        // Clause 2: the cap floor binds once a process's link share per
        // server drops below 1 B/s; exactly 1 B/s is still uniform.
        let floor = |link: f64| PfsConfig {
            process_link_bw: link * rennes.num_servers as f64,
            ..rennes.clone()
        };
        assert!(floor(1.0).fair_fast_is_exact());
        assert!(!floor(0.999).fair_fast_is_exact());

        // Clause 3: the interconnect must carry every server at its peak,
        // which is the cache's ingest speed when there is a cache.
        let nancy = PfsConfig::grid5000_nancy();
        assert!(!nancy.fair_fast_is_exact(), "35 x 300 MB/s > 10 GB/s");
        let fits = PfsConfig {
            interconnect_bw: 35.0 * 300.0e6,
            ..nancy.clone()
        };
        assert!(fits.fair_fast_is_exact());
        let just_short = PfsConfig {
            interconnect_bw: 35.0 * 300.0e6 - 1.0,
            ..nancy.clone()
        };
        assert!(!just_short.fair_fast_is_exact());
        let uncached = PfsConfig {
            cache: None,
            ..nancy
        };
        assert!(uncached.fair_fast_is_exact(), "35 x 55 MB/s fits");
        let unbounded = PfsConfig {
            interconnect_bw: f64::INFINITY,
            ..PfsConfig::grid5000_nancy()
        };
        assert!(unbounded.fair_fast_is_exact());
    }

    #[test]
    fn nancy_has_cache_rennes_does_not() {
        assert!(PfsConfig::grid5000_nancy().cache.is_some());
        assert!(PfsConfig::grid5000_rennes().cache.is_none());
        assert!(PfsConfig::surveyor().cache.is_none());
    }
}
