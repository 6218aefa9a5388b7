//! Write-back (kernel page) cache model for a storage server.
//!
//! The paper's Fig. 3 shows two periodic writers on a PVFS deployment with
//! kernel caching enabled in the storage backend: as long as bursts are
//! absorbed by the cache the applications observe network-speed throughput,
//! but when two bursts coincide the cache fills and both collapse to disk
//! speed. This module reproduces that mechanism with a fluid dirty-bytes
//! model and a saturation flag with hysteresis (once thrashing, a server
//! stays at disk speed until the backlog has drained to half capacity).

use crate::config::CacheConfig;

/// Numerical tolerance on byte counts.
const EPS: f64 = 1e-6;

/// Dynamic state of one server's write-back cache.
#[derive(Debug, Clone)]
pub struct WriteBackCache {
    cfg: CacheConfig,
    dirty: f64,
    saturated: bool,
}

impl WriteBackCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        WriteBackCache {
            cfg,
            dirty: 0.0,
            saturated: false,
        }
    }

    /// Current dirty bytes waiting to be drained to disk.
    pub fn dirty(&self) -> f64 {
        self.dirty
    }

    /// Whether the cache is currently saturated (ingest limited to disk
    /// speed).
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Bandwidth at which the server can currently accept writes.
    pub fn ingest_bw(&self) -> f64 {
        if self.saturated {
            self.cfg.drain_bw
        } else {
            self.cfg.absorb_bw
        }
    }

    /// Advances the cache state by `dt_secs` seconds with the given ingest
    /// rate (bytes/s actually written into the server over that interval).
    ///
    /// The caller must pick `dt_secs` small enough that the ingest rate is
    /// constant over the interval and that at most one threshold crossing
    /// occurs (see [`WriteBackCache::time_to_transition`]); crossings inside
    /// the interval are still handled correctly because the dirty level is
    /// clamped, only the exact crossing instant would be smeared otherwise.
    pub fn advance(&mut self, dt_secs: f64, ingest_rate: f64) {
        if dt_secs <= 0.0 {
            return;
        }
        let drain = if self.dirty > EPS || ingest_rate > 0.0 {
            self.cfg.drain_bw
        } else {
            0.0
        };
        let net = ingest_rate - drain;
        self.dirty = (self.dirty + net * dt_secs).clamp(0.0, self.cfg.capacity_bytes);
        if self.dirty >= self.cfg.capacity_bytes - EPS {
            self.saturated = true;
        } else if self.saturated && self.dirty <= 0.5 * self.cfg.capacity_bytes {
            self.saturated = false;
        }
    }

    /// Time in seconds until the ingest bandwidth would change (cache fills
    /// up, or drains below the hysteresis threshold), assuming the given
    /// constant ingest rate. `None` if no transition is ahead.
    pub fn time_to_transition(&self, ingest_rate: f64) -> Option<f64> {
        if !self.saturated {
            let net = ingest_rate - self.cfg.drain_bw;
            if net > EPS {
                let room = (self.cfg.capacity_bytes - self.dirty).max(0.0);
                return Some(room / net);
            }
            None
        } else {
            let net = self.cfg.drain_bw - ingest_rate;
            if net > EPS {
                let target = 0.5 * self.cfg.capacity_bytes;
                let excess = (self.dirty - target).max(0.0);
                return Some(excess / net);
            }
            None
        }
    }

    /// Empties the cache (used between independent experiment repetitions).
    pub fn reset(&mut self) {
        self.dirty = 0.0;
        self.saturated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 1000.0,
            absorb_bw: 100.0,
            drain_bw: 10.0,
        }
    }

    #[test]
    fn starts_empty_and_fast() {
        let c = WriteBackCache::new(cfg());
        assert_eq!(c.dirty(), 0.0);
        assert!(!c.is_saturated());
        assert_eq!(c.ingest_bw(), 100.0);
    }

    #[test]
    fn fills_up_and_saturates() {
        let mut c = WriteBackCache::new(cfg());
        // Ingesting at 100 B/s while draining at 10 B/s: net +90 B/s.
        let t = c.time_to_transition(100.0).unwrap();
        assert!((t - 1000.0 / 90.0).abs() < 1e-9);
        c.advance(t, 100.0);
        assert!(c.is_saturated());
        assert_eq!(c.ingest_bw(), 10.0);
    }

    #[test]
    fn hysteresis_releases_at_half_capacity() {
        let mut c = WriteBackCache::new(cfg());
        c.advance(1000.0, 100.0); // overshoot: clamped at capacity, saturated
        assert!(c.is_saturated());
        // Stop writing: drains at 10 B/s; must drop from 1000 to 500 bytes.
        let t = c.time_to_transition(0.0).unwrap();
        assert!((t - 50.0).abs() < 1e-9);
        c.advance(t, 0.0);
        assert!(!c.is_saturated());
        assert_eq!(c.ingest_bw(), 100.0);
    }

    #[test]
    fn no_transition_when_ingest_below_drain() {
        let c = WriteBackCache::new(cfg());
        assert!(c.time_to_transition(5.0).is_none());
    }

    #[test]
    fn saturated_and_still_ingesting_at_disk_speed_never_releases() {
        let mut c = WriteBackCache::new(cfg());
        c.advance(1000.0, 100.0);
        assert!(c.is_saturated());
        // Ingest exactly at drain speed: dirty stays at capacity.
        assert!(c.time_to_transition(10.0).is_none());
        c.advance(100.0, 10.0);
        assert!(c.is_saturated());
    }

    #[test]
    fn dirty_never_goes_negative_or_above_capacity() {
        let mut c = WriteBackCache::new(cfg());
        c.advance(1e6, 100.0);
        assert!(c.dirty() <= 1000.0 + 1e-9);
        c.advance(1e6, 0.0);
        assert!(c.dirty() >= 0.0);
        assert_eq!(c.dirty(), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = WriteBackCache::new(cfg());
        c.advance(1000.0, 100.0);
        c.reset();
        assert_eq!(c.dirty(), 0.0);
        assert!(!c.is_saturated());
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut c = WriteBackCache::new(cfg());
        c.advance(0.0, 100.0);
        assert_eq!(c.dirty(), 0.0);
        c.advance(-5.0, 100.0);
        assert_eq!(c.dirty(), 0.0);
    }
}
