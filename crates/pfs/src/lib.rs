//! # pfs — simulated parallel file system
//!
//! A discrete-event model of the shared storage system the CALCioM paper
//! runs against (PVFS2 on BG/P *Surveyor*, OrangeFS/PVFS on Grid'5000).
//! Applications submit *atomic writes* that are striped across storage
//! servers; the servers share their bandwidth between concurrent request
//! streams, lose efficiency when streams from different applications are
//! interleaved (locality breakage), and may front a write-back cache that
//! thrashes when bursts from several applications coincide.
//!
//! Three effects from Section II of the paper emerge from this model:
//!
//! 1. **Both applications slow down under interference** (Fig. 2): the
//!    servers' bandwidth is finite and, with the locality-breakage penalty
//!    γ < 1, the compound finishes later than back-to-back execution.
//! 2. **Small applications suffer disproportionately** (Fig. 4, Fig. 6):
//!    bandwidth is shared per request stream, so an 8-process application
//!    competing with a 336-process one receives a tiny share.
//! 3. **Caching collapses under concurrent bursts** (Fig. 3): a burst that
//!    fits in the write-back cache completes at network speed, but two
//!    coinciding bursts saturate the cache and drop to disk speed.
//!
//! ## Quick example
//!
//! ```
//! use pfs::{AppId, Pfs, PfsConfig};
//! use simcore::SimTime;
//!
//! let mut fs = Pfs::new(PfsConfig::grid5000_rennes()).unwrap();
//! let write = fs.submit_write(AppId(0), 256.0e6, 336);
//! fs.advance_to(SimTime::from_secs(60.0));
//! assert!(fs.is_complete(write));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod error;
pub mod filesystem;
pub mod server;

pub use cache::WriteBackCache;
pub use config::{CacheConfig, PfsConfig, SharePolicy, MAX_SERVERS};
pub use error::ConfigError;
pub use filesystem::{Pfs, TransferId, TransferProgress};
pub use server::ServerState;

/// Identifier of an application (job) as seen by the storage system.
///
/// The same identifier is used by the `mpiio` layer and by CALCioM
/// coordinators, so that "who is interfering with whom" can be traced
/// through the whole stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub usize);

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_id_display_and_ordering() {
        assert_eq!(format!("{}", AppId(3)), "app3");
        assert!(AppId(1) < AppId(2));
        assert_eq!(AppId(5), AppId(5));
    }
}
