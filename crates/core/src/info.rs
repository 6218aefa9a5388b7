//! Information exchanged between applications.
//!
//! The paper's `Prepare(MPI_Info info)` call lets each layer of the I/O
//! stack attach knowledge about upcoming accesses — number of files, number
//! of collective-buffering rounds, amount of data per round, etc. — that is
//! then shipped to the other running applications by `Inform()`. [`IoInfo`]
//! is the typed equivalent; [`IoInfo::to_pairs`] /
//! [`IoInfo::from_pairs`] provide the flat `(key, value)` representation
//! that mirrors the `MPI_Info` object of the paper's API.

use crate::error::InfoError;
use mpiio::Granularity;
use pfs::AppId;
use std::collections::BTreeMap;

/// Knowledge about one application's ongoing / upcoming I/O activity, as
/// shared with the other applications through CALCioM.
#[derive(Debug, Clone, PartialEq)]
pub struct IoInfo {
    /// The application this information describes.
    pub app: AppId,
    /// Number of processes (cores) the application runs on. Used by
    /// machine-wide efficiency metrics that weight I/O time by allocated
    /// resources.
    pub procs: u32,
    /// Number of files the current I/O phase writes.
    pub files_total: u32,
    /// Number of collective-buffering rounds in the current phase.
    pub rounds_total: u32,
    /// Total bytes the current phase writes.
    pub bytes_total: f64,
    /// Bytes not yet written in the current phase.
    pub bytes_remaining: f64,
    /// Estimated duration of the full phase if the application ran alone.
    pub est_alone_total_secs: f64,
    /// Estimated time to finish the remaining work if the application ran
    /// alone from now on.
    pub est_alone_remaining_secs: f64,
    /// Fraction of the file system's aggregate bandwidth this application
    /// can drive on its own (its client-side demand), in `[0, 1]`. Two
    /// applications whose fractions sum to at most 1 can overlap without
    /// slowing each other down — the situation of Fig. 7(b)/Fig. 12 where
    /// interference is lower than expected.
    pub pfs_share: f64,
    /// How often the application issues coordination calls (how quickly it
    /// could yield).
    pub granularity: Granularity,
}

impl IoInfo {
    /// The information an application would share at the *start* of an
    /// I/O phase, derived from its configuration and the target file
    /// system — the payload a driver embedding
    /// [`Coordinator::prepare`](crate::Coordinator::prepare) hands over
    /// before its first `Inform()`. (Mid-phase refreshes subtract the
    /// bytes already written; see the fields' docs.)
    pub fn at_phase_start(
        cfg: &mpiio::AppConfig,
        pfs: &pfs::PfsConfig,
        granularity: Granularity,
    ) -> IoInfo {
        let plan = cfg.plan();
        let bytes_total = plan.total_write_bytes();
        let alone_bw = cfg.alone_bandwidth(pfs).max(1.0);
        IoInfo {
            app: cfg.id,
            procs: cfg.procs,
            files_total: cfg.files,
            rounds_total: cfg.collective.rounds_for(&cfg.pattern, cfg.procs),
            bytes_total,
            bytes_remaining: bytes_total,
            est_alone_total_secs: cfg.estimate_alone_seconds(pfs),
            est_alone_remaining_secs: bytes_total / alone_bw,
            pfs_share: cfg.pfs_demand_fraction(pfs),
            granularity,
        }
    }

    /// Fraction of the phase already completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.bytes_total <= 0.0 {
            return 1.0;
        }
        (1.0 - self.bytes_remaining / self.bytes_total).clamp(0.0, 1.0)
    }

    /// Serializes to flat `(key, value)` pairs, mirroring the `MPI_Info`
    /// structure used by the paper's `Prepare` call.
    pub fn to_pairs(&self) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        map.insert("app".into(), self.app.0.to_string());
        map.insert("procs".into(), self.procs.to_string());
        map.insert("files_total".into(), self.files_total.to_string());
        map.insert("rounds_total".into(), self.rounds_total.to_string());
        map.insert("bytes_total".into(), format!("{}", self.bytes_total));
        map.insert(
            "bytes_remaining".into(),
            format!("{}", self.bytes_remaining),
        );
        map.insert(
            "est_alone_total_secs".into(),
            format!("{}", self.est_alone_total_secs),
        );
        map.insert(
            "est_alone_remaining_secs".into(),
            format!("{}", self.est_alone_remaining_secs),
        );
        map.insert("pfs_share".into(), format!("{}", self.pfs_share));
        map.insert("granularity".into(), self.granularity.label().to_string());
        map
    }

    /// Parses the flat representation produced by [`IoInfo::to_pairs`].
    pub fn from_pairs(pairs: &BTreeMap<String, String>) -> Result<Self, InfoError> {
        fn get<'a>(m: &'a BTreeMap<String, String>, k: &str) -> Result<&'a str, InfoError> {
            m.get(k)
                .map(|s| s.as_str())
                .ok_or_else(|| InfoError::MissingKey(k.to_string()))
        }
        fn parse<T: std::str::FromStr>(s: &str, k: &str) -> Result<T, InfoError> {
            s.parse().map_err(|_| InfoError::InvalidValue {
                key: k.to_string(),
                value: s.to_string(),
            })
        }
        let granularity_label = get(pairs, "granularity")?;
        let granularity = Granularity::from_label(granularity_label)
            .ok_or_else(|| InfoError::UnknownGranularity(granularity_label.to_string()))?;
        Ok(IoInfo {
            app: AppId(parse(get(pairs, "app")?, "app")?),
            procs: parse(get(pairs, "procs")?, "procs")?,
            files_total: parse(get(pairs, "files_total")?, "files_total")?,
            rounds_total: parse(get(pairs, "rounds_total")?, "rounds_total")?,
            bytes_total: parse(get(pairs, "bytes_total")?, "bytes_total")?,
            bytes_remaining: parse(get(pairs, "bytes_remaining")?, "bytes_remaining")?,
            est_alone_total_secs: parse(
                get(pairs, "est_alone_total_secs")?,
                "est_alone_total_secs",
            )?,
            est_alone_remaining_secs: parse(
                get(pairs, "est_alone_remaining_secs")?,
                "est_alone_remaining_secs",
            )?,
            pfs_share: parse(get(pairs, "pfs_share")?, "pfs_share")?,
            granularity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IoInfo {
        IoInfo {
            app: AppId(3),
            procs: 2048,
            files_total: 4,
            rounds_total: 64,
            bytes_total: 32.0e9,
            bytes_remaining: 8.0e9,
            est_alone_total_secs: 30.0,
            est_alone_remaining_secs: 7.5,
            pfs_share: 0.8,
            granularity: Granularity::Round,
        }
    }

    #[test]
    fn progress_fraction() {
        let info = sample();
        assert!((info.progress() - 0.75).abs() < 1e-12);
        let done = IoInfo {
            bytes_remaining: 0.0,
            ..sample()
        };
        assert_eq!(done.progress(), 1.0);
        let empty = IoInfo {
            bytes_total: 0.0,
            bytes_remaining: 0.0,
            ..sample()
        };
        assert_eq!(empty.progress(), 1.0);
    }

    #[test]
    fn pairs_round_trip() {
        let info = sample();
        let pairs = info.to_pairs();
        assert_eq!(pairs.get("procs").unwrap(), "2048");
        assert_eq!(pairs.get("granularity").unwrap(), "round");
        let back = IoInfo::from_pairs(&pairs).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn from_pairs_reports_missing_and_invalid_keys() {
        let mut pairs = sample().to_pairs();
        pairs.remove("procs");
        assert_eq!(
            IoInfo::from_pairs(&pairs).unwrap_err(),
            InfoError::MissingKey("procs".into())
        );

        let mut pairs = sample().to_pairs();
        pairs.insert("granularity".into(), "banana".into());
        assert_eq!(
            IoInfo::from_pairs(&pairs).unwrap_err(),
            InfoError::UnknownGranularity("banana".into())
        );

        let mut pairs = sample().to_pairs();
        pairs.insert("bytes_total".into(), "not-a-number".into());
        assert!(matches!(
            IoInfo::from_pairs(&pairs).unwrap_err(),
            InfoError::InvalidValue { .. }
        ));
    }
}
