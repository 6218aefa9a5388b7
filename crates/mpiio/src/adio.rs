//! ADIO-level coordination hooks.
//!
//! The paper implements CALCioM calls in a custom ADIO layer for ROMIO so
//! that `Inform`/`Release` can be issued "before and after each atomic call
//! to independent contiguous writes" (Section IV-C). How often these calls
//! are made determines how quickly an application can react to another
//! application's request — the difference between the smooth
//! "round-level interruption" curve and the "saw"-shaped "file-level
//! interruption" curve of Fig. 10.

/// How often an application issues coordination calls during an I/O phase,
/// i.e. the granularity at which it can be interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Coordination only at the start of the whole I/O phase: once the
    /// phase has started it runs to completion.
    Phase,
    /// Coordination between files: the application can be paused after
    /// finishing the file it is currently writing (the "saw" pattern of
    /// Fig. 10).
    File,
    /// Coordination between collective-buffering rounds / atomic writes in
    /// the ADIO layer: the application can be paused within a file, after
    /// the current round completes.
    Round,
}

impl Granularity {
    /// All granularities, coarsest first.
    pub const ALL: [Granularity; 3] = [Granularity::Phase, Granularity::File, Granularity::Round];

    /// Human-readable label used by the experiment harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            Granularity::Phase => "phase",
            Granularity::File => "file",
            Granularity::Round => "round",
        }
    }

    /// Parses a label produced by [`Granularity::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Granularity::ALL
            .iter()
            .copied()
            .find(|g| g.label() == label)
    }
}

/// The hook positions exposed by the (simulated) ADIO layer. These mirror
/// where the CALCioM API calls are placed in the paper's prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPoint {
    /// Before the first operation of an I/O phase (application level).
    PhaseBegin,
    /// After the last operation of an I/O phase.
    PhaseEnd,
    /// Before opening/writing the next file.
    FileBegin,
    /// After closing the current file.
    FileEnd,
    /// Before the next collective-buffering round (ADIO level).
    RoundBegin,
    /// After the current collective-buffering round.
    RoundEnd,
}

impl HookPoint {
    /// Whether a coordination call at this hook is enabled for the given
    /// granularity.
    pub fn enabled_at(&self, granularity: Granularity) -> bool {
        match self {
            HookPoint::PhaseBegin | HookPoint::PhaseEnd => true,
            HookPoint::FileBegin | HookPoint::FileEnd => {
                matches!(granularity, Granularity::File | Granularity::Round)
            }
            HookPoint::RoundBegin | HookPoint::RoundEnd => {
                matches!(granularity, Granularity::Round)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = Granularity::ALL.iter().map(|g| g.label()).collect();
        assert_eq!(labels, vec!["phase", "file", "round"]);
    }

    #[test]
    fn phase_hooks_always_enabled() {
        for g in Granularity::ALL {
            assert!(HookPoint::PhaseBegin.enabled_at(g));
            assert!(HookPoint::PhaseEnd.enabled_at(g));
        }
    }

    #[test]
    fn file_hooks_enabled_at_file_and_round() {
        assert!(!HookPoint::FileBegin.enabled_at(Granularity::Phase));
        assert!(HookPoint::FileBegin.enabled_at(Granularity::File));
        assert!(HookPoint::FileEnd.enabled_at(Granularity::Round));
    }

    #[test]
    fn round_hooks_only_at_round() {
        assert!(!HookPoint::RoundBegin.enabled_at(Granularity::Phase));
        assert!(!HookPoint::RoundBegin.enabled_at(Granularity::File));
        assert!(HookPoint::RoundBegin.enabled_at(Granularity::Round));
        assert!(HookPoint::RoundEnd.enabled_at(Granularity::Round));
    }
}
