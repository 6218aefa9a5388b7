//! Scheduling strategies.
//!
//! Section III-A of the paper describes four ways of dealing with an
//! arriving I/O phase while another application is accessing the file
//! system: let them interfere, serialize on a first-come-first-served
//! basis, interrupt the application currently accessing, or pick among
//! these dynamically against a machine-wide efficiency metric. Fig. 12
//! additionally shows that *delaying* one of the accesses by a bounded
//! amount can beat both FCFS and plain interference when the observed
//! interference is low.

use crate::arbitration::PolicySpec;

/// The I/O scheduling strategy applied by CALCioM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// No coordination: applications access the file system concurrently
    /// (the baseline the paper calls "interfering").
    Interfere,
    /// First-come-first-served serialization: an application arriving while
    /// another is accessing waits until that access completes.
    FcfsSerialize,
    /// Interruption-based serialization: the application currently
    /// accessing yields at its next coordination point for the benefit of
    /// the newcomer, and resumes once the newcomer has finished.
    Interrupt,
    /// Bounded delay: the newcomer waits for the current access to finish,
    /// but at most for the given number of seconds, after which it proceeds
    /// and overlaps (Fig. 12's trade-off).
    Delay {
        /// Maximum number of seconds the newcomer is willing to wait.
        max_wait_secs: f64,
    },
    /// Dynamic selection among the strategies above, driven by the
    /// configured machine-wide efficiency metric and the information the
    /// applications exchanged (the CALCioM contribution, Fig. 11).
    Dynamic,
}

impl Strategy {
    /// Label used in experiment output, carrying the strategy's
    /// parameters: `delay(30s)` and `delay(2s)` are different schedules
    /// and label differently (they used to collapse to a bare `delay`).
    /// This is the same string the policy layer uses
    /// ([`ArbitrationPolicy::label`](crate::arbitration::ArbitrationPolicy::label)
    /// of the corresponding built-in policy).
    pub fn label(&self) -> String {
        self.spec().to_text()
    }

    /// The [`PolicySpec`] naming this strategy's built-in policy in the
    /// standard [`PolicyRegistry`](crate::arbitration::PolicyRegistry).
    pub fn spec(&self) -> PolicySpec {
        match *self {
            Strategy::Interfere => PolicySpec::new("interfering"),
            Strategy::FcfsSerialize => PolicySpec::new("fcfs"),
            Strategy::Interrupt => PolicySpec::new("interrupt"),
            Strategy::Delay { max_wait_secs } => {
                PolicySpec::with_arg("delay", crate::arbitration::secs_to_arg(max_wait_secs))
            }
            Strategy::Dynamic => PolicySpec::new("calciom-dynamic"),
        }
    }
}

/// What the arbiter tells an application that asked for access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessOutcome {
    /// The application may proceed with its I/O immediately.
    Granted,
    /// The application must wait; it will be granted access later (when the
    /// current accessor releases or yields).
    MustWait,
    /// The application must wait, but no longer than the given number of
    /// seconds (Delay strategy).
    MustWaitAtMost(f64),
}

/// What the arbiter tells the current accessor at one of its yield points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldOutcome {
    /// Keep going: nobody needs the file system more urgently.
    Continue,
    /// Pause here: another application has been granted priority; the
    /// accessor will be resumed when it is granted access again.
    YieldNow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let strategies = [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Delay { max_wait_secs: 3.0 },
            Strategy::Dynamic,
        ];
        let labels: std::collections::BTreeSet<String> =
            strategies.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), strategies.len());
    }

    #[test]
    fn labels_carry_the_delay_bound() {
        // The historic `label()` collapsed every bound to a bare "delay";
        // two differently-bounded schedules must label differently.
        assert_eq!(Strategy::Delay { max_wait_secs: 3.0 }.label(), "delay(3s)");
        assert_eq!(
            Strategy::Delay {
                max_wait_secs: 0.125
            }
            .label(),
            "delay(0.125s)"
        );
        assert_ne!(
            Strategy::Delay { max_wait_secs: 3.0 }.label(),
            Strategy::Delay { max_wait_secs: 4.0 }.label()
        );
        // Parameterless labels stay exactly what figures always printed.
        assert_eq!(Strategy::Interfere.label(), "interfering");
        assert_eq!(Strategy::Dynamic.label(), "calciom-dynamic");
    }
}
