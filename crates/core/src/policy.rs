//! Dynamic strategy selection.
//!
//! When a new application informs the others that it wants to start an I/O
//! phase while someone is already accessing the file system, CALCioM must
//! decide between three options (Section IV-D):
//!
//! * make the newcomer **wait** (FCFS serialization),
//! * **interrupt** the current accessor for the benefit of the newcomer,
//! * let them **interfere**.
//!
//! The decision minimizes the *additional* cost each option adds to the
//! configured machine-wide efficiency metric, computed from the information
//! the applications exchanged (core counts, remaining data, estimated
//! stand-alone times). For the CPU·seconds metric and two applications of
//! equal size this reduces exactly to the paper's rule: interrupt A if and
//! only if `dt < T_A(alone) − T_B(alone)`, i.e. B arrived before A wrote the
//! last `T_B`-worth of its data.

use crate::info::IoInfo;
use crate::metrics::EfficiencyMetric;

/// The choice made by the dynamic policy for one arriving application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynDecision {
    /// Let the newcomer proceed concurrently with the current accessor(s).
    Interfere,
    /// Make the newcomer wait until the current accessor(s) release.
    WaitFcfs,
    /// Interrupt the current accessor(s) and let the newcomer go first.
    InterruptAccessors,
}

/// Configuration of the dynamic policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicPolicy {
    /// The machine-wide metric to minimize.
    pub metric: EfficiencyMetric,
    /// Whether plain interference is considered as a candidate (requires an
    /// interference estimate; the paper leaves this estimation to future
    /// work and only chooses between FCFS and interruption, so the default
    /// is `false`).
    pub consider_interference: bool,
    /// Locality-breakage factor used by the interference estimate when
    /// `consider_interference` is enabled.
    pub interference_gamma: f64,
}

impl Default for DynamicPolicy {
    fn default() -> Self {
        DynamicPolicy {
            metric: EfficiencyMetric::CpuSecondsWasted,
            consider_interference: false,
            interference_gamma: 0.85,
        }
    }
}

impl DynamicPolicy {
    /// Creates a policy minimizing the given metric, without considering
    /// plain interference (the paper's configuration).
    pub fn new(metric: EfficiencyMetric) -> Self {
        DynamicPolicy {
            metric,
            ..Default::default()
        }
    }

    /// Per-application weight of one extra second of I/O time under the
    /// configured metric.
    fn weight(&self, info: &IoInfo) -> f64 {
        match self.metric {
            EfficiencyMetric::TotalIoTime => 1.0,
            EfficiencyMetric::CpuSecondsWasted => info.procs as f64,
            EfficiencyMetric::SumInterferenceFactors => 1.0 / info.est_alone_total_secs.max(1e-9),
        }
    }

    /// Additional metric cost if the newcomer waits for all accessors
    /// (FCFS): only the newcomer is delayed, by the accessors' remaining
    /// stand-alone time.
    pub fn extra_cost_fcfs(&self, requester: &IoInfo, accessors: &[IoInfo]) -> f64 {
        let remaining: f64 = accessors.iter().map(|a| a.est_alone_remaining_secs).sum();
        self.weight(requester) * remaining
    }

    /// Additional metric cost if the accessors are interrupted: each
    /// accessor is delayed by the newcomer's full stand-alone phase time.
    pub fn extra_cost_interrupt(&self, requester: &IoInfo, accessors: &[IoInfo]) -> f64 {
        accessors
            .iter()
            .map(|a| self.weight(a) * requester.est_alone_total_secs)
            .sum()
    }

    /// Additional metric cost if the newcomer simply interferes with the
    /// (first) accessor, using a proportional-sharing fluid estimate with a
    /// locality-breakage factor γ. This is the estimate the paper leaves to
    /// future work; it is used only when `consider_interference` is set.
    pub fn extra_cost_interfere(&self, requester: &IoInfo, accessors: &[IoInfo]) -> f64 {
        if accessors.is_empty() {
            return 0.0;
        }
        // If the combined client-side demand does not saturate the file
        // system, overlapping the accesses costs (almost) nothing — the
        // Fig. 7(b)/Fig. 12 regime where interference is lower than a
        // proportional-sharing model would predict.
        let combined_demand: f64 =
            requester.pfs_share + accessors.iter().map(|a| a.pfs_share).sum::<f64>();
        if combined_demand <= 1.0 {
            return 0.0;
        }
        // Pairwise estimate against the aggregate of the accessors.
        let t_r = requester.est_alone_total_secs;
        let t_a: f64 = accessors.iter().map(|a| a.est_alone_remaining_secs).sum();
        let w_r = requester.procs.max(1) as f64;
        let w_a: f64 = accessors.iter().map(|a| a.procs.max(1) as f64).sum();
        let gamma = self.interference_gamma.clamp(1e-3, 1.0);

        // Shares of the (server-limited) bandwidth while both are active,
        // expressed as fractions of the alone bandwidth.
        let share_r = gamma * w_r / (w_r + w_a);
        let share_a = gamma * w_a / (w_r + w_a);

        // Who finishes first under proportional sharing?
        let finish_r = t_r / share_r;
        let finish_a = t_a / share_a;
        let (obs_r, obs_a) = if finish_r <= finish_a {
            // Requester finishes first; the accessor then completes the rest
            // at full speed.
            let done_a = finish_r * share_a;
            (finish_r, finish_r + (t_a - done_a).max(0.0))
        } else {
            let done_r = finish_a * share_r;
            (finish_a + (t_r - done_r).max(0.0), finish_a)
        };

        let acc_weight: f64 =
            accessors.iter().map(|a| self.weight(a)).sum::<f64>() / accessors.len() as f64;
        self.weight(requester) * (obs_r - t_r).max(0.0) + acc_weight * (obs_a - t_a).max(0.0)
    }

    /// Decides what to do with a newcomer given the current accessors'
    /// exchanged information. With no accessor the newcomer is always
    /// allowed to proceed.
    pub fn decide(&self, requester: &IoInfo, accessors: &[IoInfo]) -> DynDecision {
        if accessors.is_empty() {
            return DynDecision::Interfere;
        }
        let fcfs = self.extra_cost_fcfs(requester, accessors);
        let interrupt = self.extra_cost_interrupt(requester, accessors);
        let mut best = if interrupt < fcfs {
            (DynDecision::InterruptAccessors, interrupt)
        } else {
            (DynDecision::WaitFcfs, fcfs)
        };
        if self.consider_interference {
            let interfere = self.extra_cost_interfere(requester, accessors);
            if interfere < best.1 {
                best = (DynDecision::Interfere, interfere);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::Granularity;
    use pfs::AppId;

    fn info(app: usize, procs: u32, total: f64, remaining: f64) -> IoInfo {
        info_with_share(app, procs, total, remaining, 1.0)
    }

    fn info_with_share(
        app: usize,
        procs: u32,
        total: f64,
        remaining: f64,
        pfs_share: f64,
    ) -> IoInfo {
        IoInfo {
            app: AppId(app),
            procs,
            files_total: 1,
            rounds_total: 1,
            bytes_total: total * 1.0e9,
            bytes_remaining: remaining * 1.0e9,
            est_alone_total_secs: total,
            est_alone_remaining_secs: remaining,
            pfs_share,
            granularity: Granularity::Round,
        }
    }

    #[test]
    fn no_accessor_means_proceed() {
        let policy = DynamicPolicy::default();
        assert_eq!(
            policy.decide(&info(1, 64, 5.0, 5.0), &[]),
            DynDecision::Interfere
        );
    }

    #[test]
    fn paper_rule_equal_sizes() {
        // Fig. 11 scenario: N_A = N_B = 2048, B writes 4× less than A.
        // Interrupt A iff dt < T_A(alone) − T_B(alone).
        let policy = DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted);
        let t_a_alone = 28.0;
        let t_b_alone = 7.0;
        // Early arrival: A has written little, remaining 25 s > T_B → interrupt.
        let b = info(1, 2048, t_b_alone, t_b_alone);
        let a_early = info(0, 2048, t_a_alone, 25.0);
        assert_eq!(
            policy.decide(&b, &[a_early]),
            DynDecision::InterruptAccessors
        );
        // Late arrival (dt > T_A − T_B = 21 s): remaining < 7 s → FCFS.
        let a_late = info(0, 2048, t_a_alone, 5.0);
        assert_eq!(policy.decide(&b, &[a_late]), DynDecision::WaitFcfs);
        // Boundary: remaining exactly T_B → FCFS (ties keep the accessor).
        let a_tie = info(0, 2048, t_a_alone, t_b_alone);
        assert_eq!(policy.decide(&b, &[a_tie]), DynDecision::WaitFcfs);
    }

    #[test]
    fn cpu_seconds_metric_protects_big_applications() {
        // A small app should not interrupt a much bigger one under the
        // CPU·seconds metric unless the big one is nearly done.
        let policy = DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted);
        let small = info(1, 24, 2.0, 2.0);
        let big_mid_write = info(0, 744, 12.0, 8.0);
        // interrupt cost = 744 × 2 = 1488; fcfs cost = 24 × 8 = 192 → wait.
        assert_eq!(
            policy.decide(&small, std::slice::from_ref(&big_mid_write)),
            DynDecision::WaitFcfs
        );

        // Under the plain sum-of-times metric the same situation interrupts
        // the big application (2 s < 8 s).
        let policy = DynamicPolicy::new(EfficiencyMetric::TotalIoTime);
        assert_eq!(
            policy.decide(&small, &[big_mid_write]),
            DynDecision::InterruptAccessors
        );
    }

    #[test]
    fn interference_factor_metric_protects_small_applications() {
        // Under Σ I_X, delaying a tiny app by a big app's remaining time is
        // very costly (its factor explodes), so the big app is interrupted.
        let policy = DynamicPolicy::new(EfficiencyMetric::SumInterferenceFactors);
        let small = info(1, 24, 2.0, 2.0);
        let big = info(0, 744, 12.0, 10.0);
        assert_eq!(
            policy.decide(&small, &[big]),
            DynDecision::InterruptAccessors
        );
    }

    #[test]
    fn extra_costs_match_hand_computation() {
        let policy = DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted);
        let b = info(1, 100, 3.0, 3.0);
        let a = info(0, 200, 10.0, 6.0);
        assert_eq!(
            policy.extra_cost_fcfs(&b, std::slice::from_ref(&a)),
            100.0 * 6.0
        );
        assert_eq!(policy.extra_cost_interrupt(&b, &[a]), 200.0 * 3.0);
    }

    #[test]
    fn interference_estimate_is_positive_and_bounded() {
        let policy = DynamicPolicy {
            consider_interference: true,
            interference_gamma: 0.85,
            metric: EfficiencyMetric::TotalIoTime,
        };
        let b = info_with_share(1, 512, 5.0, 5.0, 1.0);
        let a = info_with_share(0, 512, 5.0, 5.0, 1.0);
        let cost = policy.extra_cost_interfere(&b, &[a]);
        // Equal apps sharing with γ<1: both are delayed, cost is positive
        // but finite.
        assert!(cost > 0.0 && cost < 30.0, "cost = {cost}");
        assert_eq!(policy.extra_cost_interfere(&b, &[]), 0.0);
    }

    #[test]
    fn consider_interference_picks_interference_when_demand_fits() {
        // Two small applications whose combined client-side demand does not
        // saturate the file system (Fig. 7b / Fig. 12): overlapping is free,
        // so neither serialization nor interruption is worth it.
        let policy = DynamicPolicy {
            consider_interference: true,
            interference_gamma: 1.0,
            metric: EfficiencyMetric::TotalIoTime,
        };
        let b = info_with_share(1, 1024, 8.0, 8.0, 0.45);
        let a = info_with_share(0, 1024, 8.0, 8.0, 0.45);
        assert_eq!(policy.decide(&b, &[a]), DynDecision::Interfere);
    }

    #[test]
    fn consider_interference_still_serializes_saturating_applications() {
        // Same configuration but both applications can saturate the file
        // system on their own: overlapping them is costly, so the policy
        // falls back to one of the serializing options.
        let policy = DynamicPolicy {
            consider_interference: true,
            interference_gamma: 0.85,
            metric: EfficiencyMetric::TotalIoTime,
        };
        let b = info_with_share(1, 2048, 8.0, 8.0, 1.0);
        let a = info_with_share(0, 2048, 8.0, 6.0, 1.0);
        assert_ne!(policy.decide(&b, &[a]), DynDecision::Interfere);
    }
}
