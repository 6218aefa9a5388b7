//! Analytic "expected interference" model.
//!
//! Several figures of the paper (Figs. 2, 4, 8, 12) overlay the measured
//! write times with the *expected* ones under the assumption of a
//! proportional sharing of resources between the two applications — the
//! piecewise-linear curve that gives the Δ-graph its name. This module
//! computes that expectation analytically with a two-flow fluid model:
//! application A starts at t = 0 and would need `ta` seconds alone,
//! application B starts at `dt` and would need `tb` seconds alone; while
//! both are active each one progresses at a rate proportional to its
//! weight.

/// Expected write times of the two applications under proportional sharing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedTimes {
    /// Expected write time of application A (started at t = 0).
    pub a: f64,
    /// Expected write time of application B (started at t = dt).
    pub b: f64,
}

/// Computes the expected write times of two applications sharing a common
/// bottleneck proportionally to `weight_a` / `weight_b`.
///
/// * `ta_alone`, `tb_alone` — stand-alone write times;
/// * `dt` — start of B relative to A (may be negative: B starts first);
/// * `weight_a`, `weight_b` — sharing weights (e.g. process counts).
///
/// Both applications are assumed to be limited by the same shared resource
/// for the whole duration (the worst case the paper plots as "Expected").
pub fn expected_times(
    ta_alone: f64,
    tb_alone: f64,
    dt: f64,
    weight_a: f64,
    weight_b: f64,
) -> ExpectedTimes {
    // Symmetric case: if B starts first, swap roles and swap back.
    if dt < 0.0 {
        let sw = expected_times(tb_alone, ta_alone, -dt, weight_b, weight_a);
        return ExpectedTimes { a: sw.b, b: sw.a };
    }
    let wa = weight_a.max(1e-12);
    let wb = weight_b.max(1e-12);
    let share_a = wa / (wa + wb);
    let share_b = wb / (wa + wb);

    // Work is measured in "alone seconds": A has ta_alone units, B tb_alone.
    // Phase 1: A alone during [0, dt) (or until it finishes).
    if ta_alone <= dt {
        // No overlap at all.
        return ExpectedTimes {
            a: ta_alone,
            b: tb_alone,
        };
    }
    let a_left_at_dt = ta_alone - dt;

    // Phase 2: both active from dt, rates share_a / share_b.
    let a_finish_if_both = a_left_at_dt / share_a;
    let b_finish_if_both = tb_alone / share_b;
    if a_finish_if_both <= b_finish_if_both {
        // A finishes first at dt + a_finish_if_both; B then completes alone.
        let overlap = a_finish_if_both;
        let b_done_during_overlap = overlap * share_b;
        ExpectedTimes {
            a: dt + overlap,
            b: overlap + (tb_alone - b_done_during_overlap),
        }
    } else {
        // B finishes first; A then completes alone.
        let overlap = b_finish_if_both;
        let a_done_during_overlap = overlap * share_a;
        ExpectedTimes {
            a: dt + overlap + (a_left_at_dt - a_done_during_overlap),
            b: overlap,
        }
    }
}

/// Expected interference factors (`T / T_alone`) under proportional sharing.
pub fn expected_factors(
    ta_alone: f64,
    tb_alone: f64,
    dt: f64,
    weight_a: f64,
    weight_b: f64,
) -> (f64, f64) {
    let e = expected_times(ta_alone, tb_alone, dt, weight_a, weight_b);
    (
        if ta_alone > 0.0 { e.a / ta_alone } else { 1.0 },
        if tb_alone > 0.0 { e.b / tb_alone } else { 1.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn simultaneous_equal_apps_double_their_time() {
        let e = expected_times(10.0, 10.0, 0.0, 1.0, 1.0);
        assert!(close(e.a, 20.0));
        assert!(close(e.b, 20.0));
    }

    #[test]
    fn no_overlap_when_b_starts_after_a_finishes() {
        let e = expected_times(10.0, 10.0, 12.0, 1.0, 1.0);
        assert!(close(e.a, 10.0));
        assert!(close(e.b, 10.0));
    }

    #[test]
    fn partial_overlap_is_piecewise_linear() {
        // A: 10 s alone, B: 10 s alone, B starts at 4 s.
        // A has 6 s of work left; both at half speed: A finishes 12 s later
        // (at t=16), having let B do 6 s of work; B then needs 4 more →
        // B's time = 12 + 4 = 16.
        let e = expected_times(10.0, 10.0, 4.0, 1.0, 1.0);
        assert!(close(e.a, 16.0));
        assert!(close(e.b, 16.0));
    }

    #[test]
    fn first_arriver_is_favored() {
        // The earlier application always has an expected time no larger
        // than the later one's (for equal sizes), matching Fig. 2.
        for dt in [0.5_f64, 2.0, 5.0, 9.0] {
            let e = expected_times(10.0, 10.0, dt, 1.0, 1.0);
            assert!(e.a <= e.b + 1e-9, "dt={dt}: a={} b={}", e.a, e.b);
        }
    }

    #[test]
    fn negative_dt_mirrors_the_graph() {
        let pos = expected_times(10.0, 10.0, 3.0, 1.0, 1.0);
        let neg = expected_times(10.0, 10.0, -3.0, 1.0, 1.0);
        assert!(close(pos.a, neg.b));
        assert!(close(pos.b, neg.a));
    }

    #[test]
    fn weights_protect_the_heavier_application() {
        // A has 9× the weight of B: A barely notices B, while B is crowded
        // out for as long as A is active (10/0.9 ≈ 11.1 s) and then needs
        // the rest of its own work → ≈ 20 s instead of 10.
        let e = expected_times(10.0, 10.0, 0.0, 9.0, 1.0);
        assert!(e.a < 12.0, "a = {}", e.a);
        assert!(e.b > 18.0, "b = {}", e.b);
    }

    #[test]
    fn small_b_finishing_first_leaves_a_to_complete_alone() {
        // B writes very little: A's expected time ≈ its alone time + B's
        // contribution during the overlap.
        let e = expected_times(20.0, 1.0, 5.0, 1.0, 1.0);
        // Overlap lasts 2 s (B needs 1 s of work at half speed), during
        // which A only progresses 1 s → A total = 20 + 1 = 21.
        assert!(close(e.b, 2.0));
        assert!(close(e.a, 21.0));
    }

    #[test]
    fn dt_larger_than_either_access_means_no_interaction() {
        // Degenerate sweeps reach dt values beyond both stand-alone times:
        // the accesses never overlap and both keep their alone time, in
        // either arrival order.
        for (ta, tb) in [(10.0, 3.0), (3.0, 10.0), (7.0, 7.0)] {
            for dt in [10.0 + 1e-9, 15.0, 1e6] {
                let e = expected_times(ta, tb, dt, 336.0, 8.0);
                assert!(close(e.a, ta), "ta={ta} tb={tb} dt={dt}: a={}", e.a);
                assert!(close(e.b, tb), "ta={ta} tb={tb} dt={dt}: b={}", e.b);
                // Mirror: B first by more than either access.
                let m = expected_times(ta, tb, -dt, 336.0, 8.0);
                assert!(close(m.a, ta) && close(m.b, tb));
            }
        }
    }

    #[test]
    fn dt_exactly_equal_to_first_access_is_the_boundary() {
        // B arrives at the exact instant A finishes: zero overlap, both
        // keep their alone times (the piecewise-linear curve's knee).
        let e = expected_times(10.0, 4.0, 10.0, 1.0, 1.0);
        assert!(close(e.a, 10.0));
        assert!(close(e.b, 4.0));
    }

    #[test]
    fn equal_weights_are_an_exact_half_split() {
        // With equal weights the overlap is a strict 50/50 split whatever
        // the absolute weight value: scaling both weights changes nothing.
        let base = expected_times(10.0, 10.0, 4.0, 1.0, 1.0);
        for w in [0.5, 8.0, 336.0, 2048.0] {
            let e = expected_times(10.0, 10.0, 4.0, w, w);
            assert!(close(e.a, base.a), "w={w}: a={}", e.a);
            assert!(close(e.b, base.b), "w={w}: b={}", e.b);
        }
        // And the simultaneous equal case is exactly doubled time.
        let e = expected_times(10.0, 10.0, 0.0, 2048.0, 2048.0);
        assert!(close(e.a, 20.0) && close(e.b, 20.0));
    }

    #[test]
    fn zero_length_accesses_are_degenerate_but_stable() {
        // A has no work: B is unaffected; expected times stay finite and
        // non-negative.
        let e = expected_times(0.0, 10.0, 0.0, 1.0, 1.0);
        assert!(close(e.a, 0.0));
        assert!(close(e.b, 10.0));
        // Both empty.
        let e = expected_times(0.0, 0.0, 2.0, 1.0, 1.0);
        assert!(close(e.a, 0.0) && close(e.b, 0.0));
    }

    #[test]
    fn factors_are_relative_to_alone_times() {
        let (fa, fb) = expected_factors(10.0, 10.0, 0.0, 1.0, 1.0);
        assert!(close(fa, 2.0));
        assert!(close(fb, 2.0));
        let (fa, fb) = expected_factors(0.0, 10.0, 0.0, 1.0, 1.0);
        assert_eq!(fa, 1.0);
        assert!(fb >= 1.0);
    }
}
