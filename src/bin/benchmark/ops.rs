//! One op of the in-process workloads, and the output checks every op
//! gets.
//!
//! The timed path touches only the repository's most stable surface:
//! `Scenario::from_text`, `Scenario::run`, and the public fields of the
//! `SessionReport`.

use crate::gen::{OpInput, Route, Scenario as Gen};
use crate::BenchError;
use calciom::{Scenario, SessionReport};

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an integer in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The benchmark's rendering of a report for digests: every timing field,
/// by value and in order. The strategy enum is left out on purpose (the
/// policy label carries the same information in a stable form).
pub fn fold_report(h: &mut Fnv, report: &SessionReport) {
    h.bytes(report.policy_label.as_bytes());
    h.u64(report.coordination_messages);
    h.u64(report.makespan.ticks());
    for app in &report.apps {
        h.u64(app.app.0 as u64);
        h.u64(app.procs as u64);
        h.u64(app.phases.len() as u64);
        for p in &app.phases {
            h.u64(p.phase as u64);
            h.u64(p.requested_start.ticks());
            h.u64(p.io_start.ticks());
            h.u64(p.end.ticks());
            h.f64(p.bytes);
            h.f64(p.comm_seconds);
            h.f64(p.write_seconds);
            h.f64(p.wait_seconds);
        }
    }
}

/// Relative tolerance of the byte-volume check: the plan sums its
/// per-round writes, which may differ from the product in the last bits.
const BYTES_TOLERANCE: f64 = 1e-9;

fn bytes_match(got: f64, want: f64) -> bool {
    (got - want).abs() <= BYTES_TOLERANCE * want.abs().max(1.0)
}

/// Validity: every application finished every phase, each phase wrote its
/// configured volume, and phase times are ordered.
pub fn check_report(report: &SessionReport, config: &Gen) -> Result<(), BenchError> {
    let bad = |what: String| Err(BenchError::Invalid(what));
    if report.apps.len() != config.apps.len() {
        return bad(format!(
            "{} applications reported, {} configured",
            report.apps.len(),
            config.apps.len()
        ));
    }
    for (i, (got, want)) in report.apps.iter().zip(&config.apps).enumerate() {
        if got.app.0 != i || got.phases.len() != want.phases as usize {
            return bad(format!(
                "app {i}: {} of {} phases reported",
                got.phases.len(),
                want.phases
            ));
        }
        for p in &got.phases {
            if !bytes_match(p.bytes, want.bytes_per_phase()) {
                return bad(format!(
                    "app {i} phase {}: wrote {} bytes, configured {}",
                    p.phase,
                    p.bytes,
                    want.bytes_per_phase()
                ));
            }
            if p.requested_start > p.io_start || p.io_start > p.end || p.end > report.makespan {
                return bad(format!("app {i} phase {}: times out of order", p.phase));
            }
        }
    }
    Ok(())
}

/// Observed I/O time of an application's first phase, in seconds.
pub fn first_io_secs(report: &SessionReport, app: usize) -> Result<f64, BenchError> {
    let p = report
        .apps
        .get(app)
        .and_then(|a| a.phases.first())
        .ok_or_else(|| BenchError::Invalid(format!("app {app} has no phase")))?;
    Ok((p.end.ticks() - p.requested_start.ticks()) as f64 / 1e6)
}

/// Decodes and runs one scenario.
pub fn decode_run(text: &str) -> Result<SessionReport, BenchError> {
    let scenario = Scenario::from_text(text).map_err(BenchError::Decode)?;
    scenario.run().map_err(BenchError::Sim)
}

/// The output digest of an in-process op: the report, then each
/// baseline `T_alone` with the interference factor it gives.
pub fn digest(report: &SessionReport, t_alone: &[f64]) -> Result<u64, BenchError> {
    let mut h = Fnv::new();
    fold_report(&mut h, report);
    for (i, &alone) in t_alone.iter().enumerate() {
        h.f64(alone);
        h.f64(first_io_secs(report, i)? / alone);
    }
    Ok(h.finish())
}

/// Runs one in-process op, checks it, and returns its output digest. On
/// paper-pairs the op also runs each application alone and computes the
/// interference factors, as the figures do.
pub fn run_op(input: &OpInput) -> Result<u64, BenchError> {
    let report = decode_run(&input.text)?;
    let t_alone = input
        .alone
        .iter()
        .map(|alone| first_io_secs(&decode_run(alone)?, 0))
        .collect::<Result<Vec<f64>, BenchError>>()?;
    check_report(&report, &input.scenario)?;
    digest(&report, &t_alone)
}

/// Validity of a service response body: the report or trace accounts
/// every phase of every application with its configured volume, and a
/// timeline names every application.
pub fn check_body(route: Route, body: &[u8], config: &Gen) -> Result<(), BenchError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| BenchError::Invalid("response body is not UTF-8".to_string()))?;
    let want: Vec<f64> = config
        .apps
        .iter()
        .flat_map(|a| std::iter::repeat(a.bytes_per_phase()).take(a.phases as usize))
        .collect();
    let got: Vec<f64> = match route {
        Route::Run => text
            .split("\"bytes\":")
            .skip(1)
            .filter_map(|rest| rest.split([',', '}']).next()?.parse().ok())
            .collect(),
        Route::Trace => {
            // `<tick> phase-finished <app> <phase> <bytes>`, in time order;
            // sort by (app, phase) to compare with the configuration.
            let mut finished: Vec<(usize, u32, f64)> = text
                .lines()
                .filter_map(|line| {
                    let mut f = line.split(' ').skip(1);
                    if f.next()? != "phase-finished" {
                        return None;
                    }
                    Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?, {
                        f.next()?.parse().ok()?
                    }))
                })
                .collect();
            finished.sort_by_key(|&(app, phase, _)| (app, phase));
            finished.into_iter().map(|(_, _, bytes)| bytes).collect()
        }
        Route::Timeline => {
            for id in 0..config.apps.len() {
                if !text.contains(&format!("{{\"app\":{id},")) {
                    return Err(BenchError::Invalid(format!("timeline lacks app {id}")));
                }
            }
            return Ok(());
        }
    };
    if got.len() != want.len() || got.iter().zip(&want).any(|(&g, &w)| !bytes_match(g, w)) {
        return Err(BenchError::Invalid(format!(
            "{} phases with {} bytes in the body, configured {} with {}",
            got.len(),
            got.iter().sum::<f64>(),
            want.len(),
            want.iter().sum::<f64>()
        )));
    }
    Ok(())
}
