//! Deterministic JSON rendering of the service's response bodies.
//!
//! The workspace has no serialization dependency, so the wire JSON is
//! hand-rolled the same way the scenario and trace codecs are: every map is a `BTreeMap` (or iterated in id order),
//! floats use Rust's shortest round-trip representation, and nothing
//! depends on wall time or allocation order — two renderings of the same
//! simulation result are **byte-identical**, which is what lets the
//! response cache and the concurrent-determinism test compare bodies
//! with `==`.

use calciom::{AppReport, PhaseResult, PolicyRegistry, SessionReport, Timeline};
use iobench::ShardedRun;
use std::fmt::Write as _;

/// FNV-1a 64-bit hash — the same cheap, dependency-free digest the
/// golden-trace tests pin. Used for ETags and the request log's scenario
/// hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Renders a strong ETag for a response that is a pure function of
/// `key` (the canonical scenario text + policy spec + endpoint). The
/// simulation is deterministic, so equal keys imply byte-identical
/// bodies — exactly the strong-validator contract.
pub fn etag(key: &str) -> String {
    format!("\"{:016x}\"", fnv64(key.as_bytes()))
}

/// Escapes a string into a JSON string literal (including the quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number (shortest round-trip form);
/// non-finite values, which JSON cannot carry, become `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The structured error body: `{"error":{"kind":…,"message":…}}`.
/// `kind` is a stable machine-matchable label; `message` is the typed
/// error's `Display` rendering.
pub fn error_json(kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"kind\":{},\"message\":{}}}}}\n",
        json_string(kind),
        json_string(message)
    )
}

fn phase_json(p: &PhaseResult) -> String {
    format!(
        "{{\"phase\":{},\"requested_start_ticks\":{},\"io_start_ticks\":{},\"end_ticks\":{},\
         \"bytes\":{},\"comm_seconds\":{},\"write_seconds\":{},\"wait_seconds\":{},\
         \"io_seconds\":{}}}",
        p.phase,
        p.requested_start.ticks(),
        p.io_start.ticks(),
        p.end.ticks(),
        json_f64(p.bytes),
        json_f64(p.comm_seconds),
        json_f64(p.write_seconds),
        json_f64(p.wait_seconds),
        json_f64(p.io_time()),
    )
}

fn app_json(a: &AppReport) -> String {
    let phases: Vec<String> = a.phases.iter().map(phase_json).collect();
    format!(
        "{{\"app\":{},\"name\":{},\"procs\":{},\"alone_estimate_secs\":{},\"phases\":[{}]}}",
        a.app.0,
        json_string(&a.name),
        a.procs,
        json_f64(a.alone_estimate_secs),
        phases.join(",")
    )
}

/// The `/v1/run` body: the full [`SessionReport`] as JSON.
pub fn report_json(report: &SessionReport) -> String {
    let apps: Vec<String> = report.apps.iter().map(app_json).collect();
    format!(
        "{{\"policy\":{},\"strategy\":{},\"makespan_ticks\":{},\"makespan_secs\":{},\
         \"coordination_messages\":{},\"apps\":[{}]}}\n",
        json_string(&report.policy_label),
        json_string(&report.strategy.label()),
        report.makespan.ticks(),
        json_f64(report.makespan.as_secs()),
        report.coordination_messages,
        apps.join(",")
    )
}

/// The `/v1/timeline` body: Gantt intervals + per-app bandwidth step
/// functions, in id order.
pub fn timeline_json(timeline: &Timeline) -> String {
    let intervals: Vec<String> = timeline
        .intervals
        .iter()
        .map(|i| {
            format!(
                "{{\"app\":{},\"activity\":{},\"start_ticks\":{},\"end_ticks\":{},\"seconds\":{}}}",
                i.app.0,
                json_string(i.activity.label()),
                i.start.ticks(),
                i.end.ticks(),
                json_f64(i.seconds())
            )
        })
        .collect();
    let bandwidth: Vec<String> = timeline
        .bandwidth
        .iter()
        .map(|(app, points)| {
            let samples: Vec<String> = points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"time_ticks\":{},\"rate\":{}}}",
                        p.time.ticks(),
                        json_f64(p.rate)
                    )
                })
                .collect();
            format!("\"{}\":[{}]", app.0, samples.join(","))
        })
        .collect();
    format!(
        "{{\"makespan_ticks\":{},\"makespan_secs\":{},\"intervals\":[{}],\"bandwidth\":{{{}}}}}\n",
        timeline.makespan.ticks(),
        json_f64(timeline.makespan.as_secs()),
        intervals.join(","),
        bandwidth.join(",")
    )
}

/// Opening fragment of a `/v1/batch` body — everything before the first
/// run entry. Split out (with [`batch_entry_json`] and
/// [`BATCH_EPILOGUE`]) so the streamed chunked rendering is
/// byte-identical to the materialized [`batch_json`] *by construction*.
pub fn batch_prelude(shards: usize, scenarios: usize) -> String {
    format!("{{\"shards\":{shards},\"scenarios\":{scenarios},\"runs\":[")
}

/// Closing fragment of a `/v1/batch` body.
pub const BATCH_EPILOGUE: &str = "]}\n";

/// One `/v1/batch` run entry. Host wall-clock (which `ShardedRun`
/// measures) is deliberately left out — the body must be a deterministic
/// function of the request so the cache and the determinism contract
/// hold; wall time goes to the request log instead.
pub fn batch_entry_json(run: &ShardedRun) -> String {
    let alone: Vec<String> = run
        .alone
        .iter()
        .map(|(app, secs)| format!("\"{}\":{}", app.0, json_f64(*secs)))
        .collect();
    format!(
        "{{\"report\":{},\"alone_secs\":{{{}}}}}",
        report_json(&run.report).trim_end(),
        alone.join(",")
    )
}

/// The `/v1/batch` body: one entry per scenario, in request order.
pub fn batch_json(shards: usize, runs: &[ShardedRun]) -> String {
    let entries: Vec<String> = runs.iter().map(batch_entry_json).collect();
    format!(
        "{}{}{}",
        batch_prelude(shards, runs.len()),
        entries.join(","),
        BATCH_EPILOGUE
    )
}

/// The `/v1/policies` body: every policy the standard registry can
/// resolve, with its description and canonical example spec.
pub fn policies_json() -> String {
    let registry = PolicyRegistry::standard();
    let canonical = registry.canonical_specs();
    let entries: Vec<String> = registry
        .names()
        .iter()
        .zip(&canonical)
        .map(|(name, spec)| {
            format!(
                "{{\"name\":{},\"spec\":{},\"description\":{}}}",
                json_string(name),
                json_string(&spec.to_text()),
                json_string(registry.description(name).unwrap_or(""))
            )
        })
        .collect();
    format!("{{\"policies\":[{}]}}\n", entries.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::{AccessPattern, AppConfig, AppId, PfsConfig, Scenario, Strategy};

    fn sample_report() -> SessionReport {
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(
                AppId(0),
                "App \"A\"\n",
                336,
                AccessPattern::contiguous(8.0e6),
            ))
            .app(
                AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(4.0e6))
                    .starting_at_secs(1.0),
            )
            .strategy(Strategy::FcfsSerialize)
            .build()
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(etag("x"), format!("\"{:016x}\"", fnv64(b"x")));
    }

    #[test]
    fn strings_escape_hostile_content() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_render_shortest_and_non_finite_as_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn report_json_is_deterministic_and_carries_every_app() {
        let report = sample_report();
        let a = report_json(&report);
        let b = report_json(&report);
        assert_eq!(a, b, "rendering must be byte-stable");
        assert!(a.contains("\"policy\":\"fcfs\""));
        assert!(a.contains("\"App \\\"A\\\"\\n\""), "{a}");
        assert!(a.contains("\"coordination_messages\""));
        assert_eq!(a.matches("\"phases\"").count(), 2);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn error_json_is_structured() {
        let body = error_json("scenario-parse", "missing key 'num_servers'");
        assert!(body.contains("\"kind\":\"scenario-parse\""));
        assert!(body.contains("num_servers"));
    }

    #[test]
    fn policies_json_lists_the_standard_registry() {
        let body = policies_json();
        for name in PolicyRegistry::standard().names() {
            assert!(body.contains(&format!("\"name\":\"{name}\"")), "{name}");
        }
        assert!(body.contains("rr(10s)"));
    }
}
