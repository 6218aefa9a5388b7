//! Whole-stack tests of the Scenario/Experiment API redesign:
//!
//! * a scenario built with the fluent builder, serialized to text and
//!   decoded again reproduces its `SessionReport` **bit for bit** (the
//!   determinism convention of DESIGN.md: integer-tick clock, no
//!   randomness, order-independent event handling);
//! * sessions built on the thread-safe `SharedTransport` and fanned out
//!   by `iobench`'s thread pool produce reports identical to the
//!   sequential `LocalTransport` path while genuinely running on at least
//!   two worker threads, and so does the `run_scenarios` sweep;
//! * the observable-session layer obeys the same convention: the recorded
//!   `Trace` is identical across transports and repeated runs, its text
//!   codec round-trips exactly, and replaying it re-derives the
//!   originating report bit for bit.

use calciom::{
    AccessPattern, AppConfig, AppId, DynamicPolicy, EfficiencyMetric, Granularity, PfsConfig,
    Scenario, Session, SessionReport, SharedTransport, Strategy, Trace, TraceRecorder,
};
use iobench::{parallel_map_owned, run_scenarios, run_scenarios_traced};
use simcore::SimDuration;
use std::collections::HashSet;
use std::sync::Mutex;

const MB: f64 = 1.0e6;

fn scenarios_under_test() -> Vec<Scenario> {
    let strided = AccessPattern::strided(2.0 * MB, 8);
    let contiguous = AccessPattern::contiguous(16.0 * MB);
    vec![
        // The Fig. 6 headline workload: big vs small, uncoordinated.
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(AppId(0), "big", 744, strided))
            .app(AppConfig::new(AppId(1), "small", 24, strided).starting_at_secs(3.0))
            .build()
            .unwrap(),
        // Interruption at file granularity with a multi-file writer.
        Scenario::builder(PfsConfig::surveyor())
            .app(
                AppConfig::new(AppId(0), "A", 2048, AccessPattern::strided(4.0 * MB, 1))
                    .with_files(4),
            )
            .app(AppConfig::new(
                AppId(1),
                "B",
                2048,
                AccessPattern::strided(4.0 * MB, 1),
            ))
            .strategy(Strategy::Interrupt)
            .granularity(Granularity::File)
            .build()
            .unwrap(),
        // Periodic writers against a caching backend, bounded delay.
        Scenario::builder(PfsConfig::grid5000_nancy())
            .app(
                AppConfig::new(AppId(0), "periodic", 336, contiguous)
                    .with_periodic_phases(3, SimDuration::from_secs(10.0)),
            )
            .app(AppConfig::new(AppId(1), "burst", 336, contiguous).starting_at_secs(2.0))
            .strategy(Strategy::Delay { max_wait_secs: 2.5 })
            .policy(DynamicPolicy::new(EfficiencyMetric::TotalIoTime))
            .coordination_overhead(SimDuration::from_millis(5.0))
            .build()
            .unwrap(),
        // Dynamic selection, the CALCioM contribution.
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(AppId(0), "A", 512, strided).with_files(2))
            .app(AppConfig::new(AppId(1), "B", 512, strided).starting_at_secs(4.0))
            .strategy(Strategy::Dynamic)
            .build()
            .unwrap(),
    ]
}

#[test]
fn serde_round_trip_reproduces_reports_bit_identically() {
    for scenario in scenarios_under_test() {
        let text = scenario.to_text();
        let decoded = Scenario::from_text(&text).unwrap();
        assert_eq!(decoded, scenario, "decoded scenario differs");
        // Encoding is stable…
        assert_eq!(decoded.to_text(), text);
        // …and the decoded scenario replays the exact same simulation:
        // SessionReport is all f64s/SimTimes, so PartialEq equality here
        // is bit-identity.
        let original = scenario.run().unwrap();
        let replayed = decoded.run().unwrap();
        assert_eq!(
            replayed, original,
            "round-tripped scenario must reproduce the report bit for bit"
        );
    }
}

#[test]
fn shared_transport_sweep_matches_sequential_and_uses_multiple_threads() {
    let scenarios = scenarios_under_test();

    // Sequential reference over the local (Rc<RefCell>) transport.
    let sequential: Vec<SessionReport> = scenarios.iter().map(|s| s.run().unwrap()).collect();

    // Parallel sweep: sessions built over Arc<Mutex<Arbiter>> on this
    // thread, executed on worker threads. Track which threads actually ran
    // sessions to prove the fan-out is real.
    let seen = Mutex::new(HashSet::new());
    let sessions = scenarios
        .iter()
        .map(|s| Session::<SharedTransport>::with_transport(s).unwrap())
        .collect::<Vec<_>>();
    let parallel: Vec<SessionReport> = parallel_map_owned(sessions, scenarios.len(), |session| {
        seen.lock().unwrap().insert(std::thread::current().id());
        session.execute().unwrap()
    });

    assert_eq!(parallel, sequential, "transport must not change reports");
    assert!(
        seen.lock().unwrap().len() >= 2,
        "the sweep must run sessions on at least two threads"
    );

    // And the high-level helper agrees with both.
    let via_helper = run_scenarios(&scenarios, 0).unwrap();
    assert_eq!(via_helper, sequential);
}

/// The canonical two-app serialize scenario of the trace-determinism
/// checks.
fn serialize_scenario() -> Scenario {
    Scenario::builder(PfsConfig::grid5000_rennes())
        .app(AppConfig::new(
            AppId(0),
            "A",
            336,
            AccessPattern::contiguous(16.0 * MB),
        ))
        .app(
            AppConfig::new(AppId(1), "B", 336, AccessPattern::contiguous(16.0 * MB))
                .starting_at_secs(2.0),
        )
        .strategy(Strategy::FcfsSerialize)
        .build()
        .unwrap()
}

#[test]
fn traces_are_identical_across_transports_and_repeated_runs() {
    let scenario = serialize_scenario();

    let record_local = || {
        let mut recorder = TraceRecorder::for_scenario(&scenario);
        let report = Session::new(&scenario)
            .unwrap()
            .execute_with(&mut recorder)
            .unwrap();
        (report, recorder.into_trace())
    };
    let record_shared = || {
        let mut recorder = TraceRecorder::for_scenario(&scenario);
        let report = Session::<SharedTransport>::with_transport(&scenario)
            .unwrap()
            .execute_with(&mut recorder)
            .unwrap();
        (report, recorder.into_trace())
    };

    let (local_report, local_trace) = record_local();
    let (shared_report, shared_trace) = record_shared();

    // The transport changes neither the report nor the event stream.
    assert_eq!(local_report, shared_report);
    assert_eq!(
        local_trace, shared_trace,
        "trace must be transport-agnostic"
    );
    assert_eq!(local_trace.to_text(), shared_trace.to_text());

    // Repeated runs are bit-identical too.
    let (_, local_again) = record_local();
    let (_, shared_again) = record_shared();
    assert_eq!(local_again, local_trace);
    assert_eq!(shared_again, shared_trace);

    // And the parallel sweep helper records the very same stream even when
    // sessions execute on worker threads.
    let traced = run_scenarios_traced(&[scenario.clone(), scenario.clone()], 2).unwrap();
    for (report, trace) in traced {
        assert_eq!(report, local_report);
        assert_eq!(trace, local_trace);
    }
}

#[test]
fn recorded_traces_replay_and_round_trip_to_the_same_report() {
    for scenario in scenarios_under_test() {
        let mut recorder = TraceRecorder::for_scenario(&scenario);
        let report = Session::new(&scenario)
            .unwrap()
            .execute_with(&mut recorder)
            .unwrap();
        // Observation must not perturb the simulation.
        assert_eq!(report, scenario.run().unwrap());

        let trace = recorder.into_trace();
        // Replay guarantee: the report is a fold of the recorded stream.
        assert_eq!(trace.replay_report(), report);
        // Codec guarantee: decode(encode(trace)) is the identity, down to
        // the replayed report.
        let decoded = Trace::from_text(&trace.to_text()).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.replay_report(), report);
    }
}

#[test]
fn machine_mix_scenarios_obey_the_same_conventions_at_scale() {
    // The N-application generalization of everything above: a seeded
    // 48-app machine mix round-trips through the text codec, reproduces
    // its report bit for bit, and the sharded sweep path (one worker per
    // strategy, shared baseline cache) matches the sequential runs.
    use iobench::{run_scenarios_sharded, BaselineCache};
    use workloads::MachineMix;

    let mix = MachineMix {
        apps: 48,
        seed: 99,
        ..MachineMix::default()
    };
    let strategies = [
        Strategy::Interfere,
        Strategy::FcfsSerialize,
        Strategy::Dynamic,
    ];
    let scenarios: Vec<Scenario> = strategies.iter().map(|s| mix.scenario(*s)).collect();

    // Codec: 48 applications survive text encoding exactly.
    for scenario in &scenarios {
        let decoded = Scenario::from_text(&scenario.to_text()).unwrap();
        assert_eq!(&decoded, scenario);
    }

    // Determinism across the sharded parallel path.
    let sequential: Vec<SessionReport> = scenarios.iter().map(|s| s.run().unwrap()).collect();
    let cache = BaselineCache::new();
    let runs = run_scenarios_sharded(&scenarios, strategies.len(), &cache).unwrap();
    for (run, expected) in runs.iter().zip(&sequential) {
        assert_eq!(&run.report, expected);
        assert_eq!(run.alone.len(), 48);
    }
    // All three strategies share one mix, so the cache serves the same 48
    // baselines to every shard: every request lands in a counter, and the
    // table holds one entry per distinct application.
    assert_eq!(cache.hits() + cache.misses(), 3 * 48);
    assert_eq!(cache.len(), 48);

    // Coordination pays machine-wide (the fig13 story in miniature).
    let alone = &runs[0].alone;
    let waste = |r: &SessionReport| r.metric(EfficiencyMetric::CpuSecondsWasted, alone);
    assert!(
        waste(&sequential[1]) <= waste(&sequential[0]),
        "fcfs ({}) must not waste more CPU than interfering ({})",
        waste(&sequential[1]),
        waste(&sequential[0])
    );
}
