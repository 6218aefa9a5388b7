//! Golden regression guard for the execution core.
//!
//! Every scenario below is recorded through a [`TraceRecorder`] and the
//! exact text encoding of the resulting trace is hashed (FNV-1a 64). The
//! expected hashes were captured from the pre-kernel stepping loop, so a
//! refactor of the execution core (the `simcore::Kernel` re-founding)
//! passes this suite only if it reproduces every event of every scenario
//! — timestamps, order and payloads — bit for bit. The trace fully
//! determines the [`SessionReport`] (the report is a fold of the stream),
//! so report equality comes for free.

use calciom_stack::calciom::{
    AccessPattern, AppConfig, AppId, Granularity, PfsConfig, Scenario, Session, Strategy,
    TraceRecorder,
};
use calciom_stack::simcore::SimDuration;

const MB: f64 = 1.0e6;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn trace_hash(scenario: &Scenario) -> u64 {
    let mut recorder = TraceRecorder::for_scenario(scenario);
    let report = Session::new(scenario)
        .unwrap()
        .execute_with(&mut recorder)
        .unwrap();
    let trace = recorder.into_trace();
    assert_eq!(
        trace.replay_report(),
        report,
        "trace must replay its report"
    );
    fnv1a64(trace.to_text().as_bytes())
}

/// The golden matrix: label, expected hash, scenario.
fn matrix() -> Vec<(&'static str, u64, Scenario)> {
    let contended = |strategy: Strategy| {
        let a = AppConfig::new(AppId(0), "App A", 720, AccessPattern::strided(2.0 * MB, 8));
        let b = AppConfig::new(AppId(1), "App B", 48, AccessPattern::contiguous(8.0 * MB))
            .starting_at_secs(2.0);
        Scenario::builder(PfsConfig::grid5000_rennes())
            .apps([a, b])
            .strategy(strategy)
            .granularity(Granularity::Round)
            .build()
            .unwrap()
    };
    let file_level = |strategy: Strategy| {
        let a = AppConfig::new(AppId(0), "big", 512, AccessPattern::contiguous(16.0 * MB))
            .with_files(4);
        let b = AppConfig::new(AppId(1), "small", 512, AccessPattern::contiguous(16.0 * MB))
            .starting_at_secs(4.0);
        Scenario::builder(PfsConfig::grid5000_rennes())
            .apps([a, b])
            .strategy(strategy)
            .granularity(Granularity::File)
            .build()
            .unwrap()
    };
    let periodic_cache = {
        let writer = |id: usize, period: f64| {
            AppConfig::new(AppId(id), "w", 336, AccessPattern::contiguous(16.0 * MB))
                .with_periodic_phases(4, SimDuration::from_secs(period))
        };
        Scenario::builder(PfsConfig::grid5000_nancy())
            .apps([writer(0, 10.0), writer(1, 7.0)])
            .build()
            .unwrap()
    };
    let delay_phases = {
        let a = AppConfig::new(AppId(0), "A", 336, AccessPattern::contiguous(16.0 * MB))
            .with_periodic_phases(2, SimDuration::from_secs(12.0));
        let b = AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(8.0 * MB))
            .starting_at_secs(1.0)
            .with_periodic_phases(2, SimDuration::from_secs(12.0));
        Scenario::builder(PfsConfig::grid5000_rennes())
            .apps([a, b])
            .strategy(Strategy::Delay {
                max_wait_secs: 15.0,
            })
            .build()
            .unwrap()
    };
    let three_way = {
        let pattern = AccessPattern::strided(2.0 * MB, 8);
        Scenario::builder(PfsConfig::surveyor())
            .app(AppConfig::new(AppId(0), "A", 2048, pattern))
            .app(AppConfig::new(AppId(1), "B", 1024, pattern).starting_at_secs(1.5))
            .app(AppConfig::new(AppId(2), "C", 512, pattern).starting_at_secs(3.0))
            .strategy(Strategy::Dynamic)
            .build()
            .unwrap()
    };

    vec![
        (
            "interfere",
            0x1665_7876_e8d1_a33c,
            contended(Strategy::Interfere),
        ),
        (
            "fcfs",
            0xf308_62a6_2519_4c8b,
            contended(Strategy::FcfsSerialize),
        ),
        (
            "interrupt",
            0x192b_9a5b_62a7_185c,
            contended(Strategy::Interrupt),
        ),
        (
            "delay",
            0xee61_ed94_cc20_ae7f,
            contended(Strategy::Delay { max_wait_secs: 2.0 }),
        ),
        (
            "dynamic-file",
            0x057e_5faf_ab8c_e70d,
            file_level(Strategy::Dynamic),
        ),
        (
            "interrupt-file",
            0x667a_3bfe_38f3_8e2e,
            file_level(Strategy::Interrupt),
        ),
        ("periodic-cache", 0xa4b7_11e6_cda6_9c63, periodic_cache),
        ("delay-phases", 0x4d03_6856_bbf6_84dc, delay_phases),
        ("dynamic-3way", 0xe08b_2f10_eabd_0708, three_way),
    ]
}

#[test]
fn traces_match_the_pre_kernel_goldens() {
    let mut failures = Vec::new();
    for (label, expected, scenario) in matrix() {
        let hash = trace_hash(&scenario);
        if hash != expected {
            failures.push(format!(
                "{label}: expected {expected:#018x}, got {hash:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "trace hashes diverged from the pre-kernel execution core:\n{}",
        failures.join("\n")
    );
}

#[test]
fn fair_fast_medium_reproduces_the_goldens_without_progress_samples() {
    use calciom_stack::calciom::{SharingModel, SimEvent, SimObserver};
    use calciom_stack::simcore::SimTime;

    // The golden matrix is equal-share at every server (uniform client
    // cap / share weight ratio per group), where the virtual-time medium
    // is exact, not approximate: every discrete decision — timestamps,
    // order, payloads — must match the max-min solver bit for bit.
    // Progress samples are excluded: they carry full-precision f64 rates
    // whose last ulps legitimately differ between the two solvers'
    // arithmetic.
    struct NoProgress(TraceRecorder);
    impl SimObserver for NoProgress {
        fn on_event(&mut self, at: SimTime, event: &SimEvent) {
            self.0.on_event(at, event);
        }
        fn wants_progress(&self) -> bool {
            false
        }
    }
    let hash = |scenario: &Scenario| {
        let mut rec = NoProgress(TraceRecorder::for_scenario(scenario));
        Session::new(scenario)
            .unwrap()
            .execute_with(&mut rec)
            .unwrap();
        fnv1a64(rec.0.into_trace().to_text().as_bytes())
    };
    for (label, _, scenario) in matrix() {
        let mut fair = scenario.clone();
        fair.medium = SharingModel::FairFast;
        assert_eq!(
            hash(&fair),
            hash(&scenario),
            "{label}: fair-fast event stream diverged from max-min"
        );
    }
}

#[test]
fn registry_built_policies_match_the_goldens_too() {
    // The compatibility contract of the open arbitration layer: running a
    // golden scenario through `arbitration = <spec>` (the policy registry
    // path) instead of the legacy `strategy` field produces the exact
    // same schedule — identical per-app reports, message counts and
    // makespans, and even the same policy label.
    for (label, _, scenario) in matrix() {
        let legacy = scenario.run().unwrap();
        let mut by_spec = scenario.clone();
        by_spec.arbitration = Some(scenario.strategy.spec());
        let spec_run = by_spec.run().unwrap();
        assert_eq!(spec_run.apps, legacy.apps, "{label}: apps diverged");
        assert_eq!(
            spec_run.coordination_messages, legacy.coordination_messages,
            "{label}: message accounting diverged"
        );
        assert_eq!(spec_run.makespan, legacy.makespan, "{label}");
        assert_eq!(spec_run.policy_label, legacy.policy_label, "{label}");
    }
}

#[test]
fn single_machine_cluster_matches_the_goldens_bit_for_bit() {
    use calciom_stack::calciom::{ClusterSpec, ClusterTransport, MachineSpec};

    // The exactness envelope of the hierarchical arbiter: a tree with one
    // leaf holding its slot from the start and zero cross-arbiter latency
    // never consults the root, so the schedule — every timestamp, order
    // and payload of every golden scenario — must match the flat arbiter
    // bit for bit. The trace text excludes the cluster header line by
    // hashing the flat scenario's encoding, so the hashes below are the
    // same pinned constants as `traces_match_the_pre_kernel_goldens`.
    for (label, expected, scenario) in matrix() {
        let mut clustered = scenario.clone();
        clustered.cluster = Some(ClusterSpec::new(
            1,
            vec![MachineSpec {
                latency: SimDuration::ZERO,
                apps: clustered.apps.iter().map(|a| a.id).collect(),
            }],
        ));
        let mut recorder = TraceRecorder::for_scenario(&scenario);
        let report = Session::<ClusterTransport>::with_transport(&clustered)
            .unwrap()
            .execute_with(&mut recorder)
            .unwrap();
        let hash = fnv1a64(recorder.into_trace().to_text().as_bytes());
        assert_eq!(
            hash, expected,
            "{label}: 1-machine cluster diverged from the flat arbiter"
        );
        assert_eq!(
            report,
            scenario.run().unwrap(),
            "{label}: cluster report diverged"
        );
    }
}

#[test]
fn shared_transport_matches_the_goldens_too() {
    use calciom_stack::calciom::SharedTransport;
    for (label, _, scenario) in matrix() {
        assert_eq!(
            scenario.run().unwrap(),
            Session::<SharedTransport>::with_transport(&scenario)
                .unwrap()
                .execute()
                .unwrap(),
            "{label}: shared transport diverged"
        );
    }
}

/// The work counts of `scenario` in column order: events scheduled,
/// popped, cancelled; flows completed; components solved, flows
/// re-rated, flows scanned; heap pushes, heap pops, stale entries
/// skipped, members visited.
fn work_counts(scenario: &Scenario) -> [u64; 11] {
    use calciom_stack::calciom::NullObserver;

    let (_, _, w) = scenario.run_with(&mut NullObserver).unwrap();
    [
        w.events_scheduled,
        w.events_popped,
        w.events_cancelled,
        w.flows_completed,
        w.components_solved,
        w.flows_rerated,
        w.flows_scanned,
        w.heap_pushes,
        w.heap_pops,
        w.stale_skipped,
        w.members_visited,
    ]
}

/// Gate on the simulator's cost: the `Work` every golden scenario does
/// is pinned on the max-min medium (kernel events, re-solves, re-rates,
/// scans) and on the fair-fast medium (kernel events, heap operations,
/// arena visits), and the 1-machine tree must do exactly the max-min
/// work. The counts are deterministic like the traces, so any change to
/// how much work the kernel or a medium does per scenario shows up here
/// as an exact diff, whether or not the schedule moved.
#[test]
fn work_counts_match_the_pinned_goldens() {
    use calciom_stack::calciom::{ClusterSpec, MachineSpec, SharingModel};

    #[rustfmt::skip]
    let pinned: &[(&str, [[u64; 11]; 2])] = &[
        ("interfere", [[68, 68, 0, 804, 84, 1212, 3744, 0, 0, 0, 0], [68, 68, 0, 804, 0, 0, 0, 804, 804, 0, 0]]),
        ("fcfs", [[69, 69, 0, 804, 67, 804, 2484, 0, 0, 0, 0], [69, 69, 0, 804, 0, 0, 0, 804, 804, 0, 0]]),
        ("interrupt", [[70, 70, 0, 804, 67, 804, 2484, 0, 0, 0, 0], [70, 70, 0, 804, 0, 0, 0, 804, 804, 0, 0]]),
        ("delay", [[69, 69, 0, 804, 83, 1188, 3636, 0, 0, 0, 0], [69, 69, 0, 804, 0, 0, 0, 804, 804, 0, 0]]),
        ("dynamic-file", [[4, 4, 0, 60, 5, 60, 216, 0, 0, 0, 0], [4, 4, 0, 60, 0, 0, 0, 60, 60, 0, 0]]),
        ("interrupt-file", [[4, 4, 0, 60, 5, 60, 216, 0, 0, 0, 0], [4, 4, 0, 60, 0, 0, 0, 60, 60, 0, 0]]),
        ("periodic-cache", [[8, 8, 0, 280, 10, 490, 2205, 0, 0, 0, 0], [8, 8, 0, 280, 0, 0, 0, 280, 280, 0, 0]]),
        ("delay-phases", [[8, 7, 0, 48, 4, 48, 252, 0, 0, 0, 0], [8, 7, 0, 48, 0, 0, 0, 48, 48, 0, 0]]),
        ("dynamic-3way", [[197, 197, 0, 768, 192, 768, 2328, 0, 0, 0, 0], [197, 197, 0, 768, 0, 0, 0, 768, 768, 0, 0]]),
    ];
    let mut failures = Vec::new();
    for (label, _, scenario) in matrix() {
        let mut fair = scenario.clone();
        fair.medium = SharingModel::FairFast;
        let mut tree = scenario.clone();
        tree.cluster = Some(ClusterSpec::new(
            1,
            vec![MachineSpec {
                latency: SimDuration::ZERO,
                apps: tree.apps.iter().map(|a| a.id).collect(),
            }],
        ));
        let got = [work_counts(&scenario), work_counts(&fair)];
        let want = pinned.iter().find(|(l, _)| *l == label).map(|(_, w)| *w);
        if want != Some(got) {
            failures.push(format!("(\"{label}\", {got:?}),"));
        }
        let on_tree = work_counts(&tree);
        if on_tree != got[0] {
            failures.push(format!("{label}: 1-machine tree did {on_tree:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "work counts diverged from the pinned goldens ([max-min, fair-fast] per scenario):\n{}",
        failures.join("\n")
    );
}
