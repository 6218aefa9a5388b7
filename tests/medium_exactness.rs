//! Differential exactness of the default bandwidth medium.
//!
//! A scenario that names no medium ([`SharingModel::Auto`]) promises the
//! max-min solver's results, and runs on the `O(log n)` virtual-time
//! medium wherever [`PfsConfig::fair_fast_is_exact`] holds. These tests
//! hold that promise against the oracle: the default run's
//! [`SessionReport`] must equal the explicit `max-min` run's bit for bit,
//! over every preset, with and without a cache, under both share
//! policies, at γ ∈ {0.85, 1}, under interfering, fcfs and `delay(5s)`,
//! and over seeded random file systems. Where the predicate fails, the
//! default runs the oracle itself; Nancy's interconnect is the pinned
//! counter-example showing why the predicate needs its last clause.

use calciom_stack::calciom::{
    CacheConfig, NullObserver, PfsConfig, Scenario, SessionReport, SharePolicy, SharingModel,
    Strategy, Work,
};
use calciom_stack::workloads::MachineMix;
use proptest::prelude::*;

const MB: f64 = 1.0e6;

/// The three schedules the differential covers.
const STRATEGIES: [Strategy; 3] = [
    Strategy::Interfere,
    Strategy::FcfsSerialize,
    Strategy::Delay { max_wait_secs: 5.0 },
];

/// A small seeded mix on `pfs`: enough concurrent applications to share
/// every server and, on a cached preset, to fill and drain its cache.
fn mix(pfs: PfsConfig, apps: usize, seed: u64) -> MachineMix {
    MachineMix {
        apps,
        seed,
        pfs,
        max_procs: 1024,
        bytes_per_proc: (0.5 * MB, 4.0 * MB),
        start_window_secs: 5.0,
        ..MachineMix::default()
    }
}

/// Runs `scenario` on `medium`, unobserved.
fn run_on(scenario: &Scenario, medium: SharingModel) -> (SessionReport, Work) {
    let mut scenario = scenario.clone();
    scenario.medium = medium;
    let (report, _, work) = scenario.run_with(&mut NullObserver).unwrap();
    (report, work)
}

/// Checks the default medium against the oracle on `scenario`; returns
/// whether the default ran on the virtual-time medium.
fn default_matches_max_min(label: &str, scenario: &Scenario) -> bool {
    let (oracle, _) = run_on(scenario, SharingModel::MaxMin);
    let (default, work) = run_on(scenario, SharingModel::Auto);
    assert!(
        default == oracle,
        "{label}: the default medium's report differs from max-min's"
    );
    let fast = work.components_solved == 0;
    assert_eq!(
        fast,
        scenario.pfs.fair_fast_is_exact(),
        "{label}: the default medium ignored the predicate"
    );
    fast
}

/// The file systems of the preset matrix: every preset, with and without
/// a cache, under both share policies and both γ.
fn preset_matrix() -> Vec<(String, PfsConfig)> {
    let presets = [
        ("surveyor", PfsConfig::surveyor()),
        ("rennes", PfsConfig::grid5000_rennes()),
        ("nancy", PfsConfig::grid5000_nancy()),
    ];
    let mut out = Vec::new();
    for (name, preset) in presets {
        // Nancy's own cache; the uncached presets get one of the same
        // shape (ingest at several times disk speed, disk-speed drain).
        let cache = preset.cache.unwrap_or(CacheConfig {
            capacity_bytes: 100.0 * MB,
            absorb_bw: 4.0 * preset.server_bw,
            drain_bw: preset.server_bw,
        });
        for (cached, cache) in [("cache", Some(cache)), ("no-cache", None)] {
            for policy in [
                SharePolicy::ProportionalToProcesses,
                SharePolicy::EqualPerApplication,
            ] {
                for gamma in [0.85, 1.0] {
                    let cfg = PfsConfig {
                        cache,
                        share_policy: policy,
                        interference_gamma: gamma,
                        ..preset.clone()
                    };
                    out.push((format!("{name}/{cached}/{policy:?}/gamma={gamma}"), cfg));
                }
            }
        }
    }
    out
}

#[test]
fn default_medium_equals_max_min_on_every_preset() {
    let mut fast = 0;
    let mut total = 0;
    for (label, pfs) in preset_matrix() {
        for strategy in STRATEGIES {
            let scenario = mix(pfs.clone(), 8, 2014).scenario(strategy);
            let label = format!("{label}/{}", strategy.label());
            fast += usize::from(default_matches_max_min(&label, &scenario));
            total += 1;
        }
    }
    // Not vacuous: the proportional-share Surveyor and Rennes cases (with
    // and without a cache) and uncached Nancy take the fast medium.
    assert_eq!(total, 72);
    assert_eq!(fast, 30, "cases on the virtual-time medium");
}

/// Nancy at the two interconnect ceilings of the counter-example.
fn nancy_interfering(interconnect_bw: f64) -> Scenario {
    let pfs = PfsConfig {
        interconnect_bw,
        ..PfsConfig::grid5000_nancy()
    };
    mix(pfs, 16, 2014).scenario(Strategy::Interfere)
}

#[test]
fn nancy_interconnect_is_the_counter_example() {
    // At 10 GB/s, 35 servers ingesting at 300 MB/s can oversubscribe the
    // interconnect, a constraint the virtual-time medium never homes a
    // flow on, and its schedule departs from max-min's.
    let tight = nancy_interfering(10.0e9);
    assert!(!tight.pfs.fair_fast_is_exact());
    assert_ne!(
        run_on(&tight, SharingModel::FairFast).0,
        run_on(&tight, SharingModel::MaxMin).0,
        "fair-fast must differ where the interconnect binds"
    );
    // At 35 x 300 MB/s = 10.5 GB/s it never binds, and the cache's
    // capacity changes alone leave the two media bit-identical.
    let roomy = nancy_interfering(35.0 * 300.0e6);
    assert!(roomy.pfs.fair_fast_is_exact());
    assert_eq!(
        run_on(&roomy, SharingModel::FairFast).0,
        run_on(&roomy, SharingModel::MaxMin).0
    );
}

proptest! {
    // Each case runs two complete sessions.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the file system, the default medium's report equals the
    /// max-min oracle's bit for bit. The interconnect is drawn around the
    /// predicate's boundary (`num_servers × peak`), or unbounded.
    #[test]
    fn default_medium_equals_max_min_on_random_file_systems(
        num_servers in 1usize..40,
        server_mb in 20.0f64..1000.0,
        cache_mb in 0.0f64..120.0,
        absorb_x in 1.0f64..8.0,
        gamma_one in any::<bool>(),
        link_mb in 1.0f64..50.0,
        interconnect_x in 0.5f64..2.5,
        equal_share in any::<bool>(),
        apps in 2usize..12,
        seed in 0u64..10_000,
        strategy_pick in 0usize..3,
    ) {
        let server_bw = server_mb * MB;
        // A third of the draws run without a cache.
        let cache = (cache_mb >= 40.0).then_some(CacheConfig {
            capacity_bytes: cache_mb * MB,
            absorb_bw: absorb_x * server_bw,
            drain_bw: server_bw,
        });
        let peak = cache.map_or(server_bw, |c| c.absorb_bw);
        let pfs = PfsConfig {
            num_servers,
            server_bw,
            cache,
            interference_gamma: if gamma_one { 1.0 } else { 0.85 },
            process_link_bw: link_mb * MB,
            interconnect_bw: if interconnect_x >= 2.0 {
                f64::INFINITY
            } else {
                num_servers as f64 * peak * interconnect_x
            },
            share_policy: if equal_share {
                SharePolicy::EqualPerApplication
            } else {
                SharePolicy::ProportionalToProcesses
            },
        };
        let scenario = mix(pfs, apps, seed).scenario(STRATEGIES[strategy_pick]);
        default_matches_max_min(&format!("{:?}", scenario.pfs), &scenario);
    }
}
