//! Benchmark inputs: `calciom-scenario v1` text from the benchmark's own
//! seeded generator.
//!
//! The generator is a splitmix64 stream plus copies of the Fig. 1(a) size
//! buckets and the three platform presets. It does not use `MachineMix`,
//! `ClusterMix` or the presets' constructors, so the inputs stay fixed
//! while those change. It writes the scenario codec's canonical text
//! directly: `Scenario::from_text(t)?.to_text() == t` for every input.
//!
//! Every op's inputs are a pure function of `(seed, workload, op index)`.
//! Properties that drive an op's cost (application count, policy,
//! platform) follow a fixed cycle or a golden-ratio sequence over the op
//! index, so any run of consecutive ops sees nearly the same cost mix
//! whatever the seed; the seed varies everything else.

use std::fmt::Write as _;

/// Job-size buckets (cores) and weights of Fig. 1(a).
pub const SIZE_BUCKETS: [(u32, f64); 10] = [
    (256, 0.17),
    (512, 0.13),
    (1024, 0.11),
    (2048, 0.12),
    (4096, 0.16),
    (8192, 0.12),
    (16384, 0.09),
    (32768, 0.05),
    (65536, 0.03),
    (131072, 0.02),
];

/// Process counts of the paper-scale applications (Figs. 2–12).
const PAPER_PROCS: [u32; 8] = [48, 96, 192, 336, 512, 768, 1024, 2048];

/// Simulated ticks per second (the codec's time unit).
const TICKS: u64 = 1_000_000;

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Log-uniform in `[lo, hi)`, rounded to whole bytes.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo * (hi / lo).powf(self.unit())).round()
    }
}

/// Hashes a key tuple into a seed.
fn mix(parts: &[u64]) -> u64 {
    parts.iter().fold(0x243F_6A88_85A3_08D3, |acc, &p| {
        Rng::new(acc ^ p).next_u64()
    })
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Uncoordinated machine-scale sessions on the max-min medium.
    Contended,
    /// Coordinated machine-scale sessions on the virtual-time medium.
    Coordinated,
    /// Many paper-scale 2–4 application scenarios with their baselines.
    PaperPairs,
    /// Distinct scenarios posted to the HTTP service.
    ServeUncached,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Contended,
        Workload::Coordinated,
        Workload::PaperPairs,
        Workload::ServeUncached,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Contended => "contended",
            Workload::Coordinated => "coordinated",
            Workload::PaperPairs => "paper-pairs",
            Workload::ServeUncached => "serve-uncached",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops of one run. The counts are fixed, so a faster change runs the
    /// same ops as its parent and every op of a pinned seed is digested;
    /// each takes 4–15 s on a 2-core VM in a quiet hour, and about twice
    /// that when the host is busy.
    pub fn ops(self) -> u64 {
        match self {
            Workload::Contended | Workload::Coordinated => 100,
            Workload::PaperPairs => 40_000,
            Workload::ServeUncached => 8_000,
        }
    }

    /// Ops per digest chunk: a run is [`CHUNKS`] chunks.
    pub fn chunk_ops(self) -> u64 {
        self.ops() / CHUNKS
    }

    /// Ops generated at once, outside the timed window.
    pub fn batch_ops(self) -> u64 {
        match self {
            Workload::ServeUncached => 800,
            other => other.chunk_ops(),
        }
    }
}

/// Digest chunks per run; `digests.txt` pins all of them for each pinned
/// seed.
pub const CHUNKS: u64 = 100;

/// One parallel file system, as the codec's `[pfs]` section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pfs {
    servers: u32,
    server_bw: f64,
    cache: Option<(f64, f64, f64)>,
    gamma: f64,
    link_bw: f64,
    interconnect_bw: f64,
}

/// Grid'5000 Rennes: 12 servers, no cache.
const RENNES: Pfs = Pfs {
    servers: 12,
    server_bw: 70.0e6,
    cache: None,
    gamma: 0.85,
    link_bw: 12.0e6,
    interconnect_bw: 10.0e9,
};

/// Grid'5000 Nancy: 35 servers behind a write-back cache.
const NANCY: Pfs = Pfs {
    servers: 35,
    server_bw: 55.0e6,
    cache: Some((100.0e6, 300.0e6, 55.0e6)),
    gamma: 0.85,
    link_bw: 12.0e6,
    interconnect_bw: 10.0e9,
};

/// Argonne Surveyor: 4 PVFS2 servers.
const SURVEYOR: Pfs = Pfs {
    servers: 4,
    server_bw: 1.0e9,
    cache: None,
    gamma: 0.85,
    link_bw: 2.5e6,
    interconnect_bw: 16.0e9,
};

impl Pfs {
    /// The same platform without the locality penalty. Machine-scale
    /// mixes need this: γ^(k−1) with dozens of concurrent writers
    /// collapses server bandwidth to nothing.
    fn without_locality_penalty(self) -> Pfs {
        Pfs { gamma: 1.0, ..self }
    }

    /// Stand-alone write bandwidth of `procs` processes, with a cache
    /// counted at its drain speed (the sustained rate).
    fn alone_bw(&self, procs: u32) -> f64 {
        let servers = self.servers as f64 * self.server_bw;
        (procs as f64 * self.link_bw)
            .min(servers)
            .min(self.interconnect_bw)
    }
}

/// Per-process, per-file access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// One contiguous block per process.
    Contiguous(f64),
    /// `count` blocks of `block` bytes per process (collective buffering).
    Strided { block: f64, count: u32 },
}

/// One application.
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    /// Process count.
    pub procs: u32,
    /// Access pattern.
    pub pattern: Pattern,
    /// Files per phase.
    pub files: u32,
    /// Start of the first phase, in ticks.
    pub start_ticks: u64,
    /// Number of phases.
    pub phases: u32,
    /// Period between phase starts, in ticks.
    pub period_ticks: u64,
}

impl App {
    /// Bytes the application writes to the file system per phase.
    pub fn bytes_per_phase(&self) -> f64 {
        let per_proc = match self.pattern {
            Pattern::Contiguous(bytes) => bytes,
            Pattern::Strided { block, count } => block * count as f64,
        };
        per_proc * self.procs as f64 * self.files as f64
    }
}

/// How a scenario names its arbitration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// A legacy `strategy =` value.
    Strategy(&'static str),
    /// A registry policy spec (`arbitration =`).
    Named(&'static str),
}

/// The arbitration mix of the paper-scale scenarios: the five legacy
/// strategies and three registry-only policies.
const PAPER_POLICIES: [Policy; 8] = [
    Policy::Strategy("interfering"),
    Policy::Strategy("fcfs"),
    Policy::Strategy("interrupt"),
    Policy::Strategy("calciom-dynamic"),
    Policy::Strategy("delay 5.0"),
    Policy::Named("srpf"),
    Policy::Named("priority(w=cores)"),
    Policy::Named("rr(10s)"),
];

/// `?policy=` overrides some service requests carry: the query string
/// and the spec the service decodes from it.
const POLICY_QUERIES: [(&str, &str); 5] = [
    ("?policy=fcfs", "fcfs"),
    ("?policy=srpf", "srpf"),
    ("?policy=rr%2810s%29", "rr(10s)"),
    ("?policy=priority%28w%3Dcores%29", "priority(w=cores)"),
    ("?policy=delay%285s%29", "delay(5s)"),
];

/// A hierarchical topology: `machines` leaves, one slot, equal edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cluster {
    machines: usize,
    latency_ticks: u64,
}

/// One generated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Arbitration.
    pub policy: Policy,
    /// Whether the virtual-time (`fair-fast`) medium is selected.
    pub fair_fast: bool,
    /// Hierarchical topology, if any.
    pub cluster: Option<Cluster>,
    /// Coordination granularity label.
    pub granularity: &'static str,
    /// The file system.
    pub pfs: Pfs,
    /// The applications, with ids `0..n`.
    pub apps: Vec<App>,
}

impl Scenario {
    /// A generous simulated-time bound: every phase of every application
    /// serialized at eight times its stand-alone duration, plus an hour.
    fn horizon_ticks(&self) -> u64 {
        let mut serial = 0.0;
        let mut latest = 0u64;
        for app in &self.apps {
            serial += app.phases as f64 * app.bytes_per_phase() / self.pfs.alone_bw(app.procs);
            latest = latest.max(app.start_ticks + app.phases as u64 * app.period_ticks.max(TICKS));
        }
        latest + (8.0 * serial).ceil() as u64 * TICKS + 3600 * TICKS
    }

    /// The scenario's canonical codec text.
    pub fn text(&self) -> String {
        let mut out = String::with_capacity(200 + 260 * self.apps.len());
        out.push_str("calciom-scenario v1\n");
        let strategy = match self.policy {
            Policy::Strategy(s) => s,
            Policy::Named(_) => "interfering",
        };
        let _ = writeln!(out, "strategy = {strategy}");
        if let Policy::Named(spec) = self.policy {
            let _ = writeln!(out, "arbitration = {spec}");
        }
        if self.fair_fast {
            out.push_str("medium = fair-fast\n");
        }
        if let Some(cluster) = self.cluster {
            let _ = write!(out, "cluster = slots=1 quantum_ticks={}", 30 * TICKS);
            let n = self.apps.len();
            for m in 0..cluster.machines {
                let ids: Vec<String> = (m * n / cluster.machines..(m + 1) * n / cluster.machines)
                    .map(|i| i.to_string())
                    .collect();
                let _ = write!(
                    out,
                    " machine lat_ticks={} apps={}",
                    cluster.latency_ticks,
                    ids.join(",")
                );
            }
            out.push('\n');
        }
        let _ = writeln!(out, "granularity = {}", self.granularity);
        out.push_str("coordination_overhead_ticks = 1000\n");
        let _ = writeln!(out, "horizon_ticks = {}", self.horizon_ticks());
        out.push_str(
            "\n[policy]\nmetric = cpu_seconds_wasted\nconsider_interference = false\n\
             interference_gamma = 0.85\n",
        );
        let p = &self.pfs;
        let _ = write!(
            out,
            "\n[pfs]\nnum_servers = {}\nserver_bw = {:?}\n",
            p.servers, p.server_bw
        );
        match p.cache {
            None => out.push_str("cache = none\n"),
            Some((capacity, absorb, drain)) => {
                let _ = writeln!(out, "cache = {capacity:?} {absorb:?} {drain:?}");
            }
        }
        let _ = write!(
            out,
            "interference_gamma = {:?}\nprocess_link_bw = {:?}\ninterconnect_bw = {:?}\n\
             share_policy = proportional-to-processes\n",
            p.gamma, p.link_bw, p.interconnect_bw
        );
        for (id, app) in self.apps.iter().enumerate() {
            let pattern = match app.pattern {
                Pattern::Contiguous(bytes) => format!("contiguous {bytes:?}"),
                Pattern::Strided { block, count } => format!("strided {block:?} {count}"),
            };
            let _ = write!(
                out,
                "\n[app]\nid = {id}\nname = \"a{id}\"\nprocs = {}\npattern = {pattern}\n\
                 files = {}\naggregators = 0\nbuffer_bytes = 16000000.0\n\
                 shuffle_bw = 8000000000.0\nstart_ticks = {}\nphases = {}\n\
                 phase_interval_ticks = {}\n",
                app.procs, app.files, app.start_ticks, app.phases, app.period_ticks
            );
        }
        out
    }

    /// Application `index` alone on the same platform, starting at t = 0:
    /// the `T_alone` baseline of the interference factor.
    pub fn alone(&self, index: usize) -> Scenario {
        Scenario {
            policy: Policy::Strategy("interfering"),
            fair_fast: self.fair_fast,
            cluster: None,
            granularity: self.granularity,
            pfs: self.pfs,
            apps: vec![App {
                start_ticks: 0,
                ..self.apps[index].clone()
            }],
        }
    }
}

/// Which service endpoint an op posts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/run`.
    Run,
    /// `POST /v1/trace`.
    Trace,
    /// `POST /v1/timeline`.
    Timeline,
}

impl Route {
    /// The request path.
    pub fn path(self) -> &'static str {
        match self {
            Route::Run => "/v1/run",
            Route::Trace => "/v1/trace",
            Route::Timeline => "/v1/timeline",
        }
    }
}

/// The generated inputs of one op.
#[derive(Debug, Clone)]
pub struct OpInput {
    /// Op index within its run.
    pub index: u64,
    /// The scenario.
    pub scenario: Scenario,
    /// Its codec text.
    pub text: String,
    /// Baseline scenario texts, one per application (paper-pairs only:
    /// the other workloads' ops do not compute baselines).
    pub alone: Vec<String>,
    /// Service endpoint (serve-uncached; the others are `Run`).
    pub route: Route,
    /// `?policy=` query string, or empty.
    pub query: &'static str,
    /// The policy spec the query overrides the scenario's with.
    pub override_spec: Option<&'static str>,
}

impl OpInput {
    /// The scenario text the op actually simulates: the `?policy=`
    /// override applied as the service applies it.
    pub fn effective_text(&self) -> String {
        match self.override_spec {
            None => self.text.clone(),
            Some(spec) => Scenario {
                policy: Policy::Named(spec),
                ..self.scenario.clone()
            }
            .text(),
        }
    }
}

/// Position `i` of the golden-ratio sequence, mapped onto `lo..=hi`:
/// consecutive ops spread evenly over the range, and every seed sees the
/// same sequence.
fn spread(i: u64, lo: u64, hi: u64) -> u64 {
    let u = (i as f64 * 0.618_033_988_749_894_8).fract();
    lo + ((u * (hi - lo + 1) as f64) as u64).min(hi - lo)
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.int(0, i as u64) as usize);
    }
}

/// `n` draws from `[0, 1)`, one inside each of `n` equal strata, in
/// random order.
fn strata(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|j| (j as f64 + rng.unit()) / n as f64).collect();
    shuffle(rng, &mut v);
    v
}

/// Process counts of an `n`-application machine mix: the Fig. 1(a)
/// bucket weights apportioned exactly (largest remainder), each size
/// capped at 2048 cores so no single job dwarfs the file system.
fn machine_sizes(n: usize) -> Vec<u32> {
    let total: f64 = SIZE_BUCKETS.iter().map(|(_, w)| w).sum();
    let quotas: Vec<f64> = SIZE_BUCKETS
        .iter()
        .map(|(_, w)| n as f64 * w / total)
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..quotas.len()).collect();
    by_remainder.sort_by(|&a, &b| quotas[b].fract().total_cmp(&quotas[a].fract()));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    SIZE_BUCKETS
        .iter()
        .zip(counts)
        .flat_map(|(&(size, _), count)| std::iter::repeat(size.min(2048)).take(count))
        .collect()
}

/// An `n`-application machine mix: Fig. 1(a) sizes, 1–8 MB per process
/// (log-uniform), one or two phases 20–60 s apart, starts within the
/// first 30 s. Every attribute is stratified over its range and the
/// strata are dealt out at random, so mixes of one size cost nearly the
/// same whatever the seed.
fn machine_mix(rng: &mut Rng, n: usize) -> Vec<App> {
    let mut procs = machine_sizes(n);
    shuffle(rng, &mut procs);
    let mut phases: Vec<u32> = (0..n).map(|j| 1 + (j % 2) as u32).collect();
    shuffle(rng, &mut phases);
    let (volume, start, period) = (strata(rng, n), strata(rng, n), strata(rng, n));
    (0..n)
        .map(|j| App {
            procs: procs[j],
            pattern: Pattern::Contiguous((1.0e6 * 8f64.powf(volume[j])).round()),
            files: 1,
            start_ticks: (start[j] * 30_000.0) as u64 * 1000,
            phases: phases[j],
            period_ticks: (20_000.0 + period[j] * 40_000.0) as u64 * 1000,
        })
        .collect()
}

/// One paper-scale application: a Figs. 2–12 process count, one phase
/// arriving `dt` ∈ [0, 20] s after the first application, and either
/// 1–2 files of 4–32 MB per process or (one in four) a strided pattern of
/// 256 KB blocks. A strided file takes `count` collective-buffering
/// rounds (aggregators scale with the process count), so 4–8 blocks keep
/// the sessions paper-sized.
fn paper_app(rng: &mut Rng, first: bool) -> App {
    let procs = PAPER_PROCS[rng.int(0, PAPER_PROCS.len() as u64 - 1) as usize];
    let (pattern, files) = if rng.int(0, 3) == 0 {
        let count = rng.int(4, 8) as u32;
        (
            Pattern::Strided {
                block: 262_144.0,
                count,
            },
            1,
        )
    } else {
        let bytes = rng.log_uniform(4.0e6, 32.0e6);
        (Pattern::Contiguous(bytes), rng.int(1, 2) as u32)
    };
    App {
        procs,
        pattern,
        files,
        start_ticks: if first { 0 } else { rng.int(0, 40) * TICKS / 2 },
        phases: 1,
        period_ticks: 0,
    }
}

impl Workload {
    /// The inputs of op `index` under `seed`.
    pub fn op(self, seed: u64, index: u64) -> OpInput {
        let mut rng = Rng::new(mix(&[seed, self as u64, index]));
        let mut route = Route::Run;
        let mut query = ("", None);
        let scenario = match self {
            Workload::Contended => {
                // 3/4 rennes at γ = 1 with 128–192 applications, 1/4 the
                // cached nancy platform with 32–64; interfering and
                // delay(5s) alternate on both.
                let (pfs, n) = if index % 4 == 3 {
                    (NANCY, spread(index / 4, 32, 64))
                } else {
                    (RENNES, spread(index, 128, 192))
                };
                let strategy = if (index / 4 + index) % 2 == 0 {
                    "interfering"
                } else {
                    "delay 5.0"
                };
                Scenario {
                    policy: Policy::Strategy(strategy),
                    fair_fast: false,
                    cluster: None,
                    granularity: "round",
                    pfs: pfs.without_locality_penalty(),
                    apps: machine_mix(&mut rng, n as usize),
                }
            }
            Workload::Coordinated => {
                let n = spread(index, 4000, 8000);
                let (strategy, cluster) = match index % 5 {
                    0 => ("fcfs", None),
                    1 => ("interrupt", None),
                    2 => ("calciom-dynamic", None),
                    3 => ("delay 5.0", None),
                    _ => (
                        "fcfs",
                        Some(Cluster {
                            machines: 8,
                            latency_ticks: 1000,
                        }),
                    ),
                };
                Scenario {
                    policy: Policy::Strategy(strategy),
                    fair_fast: true,
                    cluster,
                    granularity: "round",
                    pfs: RENNES.without_locality_penalty(),
                    apps: machine_mix(&mut rng, n as usize),
                }
            }
            Workload::PaperPairs => {
                let n = 2 + (index / 24) % 3;
                Scenario {
                    policy: PAPER_POLICIES[((index / 3) % 8) as usize],
                    fair_fast: false,
                    cluster: None,
                    granularity: if rng.int(0, 1) == 0 { "round" } else { "file" },
                    pfs: [SURVEYOR, RENNES, NANCY][(index % 3) as usize],
                    apps: (0..n).map(|i| paper_app(&mut rng, i == 0)).collect(),
                }
            }
            Workload::ServeUncached => {
                route = match index % 20 {
                    0..=13 => Route::Run,
                    14..=16 => Route::Trace,
                    _ => Route::Timeline,
                };
                if route == Route::Run && index % 7 == 0 {
                    let (q, spec) = POLICY_QUERIES[((index / 7) % 5) as usize];
                    query = (q, Some(spec));
                }
                let n = spread(index, 2, 24);
                let pfs = [SURVEYOR, RENNES, NANCY][(index % 3) as usize];
                let (pfs, apps) = if n <= 4 {
                    (pfs, (0..n).map(|i| paper_app(&mut rng, i == 0)).collect())
                } else {
                    (
                        pfs.without_locality_penalty(),
                        machine_mix(&mut rng, n as usize),
                    )
                };
                Scenario {
                    policy: PAPER_POLICIES[((index / 3) % 8) as usize],
                    fair_fast: false,
                    cluster: None,
                    granularity: "round",
                    pfs,
                    apps,
                }
            }
        };
        let alone = if self == Workload::PaperPairs {
            (0..scenario.apps.len())
                .map(|i| scenario.alone(i).text())
                .collect()
        } else {
            Vec::new()
        };
        OpInput {
            index,
            text: scenario.text(),
            scenario,
            alone,
            route,
            query: query.0,
            override_spec: query.1,
        }
    }
}
