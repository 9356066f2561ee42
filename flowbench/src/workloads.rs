//! The three workloads. Each runs one cold pass in this process and returns
//! what it measured; `run.py` starts one process per pass.
//!
//! * `epfl_suite` — the paper's tables, single-threaded: choice construction
//!   (NPN resynthesis, snapshot views, DCH linking) dominates.
//! * `scaled` — three circuits of 7k+ gates at `nproc` threads: the only
//!   workload where the parallel choice and cut machinery runs.
//! * `service_mix` — a closed loop of `nproc` clients on one
//!   `MappingService`: the only workload that exercises the prepared-flow
//!   cache (hits, misses, evictions) and the shared NPN cache.

use crate::check::{same_function, SplitMix, Vectors};
use crate::flows::{run_entry, run_traced, Flow, Libs, Netlist, Outcome, Target};
use crate::json::Json;
use crate::trace::{Tracer, FLOW};
use mch_core::benchmarks::{epfl_suite, multiplier, square, voter};
use mch_core::cut::WorkerPool;
use mch_core::logic::Network;
use mch_core::{
    geometric_mean, prepare_input, Job, JobKind, JobOutput, JobReport, MappingService, MchConfig,
    PreparedFlowCache,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-up is repeated this many times per process; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// One end-to-end or per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Everything one pass reports.
pub struct Pass {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub record: Vec<(String, Json)>,
    pub spans: String,
}

/// One input circuit with its check vectors.
pub struct Circuit {
    pub name: String,
    pub net: Network,
    vectors: Vectors,
}

/// The circuits with seeded check vectors, in the given order.
fn circuits(named: Vec<(String, Network)>, seed: u64) -> Vec<Circuit> {
    let mut rng = SplitMix::new(seed);
    named
        .into_iter()
        .map(|(name, net)| {
            let vectors = Vectors::for_inputs(net.input_count(), rng.next_u64());
            Circuit { name, net, vectors }
        })
        .collect()
}

/// `circuits` in an order the seed rotates.
///
/// A rotation rather than a shuffle: a small flow's latency changes by up to
/// 2x with the flows run before it in the process, so over ten seeds a
/// shuffled `epfl_suite` spread its median latency by 24% and its peak memory
/// by 15% (interquartile range over median), against 11% and 10% rotated.
/// Under a rotation every circuit keeps its predecessor except across the
/// wrap, and no circuit always runs first.
fn rotated_circuits(named: Vec<(String, Network)>, seed: u64) -> Vec<Circuit> {
    let mut out = circuits(named, seed);
    let turn = SplitMix::new(!seed).next_u64() % out.len() as u64;
    out.rotate_left(turn as usize);
    out
}

fn suite() -> Vec<(String, Network)> {
    epfl_suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.network))
        .collect()
}

/// Set-up time: the median repetition (plus the pool spawn, where the
/// workload uses the pool) and every repetition.
struct Setup {
    seconds: f64,
    reps_s: Vec<f64>,
}

impl Setup {
    /// Adds the time to spawn the process-wide worker pool.
    fn with_pool_spawn(mut self) -> Setup {
        let start = Instant::now();
        WorkerPool::global();
        self.seconds += start.elapsed().as_secs_f64();
        self
    }
}

/// Runs `build` [`SETUP_REPS`] times, the first from process start, and
/// returns the last result.
fn timed_setup<T>(process_start: Instant, mut build: impl FnMut() -> T) -> (T, Setup) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut value = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        value = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    let setup = Setup {
        seconds: median(&times),
        reps_s: times,
    };
    (value.expect("SETUP_REPS > 0"), setup)
}

/// The median; of an even count, the mean of the middle two.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One sub-result of an operation: a flow's label, quality class and outcome.
type SubResult = (String, Option<Target>, Result<Outcome, String>);

/// Attempted and failed operations, netlist digests by flow, quality values
/// and per-circuit rows.
#[derive(Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failures: Vec<String>,
    digests: HashMap<String, u64>,
    quality: BTreeMap<String, Vec<(f64, f64)>>,
    rows: Vec<Json>,
    latencies_ms: Vec<f64>,
}

impl Ledger {
    /// Checks every sub-result of one operation; the operation fails if any
    /// sub-result errs, is not verified, mismatches the independent check,
    /// differs from `expected`, or has a digest that differs from an earlier
    /// run of the same flow on the same circuit. `primary` operations feed
    /// the latency, quality and per-circuit figures; replays only get checked.
    fn record(
        &mut self,
        c: &Circuit,
        ms: f64,
        subs: Vec<SubResult>,
        expected: Option<&Netlist>,
        primary: bool,
        libs: &Libs,
    ) {
        self.attempted += 1;
        let mut failure = None;
        for (label, class, result) in subs {
            let problem = match &result {
                Err(e) => Some(format!("error: {e}")),
                Ok(out) if !out.verified => Some("reported verified == false".to_string()),
                Ok(out) => {
                    let digest = out.netlist.digest();
                    let key = format!("{}|{label}", c.name);
                    let first = *self.digests.entry(key).or_insert(digest);
                    if let Err(e) = same_function(&c.net, &out.netlist.to_network(libs), &c.vectors)
                    {
                        Some(format!("independent check: {e}"))
                    } else if expected.is_some_and(|n| *n != out.netlist) {
                        Some("replayed netlist differs from the entry point's".to_string())
                    } else if digest != first {
                        Some(format!("digest {digest:016x} differs from {first:016x}"))
                    } else {
                        None
                    }
                }
            };
            if let (true, Ok(out)) = (primary, &result) {
                let (q1, q2) = out.netlist.quality(libs);
                self.quality
                    .entry(label.clone())
                    .or_default()
                    .push((q1, q2));
                if let Some(class) = class {
                    let key = match class {
                        Target::Lut => "mch:lut",
                        Target::Asic => "mch:asic",
                    };
                    self.quality
                        .entry(key.to_string())
                        .or_default()
                        .push((q1, q2));
                }
                self.rows.push(Json::obj([
                    ("circuit", Json::str(c.name.clone())),
                    ("flow", Json::str(label.clone())),
                    ("op_ms", Json::Num(ms)),
                    ("quality", Json::nums(&[q1, q2])),
                    (
                        "digest",
                        Json::str(format!("{:016x}", out.netlist.digest())),
                    ),
                ]));
            }
            if let Some(p) = problem {
                failure.get_or_insert(format!("{} {label}: {p}", c.name));
            }
        }
        if primary {
            self.latencies_ms.push(ms);
        }
        if let Some(f) = failure {
            self.failures.push(f);
        }
    }

    fn geomeans(&self, key: &str) -> (f64, f64) {
        // Sorted, so the mean does not depend on the seeded circuit order
        // down to the last bit.
        let values = self.quality.get(key).map_or(&[][..], Vec::as_slice);
        let sorted = |f: fn(&(f64, f64)) -> f64| {
            let mut v: Vec<f64> = values.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        (
            geometric_mean(&sorted(|v| v.0)),
            geometric_mean(&sorted(|v| v.1)),
        )
    }

    /// MCH / baseline geomean ratios of the given flow labels.
    fn ratio(&self, mch: &str, baseline: &str) -> Json {
        let (m1, m2) = self.geomeans(mch);
        let (b1, b2) = self.geomeans(baseline);
        if b1 == 0.0 || b2 == 0.0 {
            return Json::Null;
        }
        Json::nums(&[m1 / b1, m2 / b2])
    }

    /// The end-to-end metrics of one pass. The latency percentiles are not
    /// among them: `run.py` takes them over the latencies of all its passes.
    fn end_to_end(&self, setup_s: f64, wall_s: f64) -> Vec<Metric> {
        let (luts, levels) = self.geomeans("mch:lut");
        let (area, delay) = self.geomeans("mch:asic");
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("wall_s".into(), wall_s, "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
            ("lut_count_geomean".into(), luts, "LUTs"),
            ("lut_levels_geomean".into(), levels, "levels"),
            ("asic_area_geomean".into(), area, "um2"),
            ("asic_delay_geomean".into(), delay, "model_ps"),
        ]
    }

    fn record_fields(&self) -> Vec<(String, Json)> {
        vec![
            ("latencies_ms".into(), Json::nums(&self.latencies_ms)),
            (
                "failed_frac".into(),
                Json::Num(self.failures.len() as f64 / self.attempted.max(1) as f64),
            ),
            ("rows".into(), Json::Arr(self.rows.clone())),
        ]
    }
}

/// The per-layer metrics of a traced pass, in a fixed order. The overhead
/// compares `traced_wall_ms` with the untraced wall of the same work.
fn per_layer(
    tracers: &[Tracer],
    traced_wall_ms: f64,
    untraced_wall_ms: f64,
    service: &[Metric],
) -> Vec<Metric> {
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
    for t in tracers {
        for (k, v) in t.self_ms_by_name() {
            *self_ms.entry(k).or_default() += v;
        }
        for (k, v) in t.counters() {
            *counters.entry(k).or_default() += v;
        }
    }
    let mut out: Vec<Metric> = Vec::new();
    for span in [
        "opt.prepare_input",
        "opt.dch_snapshots",
        "choice.mch_build",
        "opt.graph_map",
        "choice.snapshot_link",
        "mapper.cut_prep",
        "mapper.cover",
        "logic.cec",
        "service.run",
    ] {
        out.push((
            format!("{span}_ms"),
            self_ms.get(span).copied().unwrap_or(0.0),
            "ms",
        ));
    }
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    for (name, unit) in [
        ("choice.one_to_one_ms", "ms"),
        ("choice.cut_enum_ms", "ms"),
        ("choice.resynthesis_ms", "ms"),
        ("choice.commit_ms", "ms"),
        ("choice.npn_classes", "count"),
        ("choice.npn_cache_hits", "count"),
        ("choice.snapshot_links", "count"),
        ("choice.mixed_nodes", "count"),
        ("choice.choices_added", "count"),
        ("cut.total_cuts", "count"),
        ("cut.arena_bytes", "bytes"),
    ] {
        out.push((name.to_string(), counter(name), unit));
    }
    let (hits, classes) = (
        counter("choice.npn_cache_hits"),
        counter("choice.npn_classes"),
    );
    out.push((
        "choice.npn_hit_ratio".into(),
        ratio(hits, hits + classes),
        "ratio",
    ));
    out.extend(service.iter().cloned());
    out.push((
        "trace.unaccounted_ms".into(),
        self_ms.get(FLOW).copied().unwrap_or(0.0),
        "ms",
    ));
    out.push((
        "trace.overhead_pct".into(),
        (traced_wall_ms - untraced_wall_ms) / untraced_wall_ms * 100.0,
        "%",
    ));
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Zero-valued service metrics for the workloads that run no service.
fn no_service() -> Vec<Metric> {
    service_metrics(None, &[])
}

fn service_metrics(stats: Option<&mch_core::ServiceStats>, waits_ms: &[f64]) -> Vec<Metric> {
    let s = stats.cloned().unwrap_or_default();
    vec![
        (
            "service.prepared_hit_ratio".into(),
            ratio(
                s.prepared_hits as f64,
                (s.prepared_hits + s.prepared_misses) as f64,
            ),
            "ratio",
        ),
        (
            "service.prepared_evictions".into(),
            s.prepared_evictions as f64,
            "count",
        ),
        (
            "service.prepared_bytes".into(),
            s.prepared_bytes as f64,
            "bytes",
        ),
        (
            "service.prepared_capacity_bytes".into(),
            if stats.is_some() {
                PreparedFlowCache::DEFAULT_CAPACITY_BYTES as f64
            } else {
                0.0
            },
            "bytes",
        ),
        (
            "service.shared_npn_hit_ratio".into(),
            ratio(
                s.shared_npn_hits as f64,
                (s.shared_npn_hits + s.shared_npn_misses) as f64,
            ),
            "ratio",
        ),
        ("service.wait_ms_p50".into(), median(waits_ms), "ms"),
    ]
}

/// Checks that every traced flow's self times add up to its wall time.
fn check_accounting(tracers: &[Tracer], ledger: &mut Ledger) {
    for t in tracers {
        let err = t.accounting_error_ns();
        if err > 0 {
            ledger
                .failures
                .push(format!("trace accounting is off by {err} ns"));
        }
    }
}

fn spans_of(tracers: &[Tracer]) -> String {
    tracers.iter().map(Tracer::spans_jsonl).collect()
}

/// Runs `flow` through its entry point on `input`, checked against `c`.
fn entry_op(
    flow: &Flow,
    c: &Circuit,
    input: &Network,
    libs: &Libs,
    ledger: &mut Ledger,
) -> (f64, Option<Netlist>) {
    let start = Instant::now();
    let result = run_entry(flow, input, libs);
    let ms = ms_since(start);
    let netlist = result.as_ref().ok().map(|o| o.netlist.clone());
    let sub = (
        flow.label(),
        flow.quality_class(),
        result.map_err(|e| e.to_string()),
    );
    ledger.record(c, ms, vec![sub], None, true, libs);
    (ms, netlist)
}

/// Replays `flow` as traced layer calls and checks it against the entry
/// point's netlist.
fn traced_op(
    flow: &Flow,
    c: &Circuit,
    input: &Network,
    libs: &Libs,
    expected: Option<&Netlist>,
    t: &mut Tracer,
    ledger: &mut Ledger,
) {
    let start = Instant::now();
    let out = t.flow(format!("{}|{}", c.name, flow.label()), |t| {
        run_traced(flow, input, libs, t)
    });
    let ms = ms_since(start);
    let sub = (flow.label(), flow.quality_class(), Ok(out));
    ledger.record(c, ms, vec![sub], expected, false, libs);
}

// ---------------------------------------------------------------------------
// epfl_suite
// ---------------------------------------------------------------------------

/// The 20-circuit suite with five flows each: the Table II pair on the raw
/// circuit, the Table I trio on `prepare_input(net, 2)`. Single-threaded.
pub fn epfl_suite_pass(seed: u64, trace: bool, process_start: Instant) -> Pass {
    let ((libs, circuits), setup) = timed_setup(process_start, || {
        (Libs::new(), rotated_circuits(suite(), seed))
    });
    let raw = [
        Flow::LutBaseline,
        Flow::LutMch(MchConfig::lut_area().with_threads(1)),
    ];
    let prepared = [
        Flow::AsicBaseline,
        Flow::AsicDch,
        Flow::AsicMch(MchConfig::balanced().with_threads(1)),
    ];
    let mut ledger = Ledger::default();
    let mut wall_ms = 0.0;
    let mut tracers = vec![Tracer::new()];
    for c in &circuits {
        for (stage, flows) in [(0, &raw[..]), (1, &prepared[..])] {
            let input = if stage == 0 {
                c.net.clone()
            } else {
                let start = Instant::now();
                let input = prepare_input(&c.net, 2);
                wall_ms += ms_since(start);
                if trace {
                    let replay = tracers[0].flow(format!("{}|prepare_input", c.name), |t| {
                        t.span("opt.prepare_input", |_| prepare_input(&c.net, 2))
                    });
                    if replay != input {
                        ledger
                            .failures
                            .push(format!("{}: prepare_input is not deterministic", c.name));
                    }
                }
                input
            };
            for flow in flows {
                let (ms, netlist) = entry_op(flow, c, &input, &libs, &mut ledger);
                wall_ms += ms;
                if trace {
                    traced_op(
                        flow,
                        c,
                        &input,
                        &libs,
                        netlist.as_ref(),
                        &mut tracers[0],
                        &mut ledger,
                    );
                }
            }
        }
    }
    let paper = paper_ratios(&ledger);
    finish_sequential(paper, ledger, tracers, trace, setup, wall_ms, 1)
}

/// The Table I and II framing: MCH (and DCH) geomeans over the baselines'.
fn paper_ratios(ledger: &Ledger) -> Json {
    let mch_lut = Flow::LutMch(MchConfig::lut_area().with_threads(1)).label();
    let mch_asic = Flow::AsicMch(MchConfig::balanced().with_threads(1)).label();
    Json::obj([
        (
            "lut_count_and_levels_mch_over_baseline",
            ledger.ratio(&mch_lut, &Flow::LutBaseline.label()),
        ),
        (
            "asic_area_and_delay_mch_over_nf",
            ledger.ratio(&mch_asic, &Flow::AsicBaseline.label()),
        ),
        (
            "asic_area_and_delay_dch_over_nf",
            ledger.ratio(&Flow::AsicDch.label(), &Flow::AsicBaseline.label()),
        ),
        (
            "asic_area_and_delay_mch_over_dch",
            ledger.ratio(&mch_asic, &Flow::AsicDch.label()),
        ),
    ])
}

fn finish_sequential(
    paper: Json,
    mut ledger: Ledger,
    tracers: Vec<Tracer>,
    trace: bool,
    setup: Setup,
    wall_ms: f64,
    threads: usize,
) -> Pass {
    let traced_wall_ms: f64 = tracers.iter().map(Tracer::flow_wall_ms).sum();
    let metrics = if trace {
        check_accounting(&tracers, &mut ledger);
        per_layer(&tracers, traced_wall_ms, wall_ms, &no_service())
    } else {
        ledger.end_to_end(setup.seconds, wall_ms / 1e3)
    };
    let mut record = ledger.record_fields();
    record.push(("threads".into(), Json::Num(threads as f64)));
    record.push(("setup_reps_s".into(), Json::nums(&setup.reps_s)));
    record.push(("paper_ratios".into(), paper));
    if trace {
        record.push(("untraced_wall_ms".into(), Json::Num(wall_ms)));
        record.push(("traced_wall_ms".into(), Json::Num(traced_wall_ms)));
    }
    Pass {
        metrics,
        spans: spans_of(&tracers),
        ledger,
        record,
    }
}

// ---------------------------------------------------------------------------
// scaled
// ---------------------------------------------------------------------------

/// Three circuits of 7k+ gates, MCH 6-LUT area and MCH balanced ASIC each, at
/// `threads` threads.
pub fn scaled_pass(seed: u64, trace: bool, threads: usize, process_start: Instant) -> Pass {
    let ((libs, circuits), setup) = timed_setup(process_start, || {
        let named = vec![
            ("multiplier32".to_string(), multiplier(32)),
            ("voter511".to_string(), voter(511)),
            ("square48".to_string(), square(48)),
        ];
        (Libs::new(), rotated_circuits(named, seed))
    });
    let setup = setup.with_pool_spawn();
    let flows = [
        Flow::LutMch(MchConfig::lut_area().with_threads(threads)),
        Flow::AsicMch(MchConfig::balanced().with_threads(threads)),
    ];
    let mut ledger = Ledger::default();
    let mut wall_ms = 0.0;
    // In a traced pass the second tracer replays every flow at one thread:
    // its digests must equal the `threads`-thread ones, and its layer split
    // goes to the record.
    let mut tracers = vec![Tracer::new()];
    let mut serial = Tracer::new();
    for c in &circuits {
        for flow in &flows {
            let (ms, netlist) = entry_op(flow, c, &c.net, &libs, &mut ledger);
            wall_ms += ms;
            if trace {
                traced_op(
                    flow,
                    c,
                    &c.net,
                    &libs,
                    netlist.as_ref(),
                    &mut tracers[0],
                    &mut ledger,
                );
                let one = match flow {
                    Flow::LutMch(cfg) => Flow::LutMch(cfg.clone().with_threads(1)),
                    Flow::AsicMch(cfg) => Flow::AsicMch(cfg.clone().with_threads(1)),
                    other => other.clone(),
                };
                traced_op(
                    &one,
                    c,
                    &c.net,
                    &libs,
                    netlist.as_ref(),
                    &mut serial,
                    &mut ledger,
                );
            }
        }
    }
    let mut pass = finish_sequential(Json::Null, ledger, tracers, trace, setup, wall_ms, threads);
    if trace {
        let serial_wall_ms = serial.flow_wall_ms();
        let split = per_layer(std::slice::from_ref(&serial), serial_wall_ms, wall_ms, &[]);
        let fields = split.into_iter().map(|(n, v, _)| (n, Json::Num(v)));
        pass.record
            .push(("layers_at_1_thread".into(), Json::obj(fields)));
    }
    pass
}

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

/// One service job with what is needed to check its result.
#[derive(Clone)]
struct ServiceJob {
    circuit: usize,
    job: Job,
    /// Flow label of each result: one, or one per sweep variant.
    labels: Vec<(String, Option<Target>)>,
}

/// Seed of the fixed job order of `service_mix`.
const JOB_ORDER_SEED: u64 = 0x5EED;

/// Sweep variants over `area_rounds` and `exact_area`.
fn sweep_variants(base: &MchConfig) -> Vec<MchConfig> {
    [(1, false), (4, false), (1, true), (4, true)]
        .into_iter()
        .map(|(rounds, exact)| base.clone().with_area_rounds(rounds).with_exact_area(exact))
        .collect()
}

/// Six jobs per suite circuit, every job config at one thread: MCH ASIC
/// balanced and area-oriented, MCH LUT, fused LUT, and a 4-variant sweep
/// over the balanced ASIC and the LUT configs. The jobs arrive in one fixed
/// shuffled order, so the seed sets only the check vectors. Which lookups
/// hit the prepared-flow cache depends on the order, and which jobs hit
/// decides the latency percentiles: a fresh shuffle per seed moved the hit
/// count from seed to seed, and even a rotation of the fixed order spread
/// the median job latency over eight seeds by 0.19 (interquartile range over
/// median), against about 0.07 over four runs of one order.
fn service_jobs(circuits: &[Circuit], libs: &Libs) -> Vec<ServiceJob> {
    let asic = |cfg: &MchConfig| (Flow::AsicMch(cfg.clone()).label(), Some(Target::Asic));
    let lut = |cfg: &MchConfig| (Flow::LutMch(cfg.clone()).label(), Some(Target::Lut));
    let mut jobs = Vec::new();
    for (i, c) in circuits.iter().enumerate() {
        let name = |kind: &str| format!("{}:{kind}", c.name);
        let bal = MchConfig::balanced().with_threads(1);
        let area = MchConfig::area_oriented().with_threads(1);
        let lut_area = MchConfig::lut_area().with_threads(1);
        let fused = MchConfig::lut_fusion().with_threads(1);
        let fused_label = (Flow::LutFused(fused.clone()).label(), Some(Target::Lut));
        let asic_sweep = sweep_variants(&bal);
        let lut_sweep = sweep_variants(&lut_area);
        let cells = || libs.cells.clone();
        let net = || c.net.clone();
        for (job, labels) in [
            (
                Job::asic(name("asic"), net(), cells(), bal.clone()),
                vec![asic(&bal)],
            ),
            (
                Job::asic(name("asic_area"), net(), cells(), area.clone()),
                vec![asic(&area)],
            ),
            (
                Job::lut(name("lut"), net(), libs.lut, lut_area.clone()),
                vec![lut(&lut_area)],
            ),
            (
                Job::lut_fused(name("fused"), net(), libs.lut, cells(), fused),
                vec![fused_label],
            ),
            (
                Job::sweep(
                    name("asic_sweep"),
                    net(),
                    JobKind::AsicMch(cells()),
                    asic_sweep.clone(),
                ),
                asic_sweep.iter().map(asic).collect(),
            ),
            (
                Job::sweep(
                    name("lut_sweep"),
                    net(),
                    JobKind::LutMch(libs.lut),
                    lut_sweep.clone(),
                ),
                lut_sweep.iter().map(lut).collect(),
            ),
        ] {
            jobs.push(ServiceJob {
                circuit: i,
                job,
                labels,
            });
        }
    }
    SplitMix::new(JOB_ORDER_SEED).shuffle(&mut jobs);
    jobs
}

/// Converts a job report into checkable sub-results.
fn job_results(report: JobReport, labels: &[(String, Option<Target>)]) -> Vec<SubResult> {
    fn one(out: JobOutput) -> Result<Outcome, String> {
        match out {
            JobOutput::Asic(r) => Ok(Outcome {
                verified: r.verified,
                netlist: Netlist::Asic(r.netlist),
            }),
            JobOutput::Lut(r) => Ok(Outcome {
                verified: r.verified,
                netlist: Netlist::Lut(r.netlist),
            }),
            JobOutput::Sweep(_) => Err("unexpected nested sweep".to_string()),
        }
    }
    let results: Vec<Result<Outcome, String>> = match report.outcome {
        Err(e) => vec![Err(e.to_string())],
        Ok(JobOutput::Sweep(variants)) => variants
            .into_iter()
            .map(|v| v.outcome.map_err(|e| e.to_string()).and_then(one))
            .collect(),
        Ok(out) => vec![one(out)],
    };
    if results.len() != labels.len() {
        return vec![(
            labels[0].0.clone(),
            None,
            Err(format!(
                "{} results for {} flows",
                results.len(),
                labels.len()
            )),
        )];
    }
    labels
        .iter()
        .zip(results)
        .map(|((label, class), r)| (label.clone(), *class, r))
        .collect()
}

/// What one closed-loop pass over a fresh service returned.
struct ServiceRun {
    wall_ms: f64,
    /// `(job index, report, client latency in ms)` per job.
    done: Vec<(usize, JobReport, f64)>,
    stats: mch_core::ServiceStats,
    tracers: Vec<Tracer>,
}

/// What one client saw: `(job index, report, latency in ms)` per job it ran,
/// and its spans.
type ClientLog = (Vec<(usize, JobReport, f64)>, Tracer);

/// `clients` threads each call `MappingService::run` one job at a time,
/// drawing jobs in order until none are left.
fn closed_loop(
    service: MappingService,
    jobs: Vec<ServiceJob>,
    clients: usize,
    trace: bool,
) -> ServiceRun {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Job>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j.job))).collect();
    let start = Instant::now();
    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut tracer = Tracer::new();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let job = slot.lock().expect("no client panics holding a slot").take();
                        let job = job.expect("each job is drawn once");
                        let job_start = Instant::now();
                        let report = if trace {
                            let label = job.name.clone();
                            tracer.flow(label, |t| t.span("service.run", |_| service.run(job)))
                        } else {
                            service.run(job)
                        };
                        done.push((i, report, ms_since(job_start)));
                    }
                    (done, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service clients contain every job panic"))
            .collect()
    });
    let wall_ms = ms_since(start);
    let mut done = Vec::new();
    let mut tracers = Vec::new();
    for (d, t) in per_client {
        done.extend(d);
        tracers.push(t);
    }
    done.sort_by_key(|d| d.0);
    ServiceRun {
        wall_ms,
        done,
        stats: service.stats(),
        tracers,
    }
}

/// 120 jobs over the suite on one fresh `MappingService` with the default
/// prepared-flow cache, driven by `clients` closed-loop clients.
pub fn service_mix_pass(seed: u64, trace: bool, clients: usize, process_start: Instant) -> Pass {
    let ((libs, circuits, jobs, service), setup) = timed_setup(process_start, || {
        let libs = Libs::new();
        let circuits = circuits(suite(), seed);
        let jobs = service_jobs(&circuits, &libs);
        (libs, circuits, jobs, MappingService::new())
    });
    let setup = setup.with_pool_spawn();
    let mut ledger = Ledger::default();
    // A traced pass runs the same jobs twice, each on a fresh service: once
    // without spans (the overhead baseline), once with a span around every
    // `MappingService::run` call.
    let replay_jobs = trace.then(|| jobs.clone());
    let untraced = closed_loop(service, jobs.clone(), clients, false);
    let check = |run: &ServiceRun, ledger: &mut Ledger, primary: bool| {
        for (i, report, ms) in &run.done {
            let job = &jobs[*i];
            let report = report.clone();
            ledger.record(
                &circuits[job.circuit],
                *ms,
                job_results(report, &job.labels),
                None,
                primary,
                &libs,
            );
        }
    };
    check(&untraced, &mut ledger, true);
    let stats_json = |s: &mch_core::ServiceStats| {
        Json::obj([
            ("prepared_hits", Json::Num(s.prepared_hits as f64)),
            ("prepared_misses", Json::Num(s.prepared_misses as f64)),
            ("prepared_evictions", Json::Num(s.prepared_evictions as f64)),
            ("prepared_entries", Json::Num(s.prepared_entries as f64)),
            ("prepared_bytes", Json::Num(s.prepared_bytes as f64)),
            (
                "prepared_capacity_bytes",
                Json::Num(PreparedFlowCache::DEFAULT_CAPACITY_BYTES as f64),
            ),
            ("shared_npn_hits", Json::Num(s.shared_npn_hits as f64)),
            ("shared_npn_misses", Json::Num(s.shared_npn_misses as f64)),
            ("jobs_failed", Json::Num(s.jobs_failed as f64)),
        ])
    };
    let mut record = Vec::new();
    record.push(("service".to_string(), stats_json(&untraced.stats)));
    let (metrics, spans) = if let Some(replay_jobs) = replay_jobs {
        let traced = closed_loop(MappingService::new(), replay_jobs, clients, true);
        check(&traced, &mut ledger, false);
        check_accounting(&traced.tracers, &mut ledger);
        let waits: Vec<f64> = traced
            .done
            .iter()
            .map(|(_, r, ms)| ms - r.seconds * 1e3)
            .collect();
        let service = service_metrics(Some(&traced.stats), &waits);
        record.push(("service_traced".to_string(), stats_json(&traced.stats)));
        record.push(("untraced_wall_ms".into(), Json::Num(untraced.wall_ms)));
        record.push(("traced_wall_ms".into(), Json::Num(traced.wall_ms)));
        // Clients overlap, so the overhead compares the two pass walls
        // rather than the sums of per-job spans.
        let layers = per_layer(&traced.tracers, traced.wall_ms, untraced.wall_ms, &service);
        (layers, spans_of(&traced.tracers))
    } else {
        (
            ledger.end_to_end(setup.seconds, untraced.wall_ms / 1e3),
            String::new(),
        )
    };
    record.extend(ledger.record_fields());
    record.push(("threads_per_job".into(), Json::Num(1.0)));
    record.push(("clients".into(), Json::Num(clients as f64)));
    record.push(("setup_reps_s".into(), Json::nums(&setup.reps_s)));
    Pass {
        metrics,
        ledger,
        record,
        spans,
    }
}
