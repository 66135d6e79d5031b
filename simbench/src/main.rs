//! `simbench`: times one workload of the IANUS simulator from outside.
//!
//! ```text
//! simbench --workload <device_sweep|ianus_sweep|synth_cluster> --seed N --seconds S --trace 0|1
//! simbench --workload <name> --bless     # print expected digests at the default seed
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of a timed run; `--trace 1`
//! runs a fixed amount of work twice, untraced and then traced, checks
//! the two agree and prints the per-layer metrics. The last line of
//! standard output is one JSON object; see `README.md`.

use ianus_core::serving::{ServingConfig, ServingReport, ServingSim};
use ianus_model::ModelConfig;
use simbench::meter::Meters;
use simbench::stats;
use simbench::workloads::*;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Set-up repetitions before the first op, and again after each whole
/// block, so they sample the host over the whole run; `setup_s` is the
/// median of all of them.
const SETUP_REPS: usize = 11;

/// Fewest timed ops a window closes with, so the tail is defined.
const MIN_OPS: usize = stats::TAIL_BEYOND + 1;

/// Consecutive ops per throughput block on a one-engine serving
/// workload.
const BLOCK_OPS: usize = 5;

/// Timings report this quantile of their samples, and rates the
/// complementary one (the 10th percentile): the level the host holds
/// nine tenths of the time. A shared host switches between a fast and a
/// slow phase every few seconds, and the median falls between the two,
/// so it moves with the share of each a run happens to meet; this
/// quantile lies on the slow phase, which every run meets.
const LEVEL: f64 = 0.9;

const EXPECTED_DEVICE: &str = include_str!("../expected/device_sweep.txt");
const EXPECTED_IANUS: &str = include_str!("../expected/ianus_sweep.txt");
const EXPECTED_SYNTH: &str = include_str!("../expected/synth_cluster.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["device_sweep", "ianus_sweep", "synth_cluster"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Expected digests committed for the default seed, in op order.
fn parse_expected(text: &str) -> Vec<u64> {
    text.lines()
        .filter_map(|l| l.split_whitespace().nth(1))
        .map(|h| u64::from_str_radix(h, 16).expect("expected digests are hex"))
        .collect()
}

/// One timed op.
struct Op {
    /// Host seconds inside the simulator call.
    secs: f64,
    /// Digest of its output, compared between traced and untraced runs.
    digest: u64,
    /// Whether its output passed the checks.
    ok: bool,
    /// Simulated requests it completed.
    requests: u64,
    /// Whether it found every memo cold: a first op.
    cold: bool,
    /// The throughput block a later op belongs to.
    block: usize,
}

/// Totals the traced pass reads off serving reports and replays.
#[derive(Default)]
struct ReportSums {
    preemptions: u64,
    recomputes: u64,
    prefix_hits: u64,
    kv_dma_s: f64,
    swap_stall_s: f64,
    migrations: u64,
    workflows: u64,
    cancelled_nodes: u64,
    arrival_draws: u64,
    arrivals_s: f64,
    /// `Σ max(0, wall − pricing busy / threads)` over engine calls.
    core_self_s: f64,
}

impl ReportSums {
    fn add(&mut self, r: &ServingReport) {
        self.preemptions += r.preemptions;
        self.recomputes += r.recomputes;
        self.prefix_hits += r.prefix_cache_hits;
        self.kv_dma_s += r.kv_dma.as_secs_f64();
        self.swap_stall_s += r.swap_stall.as_secs_f64();
        self.migrations += r.migrations;
        self.workflows += r.completed_workflows;
        self.cancelled_nodes += r.cancelled_nodes;
    }

    /// Replays one run's arrival stream at `rate`, timing it.
    fn replay_arrivals(&mut self, cfg: &ServingConfig, rate: f64) {
        let weights: Vec<f64> = if cfg.workflows.is_empty() {
            cfg.mix.iter().map(|c| c.weight).collect()
        } else {
            cfg.workflows.iter().map(|t| t.weight).collect()
        };
        let t = Instant::now();
        let mut process = cfg.arrivals.process(cfg.seed, rate);
        let mut clock = 0.0;
        for _ in 0..cfg.requests {
            clock += std::hint::black_box(process.next_arrival(&weights)).wait;
        }
        std::hint::black_box(clock);
        self.arrivals_s += t.elapsed().as_secs_f64();
        self.arrival_draws += cfg.requests;
    }
}

/// Per-layer totals of the device sweep's traced pass.
#[derive(Default)]
struct SplitSums {
    compiles: u64,
    cmds: u64,
    compile_s: BTreeMap<&'static str, f64>,
    schedule_s: f64,
}

/// What one turn through the synthetic cluster's engines has shown:
/// preemptions, migrations, cancelled nodes, prefix or inherited hits,
/// and runs with KV DMA. Every whole turn must show all five; a single
/// short trace need not.
#[derive(Default)]
struct Claims {
    shown: [u64; 5],
}

impl Claims {
    fn add(&mut self, r: &ServingReport) {
        let inherited = u64::from(r.inherited_prefix_ratio > 0.0);
        let dma = u64::from(r.kv_dma.as_secs_f64() > 0.0);
        let now = [
            r.preemptions,
            r.migrations,
            r.cancelled_nodes,
            r.prefix_cache_hits + inherited,
            dma,
        ];
        for (s, x) in self.shown.iter_mut().zip(now) {
            *s += x;
        }
    }

    /// After the op on engine `idx` of `engines`: false when a whole turn
    /// just ended without showing all five. Starts the next turn.
    fn turn_ok(&mut self, idx: usize, engines: usize) -> bool {
        if idx + 1 < engines {
            return true;
        }
        let ok = self.shown.iter().all(|&s| s > 0);
        *self = Claims::default();
        ok
    }
}

/// One serving engine and the traffic it serves.
struct Engine {
    sim: ServingSim,
    cfg: ServingConfig,
    /// Digest of its first op, which every later op must reproduce.
    first: Option<u64>,
    /// Whether it was just built, so its next op is cold.
    fresh: bool,
}

/// A workload's op stream. One lives per process, so its variants'
/// sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Bench {
    Device {
        /// The plan in run order, each op with whether it is cold.
        ops: Vec<(StageOp, bool)>,
        next: usize,
        /// Later (not cold) ops run so far.
        warm: usize,
        expected: Vec<u64>,
        /// Traced: run each stage split into compile and schedule.
        split: Option<SplitSums>,
    },
    Serving {
        /// Engines the ops take turns on.
        engines: Vec<Engine>,
        next: usize,
        /// Builds an engine for a config.
        build: fn(ServingConfig, Option<&Meters>) -> ServingSim,
        /// Rebuild one engine per turn, so cold ops recur over the run.
        recold: bool,
        model: ModelConfig,
        /// The rising rates each op sweeps, one thread each.
        rates: Vec<f64>,
        /// Expected digest of each engine's ops.
        expected: Vec<u64>,
        /// `synth_cluster` only: checks the cluster engages every engine
        /// layer.
        claims: Option<Claims>,
        meters: Option<Meters>,
        sums: ReportSums,
    },
}

impl Bench {
    /// Builds the generated inputs and engines: the timed set-up. Its
    /// ops check no expected digests until [`Bench::expecting`].
    fn setup(workload: &str, seed: u64, traced: bool) -> Bench {
        let meters = traced.then(Meters::default);
        let serving = |configs: Vec<ServingConfig>, rates: &[f64], meters: Option<Meters>| {
            let synth = workload == "synth_cluster";
            let build: fn(ServingConfig, Option<&Meters>) -> ServingSim =
                if synth { synth_engine } else { ianus_engine };
            let engines = configs
                .into_iter()
                .map(|cfg| Engine {
                    sim: build(cfg.clone(), meters.as_ref()),
                    cfg,
                    first: None,
                    fresh: true,
                })
                .collect();
            Bench::Serving {
                engines,
                next: 0,
                build,
                recold: synth,
                model: serving_model(),
                rates: rates.to_vec(),
                expected: Vec::new(),
                claims: synth.then(Claims::default),
                meters,
                sums: ReportSums::default(),
            }
        };
        match workload {
            "device_sweep" => Bench::Device {
                ops: device_plan(seed).in_order(),
                next: 0,
                warm: 0,
                expected: Vec::new(),
                split: traced.then(SplitSums::default),
            },
            "ianus_sweep" => serving(vec![ianus_config(seed)], &IANUS_RATES, meters),
            _ => {
                let configs = (0..SYNTH_TRACES).map(|t| synth_config(seed, t)).collect();
                serving(configs, &SYNTH_RATES, meters)
            }
        }
    }

    /// Makes the ops check the digests committed for the default seed,
    /// when `seed` is that seed. Not part of the timed set-up.
    fn expecting(mut self, workload: &str, seed: u64) -> Bench {
        if seed == DEFAULT_SEED {
            let digests = parse_expected(match workload {
                "device_sweep" => EXPECTED_DEVICE,
                "ianus_sweep" => EXPECTED_IANUS,
                _ => EXPECTED_SYNTH,
            });
            match &mut self {
                Bench::Device { expected, .. } | Bench::Serving { expected, .. } => {
                    *expected = digests
                }
            }
        }
        self
    }

    /// Cold ops the bench starts with, before the window: the device
    /// plan's first op, or the first op on each serving engine, which
    /// finds every memo empty.
    fn first_ops(&self) -> usize {
        match self {
            Bench::Device { .. } => 1,
            Bench::Serving { engines, .. } => engines.len(),
        }
    }

    /// Whether a window may close after the last op: only on whole
    /// device cycles (the next op is a cold one), whole turns through the
    /// serving engines, or whole blocks of a one-engine workload, so
    /// every run times the same mix of inputs in whole blocks.
    fn at_boundary(&self) -> bool {
        match self {
            Bench::Device { ops, next, .. } => ops.get(*next).is_none_or(|(_, cold)| *cold),
            Bench::Serving { engines, next, .. } => match engines.len() {
                1 => next.saturating_sub(1).is_multiple_of(BLOCK_OPS),
                n => next.is_multiple_of(n),
            },
        }
    }

    /// Runs the next op, or `None` when the inputs are used up.
    fn op(&mut self) -> Option<Op> {
        match self {
            Bench::Device {
                ops,
                next,
                warm,
                expected,
                split,
            } => {
                let (stage, cold) = ops.get(*next)?;
                let idx = *next;
                *next += 1;
                let block = *warm / CYCLE_OPS;
                *warm += usize::from(!cold);
                let t = Instant::now();
                let (secs, digest, sane) = match split {
                    None => {
                        let r = stage.run();
                        let secs = t.elapsed().as_secs_f64();
                        let sane = r.latency.as_secs_f64() > 0.0
                            && r.flops > 0
                            && r.energy.total_pj() > 0.0;
                        (secs, report_digest(&r), sane)
                    }
                    Some(sums) => {
                        let s = stage.run_split();
                        let secs = t.elapsed().as_secs_f64();
                        sums.compiles += 1;
                        sums.cmds += s.cmds;
                        *sums.compile_s.entry(stage.config).or_default() += s.compile_s;
                        sums.schedule_s += s.schedule_s;
                        (secs, s.digest, s.cmds > 0)
                    }
                };
                Some(Op {
                    secs,
                    digest,
                    ok: sane && expected.get(idx).is_none_or(|&e| e == digest),
                    requests: 1,
                    cold: *cold,
                    block,
                })
            }
            Bench::Serving {
                engines,
                next,
                build,
                recold,
                model,
                rates,
                expected,
                claims,
                meters,
                sums,
            } => {
                let count = engines.len();
                let (turn, idx) = (*next / count, *next % count);
                let block = match count {
                    1 => next.saturating_sub(1) / BLOCK_OPS,
                    _ => turn,
                };
                *next += 1;
                let Engine {
                    sim,
                    cfg,
                    first,
                    fresh,
                } = &mut engines[idx];
                if *recold && turn > 0 && idx == turn % count {
                    *sim = build(cfg.clone(), meters.as_ref());
                    *fresh = true;
                }
                let cold = std::mem::take(fresh);
                let busy0 = meters.as_ref().map_or(0, |m| m.backend.busy_ns());
                let t = Instant::now();
                let reports = sim.sweep_rates(model, rates);
                let secs = t.elapsed().as_secs_f64();
                let digest = reports_digest(&reports);
                let mut ok = reports.iter().all(|r| live(cfg, r))
                    && first.is_none_or(|f| f == digest)
                    && expected.get(idx).is_none_or(|&e| e == digest);
                if let Some(c) = claims {
                    reports.iter().for_each(|r| c.add(r));
                    ok &= c.turn_ok(idx, count);
                }
                first.get_or_insert(digest);
                if let Some(m) = meters {
                    let busy = (m.backend.busy_ns() - busy0) as f64 * 1e-9;
                    sums.core_self_s += (secs - busy / rates.len() as f64).max(0.0);
                    for &rate in rates.iter() {
                        sums.replay_arrivals(cfg, rate);
                    }
                }
                reports.iter().for_each(|r| sums.add(r));
                Some(Op {
                    secs,
                    digest,
                    ok,
                    requests: requests_per_op(cfg, rates.len()),
                    cold,
                    block,
                })
            }
        }
    }
}

/// The ops of one pass.
#[derive(Default)]
struct Pass {
    /// Host seconds of each cold first op.
    firsts: Vec<f64>,
    /// Host seconds of each later op.
    secs: Vec<f64>,
    /// Simulated requests and throughput block of each later op.
    requests: Vec<u64>,
    blocks: Vec<usize>,
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Pass {
    fn record(&mut self, op: Op) {
        if op.cold {
            self.firsts.push(op.secs);
        } else {
            self.secs.push(op.secs);
            self.requests.push(op.requests);
            self.blocks.push(op.block);
        }
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
        self.digests.push(op.digest);
    }

    fn busy_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn ops_per_s(&self) -> f64 {
        self.secs.len() as f64 / self.busy_s()
    }

    /// (ops, simulated requests) per host second of each whole block:
    /// a device cycle, a turn through several engines, or [`BLOCK_OPS`]
    /// ops on one engine. A block shorter than the longest (cut off by
    /// the end of the inputs) is dropped.
    fn block_rates(&self) -> (Vec<f64>, Vec<f64>) {
        // (block, ops, busy seconds, requests) of consecutive blocks.
        let mut blocks: Vec<(usize, usize, f64, u64)> = Vec::new();
        for ((&b, &s), &r) in self.blocks.iter().zip(&self.secs).zip(&self.requests) {
            match blocks.last_mut() {
                Some(last) if last.0 == b => {
                    last.1 += 1;
                    last.2 += s;
                    last.3 += r;
                }
                _ => blocks.push((b, 1, s, r)),
            }
        }
        let whole = blocks.iter().map(|b| b.1).max().unwrap_or(0);
        blocks
            .iter()
            .filter(|b| b.1 == whole)
            .map(|&(_, n, busy, r)| (n as f64 / busy, r as f64 / busy))
            .unzip()
    }
}

/// Times [`SETUP_REPS`] set-ups of the bench, keeping the last one.
fn set_up(args: &Args, setups: &mut Vec<f64>) -> Bench {
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let b = Bench::setup(&args.workload, args.seed, false);
        setups.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    bench
        .expect("set-up ran")
        .expecting(&args.workload, args.seed)
}

/// Runs the bench's cold first ops, then ops until `args.seconds` have
/// passed, at least [`MIN_OPS`] later ops ran and the bench is at a
/// boundary. Times set-ups before the first op and at each boundary.
/// The first ops before the window are dropped from `firsts` when cold
/// ops recur inside it: those are spread over the run, while the ones
/// before it all meet the host at one moment.
fn timed_pass(args: &Args, setups: &mut Vec<f64>) -> Pass {
    let mut bench = set_up(args, setups);
    let mut pass = Pass::default();
    for _ in 0..bench.first_ops() {
        pass.record(bench.op().expect("every workload has first ops"));
    }
    let before = pass.firsts.len();
    let t = Instant::now();
    loop {
        if !pass.secs.is_empty() && bench.at_boundary() {
            set_up(args, setups);
            if t.elapsed().as_secs_f64() >= args.seconds && pass.secs.len() >= MIN_OPS {
                break;
            }
        }
        match bench.op() {
            Some(op) => pass.record(op),
            None => break,
        }
    }
    if pass.firsts.len() > before {
        pass.firsts.drain(..before);
    }
    pass
}

/// Runs exactly `ops` ops.
fn fixed_pass(bench: &mut Bench, ops: usize) -> Pass {
    let mut pass = Pass::default();
    for _ in 0..ops {
        pass.record(bench.op().expect("fixed passes stay within the inputs"));
    }
    pass
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when nothing was measured to divide by.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn untraced(args: &Args) -> String {
    let mut setups = Vec::new();
    let pass = timed_pass(args, &mut setups);
    let n = pass.secs.len();
    let ms: Vec<f64> = pass.secs.iter().map(|s| s * 1e3).collect();
    let p50 = stats::median(&ms).expect("a pass has timed ops");
    let level = stats::quantile(&ms, LEVEL).expect("a pass has timed ops");
    let (tail_pct, tail) = stats::tail(&ms).expect("a window holds at least 11 ops");
    let (ops, reqs) = pass.block_rates();
    let rate = |r: &[f64]| stats::quantile(r, 1.0 - LEVEL).expect("a window holds a whole block");
    let first = stats::quantile(&pass.firsts, LEVEL).expect("first ops ran") * 1e3;
    println!(
        "# {} seed {}: {n} timed ops in {} blocks, {} first ops",
        args.workload,
        args.seed,
        ops.len(),
        pass.firsts.len()
    );
    println!(
        "# op_p50_ms {p50} op_p90_ms {level} (n={n}); op_tail_ms {tail} (p{tail_pct:.2}, n={n})"
    );
    println!(
        "# ops_per_s median {} p10 {}",
        stats::median(&ops).expect("a window holds a whole block"),
        rate(&ops)
    );
    result_line(
        pass.attempted,
        pass.failed,
        &[
            ("setup_s", stats::median(&setups).expect("set-ups ran"), "s"),
            ("ops_per_s", rate(&ops), "1/s"),
            ("sim_requests_per_s", rate(&reqs), "1/s"),
            ("op_p90_ms", level, "ms"),
            ("op_tail_ms", tail, "ms"),
            ("first_op_ms", first, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    )
}

fn traced(args: &Args) -> String {
    let ops = match args.workload.as_str() {
        // A cold first op and the cycle after it.
        "device_sweep" => 1 + CYCLE_OPS,
        "ianus_sweep" => 3,
        // A cold turn through the traces, then one with one engine
        // rebuilt cold.
        _ => 2 * SYNTH_TRACES as usize,
    };
    let setup = |traced| {
        Bench::setup(&args.workload, args.seed, traced).expecting(&args.workload, args.seed)
    };
    let plain = fixed_pass(&mut setup(false), ops);
    let mut bench = setup(true);
    let pass = fixed_pass(&mut bench, ops);
    // Traced outputs must equal untraced ones bit for bit.
    let mismatched = plain
        .digests
        .iter()
        .zip(&pass.digests)
        .filter(|(a, b)| a != b)
        .count() as u64;
    let attempted = plain.attempted + pass.attempted;
    let failed = plain.failed + pass.failed + mismatched;

    let mut m: Vec<(&str, f64, &str)> = Vec::new();
    let none = SplitSums::default();
    let split = match &bench {
        Bench::Device { split, .. } => split.as_ref().expect("traced bench splits"),
        Bench::Serving { .. } => &none,
    };
    let compile_s = split.compile_s.values().fold(0.0, |a, b| a + b);
    m.push(("compiler.calls", split.compiles as f64, "count"));
    m.push(("compiler.busy_s", compile_s, "s"));
    m.push(("compiler.cmds", split.cmds as f64, "count"));
    for (config, name) in CONFIGS.iter().zip([
        "compiler.busy_s.ianus",
        "compiler.busy_s.partitioned",
        "compiler.busy_s.npu_mem",
    ]) {
        m.push((
            name,
            split.compile_s.get(config).copied().unwrap_or(0.0),
            "s",
        ));
    }
    m.push(("scheduler.calls", split.compiles as f64, "count"));
    m.push(("scheduler.busy_s", split.schedule_s, "s"));
    m.push((
        "scheduler.cmds_per_s",
        per(split.cmds as f64, split.schedule_s),
        "1/s",
    ));

    let idle = Meters::default();
    let empty = ReportSums::default();
    let (meters, sums) = match &bench {
        Bench::Serving { meters, sums, .. } => (meters.as_ref().expect("traced"), sums),
        Bench::Device { .. } => (&idle, &empty),
    };
    let b = &meters.backend;
    let count = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    let secs = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64 * 1e-9;
    m.push(("replica.service_calls", count(&b.service_calls), "count"));
    m.push(("replica.prefill_calls", count(&b.prefill_calls), "count"));
    m.push(("replica.decode_calls", count(&b.decode_calls), "count"));
    m.push((
        "replica.kv_transfer_calls",
        count(&b.kv_transfer_calls),
        "count",
    ));
    m.push(("replica.service_busy_s", secs(&b.service_ns), "s"));
    m.push(("replica.prefill_busy_s", secs(&b.prefill_ns), "s"));
    m.push(("replica.decode_busy_s", secs(&b.decode_ns), "s"));
    m.push(("replica.clones", count(&b.clones), "count"));
    m.push(("replica.distinct_keys", b.distinct_keys() as f64, "count"));
    m.push((
        "replica.distinct_ratio",
        per(b.distinct_keys() as f64, b.pricing_calls() as f64),
        "ratio",
    ));
    // A device-sweep op simulates a stage, not a serving request.
    let requests = match bench {
        Bench::Serving { .. } => plain.requests.iter().sum::<u64>() as f64,
        Bench::Device { .. } => 0.0,
    };
    m.push(("core.self_s", sums.core_self_s, "s"));
    m.push((
        "core.host_us_per_request",
        per(plain.busy_s() * 1e6, requests),
        "us",
    ));
    m.push(("arrivals.draws", sums.arrival_draws as f64, "count"));
    m.push(("arrivals.busy_s", sums.arrivals_s, "s"));
    let p = &meters.policy;
    m.push(("admission.compares", count(&p.admission), "count"));
    m.push(("kv_state.eviction_compares", count(&p.eviction), "count"));
    m.push((
        "kv_state.readmission_compares",
        count(&p.readmission),
        "count",
    ));
    m.push(("kv_state.preemptions", sums.preemptions as f64, "count"));
    m.push(("kv_state.recomputes", sums.recomputes as f64, "count"));
    m.push(("kv_state.prefix_hits", sums.prefix_hits as f64, "count"));
    m.push(("dma_retire.kv_dma_s", sums.kv_dma_s, "s"));
    m.push(("dma_retire.swap_stall_s", sums.swap_stall_s, "s"));
    m.push(("migrate.migrations", sums.migrations as f64, "count"));
    m.push(("migrate.compares", count(&p.migration), "count"));
    m.push(("workflow_rt.workflows", sums.workflows as f64, "count"));
    m.push((
        "workflow_rt.cancelled_nodes",
        sums.cancelled_nodes as f64,
        "count",
    ));
    m.push((
        "trace.overhead_ratio",
        pass.ops_per_s() / plain.ops_per_s(),
        "ratio",
    ));
    println!(
        "# {} seed {}: traced {} ops, {mismatched} differ from untraced",
        args.workload, args.seed, pass.attempted
    );
    result_line(attempted, failed, &m)
}

/// Prints the digests `expected/<workload>.txt` holds for the default
/// seed: the whole device plan, or one op per serving engine.
fn bless(workload: &str) {
    let mut bench = Bench::setup(workload, DEFAULT_SEED, false);
    let ops = match &bench {
        Bench::Device { ops, .. } => ops.len(),
        Bench::Serving { engines, .. } => engines.len(),
    };
    for i in 0..ops {
        let op = bench.op().expect("bless stays within the inputs");
        assert!(op.ok, "op {i} fails its checks");
        println!("{i} {:016x}", op.digest);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    if args.bless {
        bless(&args.workload);
        return;
    }
    let line = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{line}");
}
