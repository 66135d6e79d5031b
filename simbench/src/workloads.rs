//! The three workloads: their generated inputs, the engines that serve
//! them, and the digests their outputs are checked by.
//!
//! Everything here is a pure function of the seed. The program sees
//! only the generated inputs.

use crate::meter::Meters;
use crate::node::AnalyticNode;
use ianus_core::backend::Backend;
use ianus_core::compiler::Compiler;
use ianus_core::serving::{
    ArrivalSpec, Priority, ReplicaRole, RequestClass, Scheduling, ServingConfig, ServingReport,
    ServingSim, WorkflowTemplate,
};
use ianus_core::{EnergyModel, IanusSystem, StageReport, SystemConfig};
use ianus_model::{ModelConfig, RequestShape, Stage};
use ianus_npu::scheduler::Engine;
use ianus_sim::{Duration, Time};
use std::time::Instant;

/// The seed whose outputs are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: the benchmark's only source of randomness.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over `text`: the digest outputs are compared by.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

// ---------------------------------------------------------------- device_sweep

/// Memory organizations the device sweep covers, by benchmark name.
pub const CONFIGS: [&str; 3] = ["ianus", "partitioned", "npu_mem"];

/// Cycles in a device plan; each draws a distinct grid index, so no
/// (config, model, stage) repeats within a plan.
pub const CYCLES: u64 = 32;

/// Ops per cycle: two summarizations and one generation stage for every
/// config × model.
pub const CYCLE_OPS: usize = 27;

/// Cold first ops of a device plan, timed apart from the cycles: one
/// before each cycle and one after the last, so their timings sample
/// the host over the whole run the way the cycles do.
pub const FIRST_OPS: usize = CYCLES as usize + 1;

/// The device configuration a benchmark config name stands for.
pub fn system_config(name: &str) -> SystemConfig {
    match name {
        "ianus" => SystemConfig::ianus(),
        "partitioned" => SystemConfig::partitioned(),
        "npu_mem" => SystemConfig::npu_mem(),
        other => panic!("unknown config {other}"),
    }
}

/// One `run_stage` call on a fresh system.
#[derive(Debug, Clone)]
pub struct StageOp {
    pub config: &'static str,
    pub model: ModelConfig,
    pub stage: Stage,
}

impl StageOp {
    /// `IanusSystem::run_stage` on a fresh system: the timed op.
    pub fn run(&self) -> StageReport {
        IanusSystem::new(system_config(self.config)).run_stage(&self.model, &self.stage)
    }

    /// The same stage split into its layers, as the traced pass runs
    /// it: compile (planner included), then the NPU command scheduler.
    pub fn run_split(&self) -> SplitStage {
        let cfg = system_config(self.config);
        let t = Instant::now();
        let mut compiler = Compiler::new(&cfg, &self.model);
        let compiled = compiler.compile(&self.stage);
        let compile = t.elapsed();
        let t = Instant::now();
        let mut engine = Engine::new(compiler.unit_map().unit_count(), cfg.npu.dispatch_overhead);
        let exec = engine.run(&compiled.program);
        let schedule = t.elapsed();
        SplitStage {
            digest: stage_digest(
                exec.makespan().since(Time::ZERO),
                compiled.flops,
                &EnergyModel::default().energy(&compiled.activity),
            ),
            cmds: compiled.program.len() as u64,
            compile_s: compile.as_secs_f64(),
            schedule_s: schedule.as_secs_f64(),
        }
    }
}

/// A stage run through [`StageOp::run_split`].
#[derive(Debug, Clone, Copy)]
pub struct SplitStage {
    /// [`stage_digest`] of makespan, flops and energy.
    pub digest: u64,
    /// Commands in the compiled program.
    pub cmds: u64,
    pub compile_s: f64,
    pub schedule_s: f64,
}

/// Digest of the parts of a stage report the benchmark checks.
pub fn stage_digest(latency: Duration, flops: u64, energy: &impl std::fmt::Debug) -> u64 {
    digest(&format!("{latency:?}/{flops}/{energy:?}"))
}

/// Digest of a [`StageReport`] (latency, flops, energy).
pub fn report_digest(r: &StageReport) -> u64 {
    stage_digest(r.latency, r.flops, &r.energy)
}

/// The generated inputs of one device-sweep run.
#[derive(Debug, Clone)]
pub struct DevicePlan {
    /// The first ops: IANUS GPT-2 XL summarizations of 256 tokens and a
    /// few fewer, [`FIRST_OPS`] cold starts that cost about the same.
    pub firsts: Vec<StageOp>,
    /// [`CYCLES`] cycles of [`CYCLE_OPS`] ops.
    pub cycles: Vec<Vec<StageOp>>,
}

/// Reverses the low five bits: consecutive cycles land far apart on the
/// grid, so any prefix of cycles covers it evenly.
fn bitrev5(c: u64) -> u64 {
    (0..5).fold(0, |r, b| r | ((c >> b) & 1) << (4 - b))
}

/// The device-sweep plan for `seed`: token counts and past lengths are
/// drawn per cycle from 32-point grids, rotated by the seed and walked
/// in bit-reversed order, so no stage repeats and every run sees the
/// same spread of sizes. A cycle's two summarizations take 32 + s and
/// 95 − s tokens: pricing cost grows about linearly with tokens, so
/// every cycle costs about the same and per-cycle rates differ by host
/// speed, not by input size.
pub fn device_plan(seed: u64) -> DevicePlan {
    let summ_off = mix64(seed) % CYCLES;
    let gen_off = mix64(seed ^ 0x5EED) % CYCLES;
    let models = [
        ModelConfig::gpt2_m(),
        ModelConfig::gpt2_l(),
        ModelConfig::gpt2_xl(),
    ];
    let cycles = (0..CYCLES)
        .map(|c| {
            let s = (bitrev5(c) + summ_off) % CYCLES;
            let g = (bitrev5(c) + gen_off) % CYCLES;
            let stages = [
                Stage::Summarization { tokens: 32 + s },
                Stage::Summarization { tokens: 95 - s },
                Stage::Generation {
                    past_tokens: 64 + 30 * g,
                },
            ];
            let mut ops = Vec::with_capacity(CYCLE_OPS);
            for config in CONFIGS {
                for model in &models {
                    for stage in &stages {
                        ops.push(StageOp {
                            config,
                            model: *model,
                            stage: *stage,
                        });
                    }
                }
            }
            ops
        })
        .collect();
    DevicePlan {
        firsts: (0..FIRST_OPS as u64)
            .map(|k| StageOp {
                config: "ianus",
                model: ModelConfig::gpt2_xl(),
                stage: Stage::Summarization { tokens: 256 - k },
            })
            .collect(),
        cycles,
    }
}

impl DevicePlan {
    /// The plan in run order, each op with whether it is a cold first
    /// op: a first op before each cycle, and the spare ones at the end.
    pub fn in_order(self) -> Vec<(StageOp, bool)> {
        let mut firsts = self.firsts.into_iter();
        let mut order = Vec::with_capacity(FIRST_OPS + CYCLE_OPS * CYCLES as usize);
        for cycle in self.cycles {
            order.extend(firsts.next().map(|op| (op, true)));
            order.extend(cycle.into_iter().map(|op| (op, false)));
        }
        order.extend(firsts.map(|op| (op, true)));
        order
    }
}

// ---------------------------------------------------------------- serving

/// The model every serving workload serves.
pub fn serving_model() -> ModelConfig {
    ModelConfig::gpt2_xl()
}

/// Simulated requests one serving op completes.
pub fn requests_per_op(cfg: &ServingConfig, rates: usize) -> u64 {
    let per_run = if cfg.workflows.is_empty() {
        cfg.requests
    } else {
        // Every node of every instance is a request.
        let total: f64 = cfg.workflows.iter().map(|t| t.weight).sum();
        let mean_nodes: f64 = cfg
            .workflows
            .iter()
            .map(|t| t.weight / total * t.node_count() as f64)
            .sum();
        (cfg.requests as f64 * mean_nodes).round() as u64
    };
    per_run * rates as u64
}

/// Whether `r` served everything `cfg` offered: every request (flat
/// mix) or every workflow instance (workflow mix) finished, and the run
/// was not cut short.
pub fn live(cfg: &ServingConfig, r: &ServingReport) -> bool {
    let settled = if cfg.workflows.is_empty() {
        r.completed == cfg.requests
    } else {
        r.completed_workflows == cfg.requests
    };
    settled && !r.diverged
}

/// Digest of a list of serving reports (their `Debug` text).
pub fn reports_digest(reports: &[ServingReport]) -> u64 {
    digest(&format!("{reports:?}"))
}

/// `ianus_sweep`: simulated requests per rate.
pub const IANUS_REQUESTS: u64 = 2000;

/// `ianus_sweep`: the pair of rising arrival rates every op sweeps.
pub const IANUS_RATES: [f64; 2] = [5.0, 8.0];

/// `ianus_sweep` traffic: a shared-prefix interactive tier and a
/// long-prompt batch tier under bursty (MMPP) arrivals.
pub fn ianus_config(seed: u64) -> ServingConfig {
    ServingConfig {
        arrival_rate_hz: IANUS_RATES[0],
        requests: IANUS_REQUESTS,
        seed: mix64(seed),
        mix: vec![
            RequestClass::new(RequestShape::new(384, 48), 0.7).with_shared_prefix(256),
            RequestClass::new(RequestShape::new(768, 32), 0.3).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: ArrivalSpec::mmpp(4.0, 8.0, 8.0),
    }
}

/// Adds `backend` to `sim` in `role`, counting into `meters` if traced.
fn add_replica(
    sim: ServingSim,
    backend: impl Backend + 'static,
    role: ReplicaRole,
    meters: Option<&Meters>,
) -> ServingSim {
    match meters {
        Some(m) => sim.replica_with_role(m.wrap(backend), role),
        None => sim.replica_with_role(backend, role),
    }
}

/// Installs the default policies, counting into `meters` if traced.
fn default_policies(sim: ServingSim, meters: Option<&Meters>) -> ServingSim {
    match meters {
        Some(m) => sim
            .policy(m.policy.scheduler_policy())
            .migration(m.policy.migration_policy()),
        None => sim,
    }
}

/// `ianus_sweep` engine: four IANUS replicas, iteration-level
/// scheduling with chunked prefill, paged KV and preemption.
pub fn ianus_engine(cfg: ServingConfig, meters: Option<&Meters>) -> ServingSim {
    let mut sim = ServingSim::new(cfg);
    for _ in 0..4 {
        let dev = IanusSystem::new(SystemConfig::ianus());
        sim = add_replica(sim, dev, ReplicaRole::Unified, meters);
    }
    let sim = sim
        .scheduling(Scheduling::IterationLevel {
            // At batch 1 both rates meet the same pricing keys, so the
            // second rate's clone never re-prices a stage.
            max_batch: 1,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .kv_block(64);
    default_policies(sim, meters)
}

/// `synth_cluster`: workflow instances per op.
pub const SYNTH_INSTANCES: u64 = 150;

/// `synth_cluster`: the pair of rising rates, in workflow instances per
/// simulated second, every op sweeps on two threads. On a shared
/// two-core host, one thread's op times swung about twice as much as a
/// two-thread sweep's.
pub const SYNTH_RATES: [f64; 2] = [120.0, 150.0];

/// `synth_cluster` replicas: a prefill-only and a decode-only pool, plus
/// unified replicas where workflow children can inherit their parent's
/// KV.
pub const SYNTH_POOLS: [(ReplicaRole, usize); 3] = [
    (ReplicaRole::PrefillOnly, 4),
    (ReplicaRole::DecodeOnly, 12),
    (ReplicaRole::Unified, 16),
];

/// `synth_cluster`: arrival traces per run. Ops take turns on them, so a
/// run's cost averages over several traces of the seed rather than
/// resting on one.
pub const SYNTH_TRACES: u64 = 32;

/// `synth_cluster` traffic, trace `trace` of `seed`: chains, fan-outs
/// and speculative races under MMPP arrivals.
pub fn synth_config(seed: u64, trace: u64) -> ServingConfig {
    let mut cfg = ServingConfig::workflow_mix(
        SYNTH_RATES[0],
        SYNTH_INSTANCES,
        vec![
            WorkflowTemplate::agent_chain(),
            WorkflowTemplate::tool_fanout(),
            WorkflowTemplate::speculative(),
        ],
    )
    .arrivals(ArrivalSpec::mmpp(3.0, 0.5, 0.5));
    cfg.seed = mix64(mix64(seed) ^ trace);
    cfg
}

/// The analytic node of the synthetic cluster, sized so KV pressure
/// preempts and the host pool sometimes overflows.
pub fn synth_node(name: &'static str) -> AnalyticNode {
    AnalyticNode {
        name,
        prefill_base: Duration::from_us(200),
        prefill_per_token: Duration::from_us(20),
        decode_base: Duration::from_us(400),
        decode_per_seq: Duration::from_us(40),
        kv_bytes: 300 << 20,
        host_bytes: 64 << 20,
        link_latency: Duration::from_us(5),
        link_gbps: 16.0,
    }
}

/// `synth_cluster` engine: a disaggregated cluster of analytic nodes
/// with paged KV, preemption, overlapped two-channel DMA and KV
/// migration.
pub fn synth_engine(cfg: ServingConfig, meters: Option<&Meters>) -> ServingSim {
    let mut sim = ServingSim::new(cfg);
    for (role, count) in SYNTH_POOLS {
        for _ in 0..count {
            sim = add_replica(sim, synth_node(role.name()), role, meters);
        }
    }
    let sim = sim
        .scheduling(Scheduling::IterationLevel {
            max_batch: 16,
            prefill_chunk: Some(256),
            preempt: true,
        })
        .kv_block(16)
        .overlap_dma(true)
        .two_channel_dma(true);
    default_policies(sim, meters)
}
