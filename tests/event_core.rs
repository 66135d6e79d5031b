//! Event-driven engine core regression net.
//!
//! The iteration-level loop ships two cores behind one contract:
//! [`CoreMode::EventDriven`] (heap-scheduled replica index, sorted DMA
//! deques — the default) and [`CoreMode::StepScan`] (the literal
//! per-step scans the engine grew up with, kept as the executable
//! reference). This suite holds them to **whole-report bit-identity**
//! across the engine's feature grid, pins the parallel-sweep
//! determinism contract (`sweep_rates` parallel == serial, result
//! order preserved), and covers the divergence guard: an aborted probe
//! reports `diverged` and never perturbs the rate a bisection returns.

use ianus::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// A cheap deterministic backend with a full memory model
// ---------------------------------------------------------------------

/// Analytic node with real capacity pressure: a KV byte budget small
/// enough that overload preempts, a finite host pool so swap-outs can
/// degrade to recompute, and a slow host link so swap timing matters.
/// Every cost is a couple of float ops, which keeps the differential
/// grid fast, and it clones, which lets the sweep tests take the
/// parallel path.
#[derive(Debug, Clone, Copy)]
struct MemNode {
    /// Device bytes available for KV.
    kv_bytes: u64,
    /// Host pool for swapped-out KV.
    host_bytes: u64,
    /// Host-link bandwidth in GB/s.
    host_gbps: f64,
}

impl MemNode {
    fn tight() -> Self {
        // ~4 final-length (128,64) GPT-2 XL sequences of device KV and
        // ~2 of host pool: preemption under load, with recompute
        // fallback once the pool fills.
        MemNode {
            kv_bytes: 256 << 20,
            host_bytes: 128 << 20,
            host_gbps: 8.0,
        }
    }
}

impl Backend for MemNode {
    fn name(&self) -> &str {
        "mem node"
    }

    fn service_time(&mut self, _model: &ModelConfig, shape: RequestShape) -> Duration {
        Duration::from_us(20) * shape.input
            + Duration::from_us(150) * shape.output.saturating_sub(1)
    }

    fn fits(&self, _model: &ModelConfig) -> Result<(), CapacityError> {
        Ok(())
    }

    fn prefill_time(&mut self, _model: &ModelConfig, tokens: u64) -> Duration {
        Duration::from_us(20) * tokens.max(1)
    }

    fn decode_time(&mut self, _model: &ModelConfig, past_tokens: u64, batch: u32) -> Duration {
        // Past-dependent so heterogeneous batches price differently.
        Duration::from_us(100)
            + Duration::from_us(8) * u64::from(batch.max(1))
            + Duration::from_ns(50) * past_tokens
    }

    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        let kv: u64 = batch
            .iter()
            .map(|r| model.kv_bytes_per_token() * r.total_tokens())
            .sum();
        if kv > self.kv_bytes {
            Err(CapacityError::OutOfMemory {
                required: kv,
                available: self.kv_bytes,
            })
        } else {
            Ok(kv as f64 / self.kv_bytes as f64)
        }
    }

    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        let bytes = ianus::system::capacity::kv_swap_bytes(model, tokens);
        Duration::from_ns_f64(bytes as f64 / self.host_gbps)
    }

    fn host_kv_bytes(&self) -> Option<u64> {
        Some(self.host_bytes)
    }

    fn kv_budget_bytes(&self, _model: &ModelConfig, _widest_input: u64) -> Option<u64> {
        Some(self.kv_bytes)
    }

    fn clone_box(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(*self))
    }
}

/// A `MemNode` that refuses to clone — forces the serial sweep path.
#[derive(Debug, Clone, Copy)]
struct Uncloneable(MemNode);

impl Backend for Uncloneable {
    // Same display name as `MemNode`: the fallback test compares whole
    // reports (which embed replica names) across the two backends.
    fn name(&self) -> &str {
        "mem node"
    }
    fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        self.0.service_time(model, shape)
    }
    fn fits(&self, model: &ModelConfig) -> Result<(), CapacityError> {
        self.0.fits(model)
    }
    fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        self.0.prefill_time(model, tokens)
    }
    fn decode_time(&mut self, model: &ModelConfig, past: u64, batch: u32) -> Duration {
        self.0.decode_time(model, past, batch)
    }
    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        self.0.batch_fits(model, batch)
    }
    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        self.0.kv_transfer_time(model, tokens)
    }
    fn host_kv_bytes(&self) -> Option<u64> {
        self.0.host_kv_bytes()
    }
    fn kv_budget_bytes(&self, model: &ModelConfig, widest: u64) -> Option<u64> {
        self.0.kv_budget_bytes(model, widest)
    }
    // No clone_box override: the default `None` is the point.
}

// ---------------------------------------------------------------------
// Differential: event-driven core ≡ step-scan core
// ---------------------------------------------------------------------

fn mixes() -> Vec<Vec<RequestClass>> {
    let small = RequestShape::new(64, 32);
    let big = RequestShape::new(128, 64);
    let slo = Slo::new(Duration::from_secs_f64(30.0), Duration::from_ms(100));
    vec![
        vec![RequestClass::new(big, 1.0)],
        vec![
            RequestClass::new(small, 0.5).with_slo(slo),
            RequestClass::new(big, 0.5).with_priority(Priority::Batch),
        ],
        vec![
            RequestClass::new(small, 0.3),
            RequestClass::new(big, 0.7).with_shared_prefix(48),
        ],
    ]
}

#[allow(clippy::too_many_arguments)] // mirrors the proptest grid axes
fn build(
    cfg: &ServingConfig,
    replicas: usize,
    max_batch: u32,
    chunk: Option<u64>,
    preempt: bool,
    overlap: bool,
    kv_block: u64,
    mode: CoreMode,
) -> ServingSim {
    ServingSim::new(cfg.clone())
        .cluster(replicas, |_| MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch,
            prefill_chunk: chunk,
            preempt,
        })
        .overlap_dma(overlap)
        .kv_block(kv_block)
        .core_mode(mode)
}

proptest! {
    // Each case is two full runs; keep the count modest — the grid
    // below still crosses seeds × rates × mixes × scheduling knobs.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: for any workload and any combination of
    /// preemption / overlapped DMA / paged-vs-legacy KV, the
    /// event-driven core's report equals the step-scan core's report
    /// **exactly** — same floats, same counters, same schedules.
    #[test]
    fn event_core_is_bit_identical_to_step_scan(
        seed in any::<u64>(),
        rate in prop::sample::select(vec![1.0f64, 4.0, 12.0]),
        mix_i in 0usize..3,
        replicas in 1usize..4,
        max_batch in prop::sample::select(vec![4u32, 8]),
        chunk in prop::sample::select(vec![None, Some(32u64)]),
        preempt in any::<bool>(),
        overlap in any::<bool>(),
        kv_block in prop::sample::select(vec![0u64, 64]),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 40,
            seed,
            mix: mixes()[mix_i].clone(),
            workflows: vec![],
            arrivals: Default::default(),
        };
        let model = ModelConfig::gpt2_xl();
        let event = build(&cfg, replicas, max_batch, chunk, preempt, overlap, kv_block,
                          CoreMode::EventDriven).run(&model);
        let scan = build(&cfg, replicas, max_batch, chunk, preempt, overlap, kv_block,
                         CoreMode::StepScan).run(&model);
        prop_assert_eq!(event, scan);
    }
}

/// The PR 5 pinned preemption scenario (166 preemptions on the default
/// policy — `tests/policy_api.rs` pins the full report) replayed on
/// both cores: the refactor's named regression gate.
#[test]
fn pinned_preemption_scenario_identical_on_both_cores() {
    let shape = RequestShape::new(512, 512);
    let cfg = ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 120,
        seed: 0x5EED,
        mix: vec![
            RequestClass::new(shape, 0.5),
            RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let run = |mode| {
        ServingSim::new(cfg.clone())
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 32,
                prefill_chunk: Some(128),
                preempt: true,
            })
            .core_mode(mode)
            .run(&ModelConfig::gpt2_xl())
    };
    let event = run(CoreMode::EventDriven);
    let scan = run(CoreMode::StepScan);
    assert_eq!(event.preemptions, 166, "the pinned schedule");
    assert_eq!(event, scan);
}

/// The paged pinned scenario (351 preemptions — `tests/paged_kv.rs`
/// pins the count) is likewise core-independent.
#[test]
fn pinned_paged_scenario_identical_on_both_cores() {
    let run = |mode| {
        ServingSim::new(ServingConfig::shared_prefix(8.0, 200))
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 48,
                prefill_chunk: Some(128),
                preempt: true,
            })
            .kv_block(64)
            .core_mode(mode)
            .run(&ModelConfig::gpt2_xl())
    };
    let event = run(CoreMode::EventDriven);
    let scan = run(CoreMode::StepScan);
    assert_eq!(event.preemptions, 351, "the pinned paged schedule");
    assert_eq!(event, scan);
}

// ---------------------------------------------------------------------
// Parallel sweeps: determinism and the serial fallback
// ---------------------------------------------------------------------

fn sweep_cfg() -> ServingConfig {
    ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 60,
        seed: 0xD15C,
        mix: vec![
            RequestClass::new(RequestShape::new(64, 32), 0.6),
            RequestClass::new(RequestShape::new(128, 64), 0.4),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    }
}

/// `sweep_rates` probes on cloned engines across threads; the reports
/// must equal a serial run of each rate on a fresh engine, in the same
/// order.
#[test]
fn sweep_rates_parallel_matches_serial() {
    let model = ModelConfig::gpt2_xl();
    let rates = [0.5, 2.0, 6.0, 12.0];
    let mut sim = ServingSim::new(sweep_cfg())
        .cluster(2, |_| MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: Some(32),
            preempt: true,
        })
        .kv_block(64);
    assert!(sim.try_clone().is_some(), "MemNode clones");
    let parallel = sim.sweep_rates(&model, &rates);
    let serial: Vec<ServingReport> = rates
        .iter()
        .map(|&rate| {
            let mut cfg = sweep_cfg();
            cfg.arrival_rate_hz = rate;
            ServingSim::new(cfg)
                .cluster(2, |_| MemNode::tight())
                .scheduling(Scheduling::IterationLevel {
                    max_batch: 8,
                    prefill_chunk: Some(32),
                    preempt: true,
                })
                .kv_block(64)
                .run(&model)
        })
        .collect();
    assert_eq!(parallel, serial);
}

/// A backend without `clone_box` falls back to serial probing on the
/// original engine — same reports, same order.
#[test]
fn sweep_rates_serial_fallback_without_clone() {
    let model = ModelConfig::gpt2_xl();
    let rates = [1.0, 4.0];
    let build = |node_clones: bool| {
        let mut sim = ServingSim::new(sweep_cfg()).scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        });
        if node_clones {
            sim = sim.replica(MemNode::tight());
        } else {
            sim = sim.replica(Uncloneable(MemNode::tight()));
        }
        sim
    };
    let mut fallback = build(false);
    assert!(fallback.try_clone().is_none(), "Uncloneable must not clone");
    let a = fallback.sweep_rates(&model, &rates);
    let b = build(true).sweep_rates(&model, &rates);
    assert_eq!(a, b, "serial fallback and parallel path agree");
    // The sweep restores the configured rate either way.
    let direct = build(false).run(&model);
    let after = fallback.run(&model);
    assert_eq!(direct, after, "sweep must not perturb the engine");
}

// ---------------------------------------------------------------------
// Divergence guard
// ---------------------------------------------------------------------

/// A hopeless overload with a tiny divergence bound aborts early: the
/// report covers only the completed prefix, says so via `diverged`,
/// and is never `stable`.
#[test]
fn divergence_guard_aborts_hopeless_overload() {
    let model = ModelConfig::gpt2_xl();
    let cfg = ServingConfig {
        arrival_rate_hz: 500.0, // far beyond one MemNode's capacity
        requests: 400,
        seed: 7,
        mix: vec![RequestClass::new(RequestShape::new(128, 64), 1.0)],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let full = ServingSim::new(cfg.clone())
        .replica(MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        })
        .run(&model);
    assert_eq!(full.completed, 400, "no guard: the run completes");
    assert!(!full.diverged);

    let aborted = ServingSim::new(cfg)
        .replica(MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        })
        .divergence_depth(Some(32))
        .run(&model);
    assert!(aborted.diverged, "queue depth blows through the bound");
    assert!(aborted.completed < 400, "only the prefix is simulated");
    assert!(!aborted.stable(), "a diverged report is never stable");
}

/// The satellite regression: the early-abort must not move the rate a
/// bisection returns. Probes that abort were exactly the probes that
/// failed the stability predicate anyway.
#[test]
fn sustainable_rate_unchanged_by_divergence_guard() {
    let model = ModelConfig::gpt2_xl();
    let build = || {
        ServingSim::new(ServingConfig {
            arrival_rate_hz: 1.0,
            requests: 80,
            seed: 0xBEEF,
            mix: vec![RequestClass::new(RequestShape::new(64, 32), 1.0)],
            workflows: vec![],
            arrivals: Default::default(),
        })
        .replica(MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        })
    };
    // Guard off everywhere — every probe simulates its full horizon.
    let exhaustive = build()
        .divergence_depth(None)
        .sustainable_rate(&model, 0.05, 64.0);
    // Default: the automatic in-probe guard may abort hopeless probes.
    let guarded = build().sustainable_rate(&model, 0.05, 64.0);
    assert_eq!(
        exhaustive, guarded,
        "the divergence guard must not change the bisection result"
    );
    assert!(exhaustive > 0.05);
}

// ---------------------------------------------------------------------
// Arrival shapes: the pluggable processes obey the same core contract
// ---------------------------------------------------------------------

/// One representative of each [`ArrivalSpec`] variant, parameterized so
/// the non-Poisson shapes actually modulate (visible bursts, several
/// cycles inside a 40-request run).
fn arrival_specs() -> Vec<ArrivalSpec> {
    vec![
        ArrivalSpec::Poisson,
        ArrivalSpec::diurnal(0.6, 20.0),
        ArrivalSpec::mmpp(6.0, 8.0, 8.0),
        ArrivalSpec::multi_tenant(3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The arrivals lift must not depend on the core: for every
    /// traffic shape, seed, rate, and mix, the event-driven and
    /// step-scan cores replay the identical merged arrival stream and
    /// produce bit-identical reports — including the new burst and
    /// per-tenant columns.
    #[test]
    fn arrival_shapes_bit_identical_on_both_cores(
        seed in any::<u64>(),
        rate in prop::sample::select(vec![2.0f64, 6.0]),
        mix_i in 0usize..3,
        spec_i in 0usize..4,
        preempt in any::<bool>(),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 40,
            seed,
            mix: mixes()[mix_i].clone(),
            workflows: vec![],
            arrivals: arrival_specs()[spec_i].clone(),
        };
        let model = ModelConfig::gpt2_xl();
        let event = build(&cfg, 2, 8, Some(32), preempt, true, 64,
                          CoreMode::EventDriven).run(&model);
        let scan = build(&cfg, 2, 8, Some(32), preempt, true, 64,
                         CoreMode::StepScan).run(&model);
        prop_assert_eq!(event, scan);
    }
}

/// Workflow mode crossed with every arrival shape: DAG instances drawn
/// off a diurnal/MMPP/multi-tenant stream (children inherit the root's
/// tenant and burst attribution) still replay bit-identically on both
/// cores.
#[test]
fn workflow_mix_bit_identical_on_both_cores_across_arrival_shapes() {
    let model = ModelConfig::gpt2_xl();
    let templates = vec![
        WorkflowTemplate::agent_chain(),
        WorkflowTemplate::tool_fanout(),
        WorkflowTemplate::speculative(),
    ];
    for spec in arrival_specs() {
        let cfg = ServingConfig::workflow_mix(3.0, 16, templates.clone()).arrivals(spec.clone());
        let run = |mode: CoreMode| {
            ServingSim::new(cfg.clone())
                .cluster(2, |_| MemNode::tight())
                .scheduling(Scheduling::IterationLevel {
                    max_batch: 8,
                    prefill_chunk: Some(32),
                    preempt: true,
                })
                .kv_block(64)
                .workflow_inheritance(true)
                .core_mode(mode)
                .run(&model)
        };
        assert_eq!(
            run(CoreMode::EventDriven),
            run(CoreMode::StepScan),
            "workflow run diverged across cores under {spec:?}"
        );
    }
}

/// `sweep_rates` keeps its parallel ≡ serial contract when the trace
/// is a multi-tenant merge: every probe rebuilds the merged per-tenant
/// processes from (spec, seed, rate) alone, so cloned engines replay
/// identical streams.
#[test]
fn sweep_rates_parallel_matches_serial_under_multi_tenant() {
    let model = ModelConfig::gpt2_xl();
    let rates = [0.5, 2.0, 6.0];
    let spec = ArrivalSpec::multi_tenant(3);
    let cfg = || sweep_cfg().arrivals(spec.clone());
    let sched = || Scheduling::IterationLevel {
        max_batch: 8,
        prefill_chunk: Some(32),
        preempt: true,
    };
    let mut sim = ServingSim::new(cfg())
        .cluster(2, |_| MemNode::tight())
        .scheduling(sched())
        .kv_block(64);
    assert!(sim.try_clone().is_some(), "MemNode clones");
    let parallel = sim.sweep_rates(&model, &rates);
    let serial: Vec<ServingReport> = rates
        .iter()
        .map(|&rate| {
            ServingSim::new(cfg().with_rate(rate))
                .cluster(2, |_| MemNode::tight())
                .scheduling(sched())
                .kv_block(64)
                .run(&model)
        })
        .collect();
    assert_eq!(parallel, serial);
    for r in &parallel {
        assert_eq!(r.per_tenant.len(), 3, "tenant rows survive the sweep");
    }
}

/// Every engine knob of `o`, one rendered value per field. The
/// destructuring has no `..`, so a new knob fails to compile here until
/// the clone-parity test below covers it.
fn knobs(o: &EngineOptions) -> [String; 11] {
    let EngineOptions {
        dispatch,
        scheduling,
        policy,
        host_kv_pool,
        overlap_dma,
        kv_block,
        core_mode,
        divergence_depth,
        migration,
        two_channel_dma,
        workflow_inheritance,
    } = o;
    [
        format!("{dispatch:?}"),
        format!("{scheduling:?}"),
        policy.label(),
        format!("{host_kv_pool:?}"),
        overlap_dma.to_string(),
        kv_block.to_string(),
        format!("{core_mode:?}"),
        format!("{divergence_depth:?}"),
        migration.name().to_string(),
        two_channel_dma.to_string(),
        workflow_inheritance.to_string(),
    ]
}

/// `try_clone` carries every engine knob: a disaggregated workflow
/// cluster with each `EngineOptions` field away from its default sweeps
/// in parallel (on clones) to exactly the reports of fresh serial runs.
#[test]
fn sweep_rates_parallel_matches_serial_with_every_option_set() {
    let model = ModelConfig::gpt2_xl();
    let rates = [0.5, 2.0, 6.0];
    let options = || EngineOptions {
        dispatch: DispatchPolicy::LeastLoaded,
        scheduling: Scheduling::IterationLevel {
            max_batch: 6,
            prefill_chunk: Some(32),
            preempt: true,
        },
        policy: SchedulerPolicy::default()
            .with_admission(WidestSubtreeAdmission)
            .with_eviction(LargestKv)
            .with_mechanism(EvictionMechanism::Cheapest),
        host_kv_pool: Some(Some(48 << 20)),
        overlap_dma: true,
        kv_block: 64,
        core_mode: CoreMode::StepScan,
        divergence_depth: Some(Some(1 << 20)),
        migration: std::sync::Arc::new(FreestKvMigration),
        two_channel_dma: true,
        workflow_inheritance: false,
    };
    let build = |rate: f64| {
        let cfg = ServingConfig::workflow_mix(
            rate,
            16,
            vec![
                WorkflowTemplate::agent_chain(),
                WorkflowTemplate::tool_fanout(),
                WorkflowTemplate::speculative(),
            ],
        );
        let mut sim = ServingSim::new(cfg).disaggregated(
            DisaggregationConfig::by_count(1, 2),
            |_| MemNode::tight(),
            |_| MemNode::tight(),
        );
        sim.options = options();
        sim
    };
    let mut sim = build(1.0);
    let clone = sim.try_clone().expect("MemNode clones");
    assert_eq!(knobs(&clone.options), knobs(&sim.options));
    for (set, default) in knobs(&sim.options)
        .iter()
        .zip(knobs(&EngineOptions::default()))
    {
        assert_ne!(*set, default, "every knob is set away from its default");
    }
    let parallel = sim.sweep_rates(&model, &rates);
    let serial: Vec<ServingReport> = rates.iter().map(|&r| build(r).run(&model)).collect();
    assert_eq!(parallel, serial);
    assert!(
        parallel.iter().all(|r| !r.diverged),
        "the guard never trips"
    );
    assert!(parallel
        .iter()
        .any(|r| r.migrations > 0 && r.preemptions > 0));
}
