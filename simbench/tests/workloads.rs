//! The benchmark's own checks: wrappers are transparent, and each
//! workload generates the inputs it claims to.

use ianus_core::serving::{ArrivalSpec, RequestClass, Scheduling, ServingConfig, ServingSim};
use ianus_core::{IanusSystem, SystemConfig};
use ianus_model::{ModelConfig, RequestShape};
use simbench::meter::Meters;
use simbench::workloads::*;
use std::collections::HashSet;
use std::sync::atomic::Ordering::Relaxed;

/// A small unified cluster of two IANUS replicas, swept over two rates
/// so clones share the counters across threads.
fn unified(meters: Option<&Meters>) -> ServingSim {
    let cfg = ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 24,
        seed: 7,
        mix: vec![
            RequestClass::new(RequestShape::new(96, 12), 0.6).with_shared_prefix(64),
            RequestClass::new(RequestShape::new(160, 8), 0.4),
        ],
        workflows: vec![],
        arrivals: ArrivalSpec::mmpp(3.0, 2.0, 2.0),
    };
    let mut sim = ServingSim::new(cfg);
    for _ in 0..2 {
        let dev = IanusSystem::new(SystemConfig::ianus());
        sim = match meters {
            Some(m) => sim.replica(m.wrap(dev)),
            None => sim.replica(dev),
        };
    }
    let sim = sim
        .scheduling(Scheduling::IterationLevel {
            max_batch: 4,
            prefill_chunk: Some(64),
            preempt: true,
        })
        .kv_block(32);
    match meters {
        Some(m) => sim.policy(m.policy.scheduler_policy()),
        None => sim,
    }
}

#[test]
fn wrappers_leave_unified_reports_bit_identical() {
    let model = ModelConfig::gpt2_m();
    let rates = [4.0, 8.0];
    let plain = unified(None).sweep_rates(&model, &rates);
    let meters = Meters::default();
    let traced = unified(Some(&meters)).sweep_rates(&model, &rates);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    assert!(meters.backend.pricing_calls() > 0);
    assert_eq!(
        meters.backend.clones.load(Relaxed),
        2,
        "one clone per replica"
    );
}

#[test]
fn wrappers_leave_disaggregated_reports_bit_identical() {
    let model = serving_model();
    let mut cfg = synth_config(5, 0);
    cfg.requests = 120;
    let plain = synth_engine(cfg.clone(), None).run(&model);
    let meters = Meters::default();
    let traced = synth_engine(cfg.clone(), Some(&meters)).run(&model);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    assert!(live(&cfg, &plain));
    assert!(meters.backend.kv_transfer_calls.load(Relaxed) > 0);
    assert!(meters.policy.admission.load(Relaxed) > 0);
    assert!(meters.policy.migration.load(Relaxed) > 0);
}

#[test]
fn device_plan_never_repeats_a_stage() {
    for seed in 0..16 {
        let plan = device_plan(seed);
        let mut seen = HashSet::new();
        for op in plan.firsts.iter().chain(plan.cycles.iter().flatten()) {
            let key = (op.config, op.model.name, format!("{:?}", op.stage));
            assert!(seen.insert(key.clone()), "seed {seed} repeats {key:?}");
        }
        assert_eq!(seen.len(), FIRST_OPS + CYCLE_OPS * CYCLES as usize);
    }
}

#[test]
fn device_run_spreads_its_first_ops() {
    // A cold first op opens every cycle, so cold starts sample the host
    // over the whole run.
    let order = device_plan(1).in_order();
    assert_eq!(order.len(), FIRST_OPS + CYCLE_OPS * CYCLES as usize);
    for (i, stretch) in order.chunks(1 + CYCLE_OPS).enumerate() {
        assert!(stretch[0].1, "stretch {i} opens with a first op");
        assert!(stretch[1..].iter().all(|(_, cold)| !cold), "stretch {i}");
    }
}

#[test]
fn device_plan_is_a_function_of_the_seed() {
    let a = format!("{:?}", device_plan(3).cycles);
    assert_eq!(a, format!("{:?}", device_plan(3).cycles));
    assert_ne!(a, format!("{:?}", device_plan(4).cycles));
}

#[test]
fn ianus_sweep_probes_two_rates() {
    // `sweep_rates` runs one thread per rate; two stays within a
    // two-core machine.
    assert_eq!(IANUS_RATES.len(), 2);
    const { assert!(IANUS_RATES[0] < IANUS_RATES[1]) };
}

#[test]
fn synth_cluster_engages_every_engine_layer() {
    // A single short trace need not show every behaviour; each whole
    // turn through a seed's traces must.
    let model = serving_model();
    for seed in [1, 2, 3] {
        let meters = Meters::default();
        let mut shown = [0u64; 5];
        for trace in 0..SYNTH_TRACES {
            let cfg = synth_config(seed, trace);
            let reports =
                synth_engine(cfg.clone(), Some(&meters)).sweep_rates(&model, &SYNTH_RATES);
            for r in &reports {
                assert!(live(&cfg, r), "seed {seed} trace {trace}");
                shown[0] += r.preemptions;
                shown[1] += r.migrations;
                shown[2] += r.cancelled_nodes;
                shown[3] += r.prefix_cache_hits + u64::from(r.inherited_prefix_ratio > 0.0);
                shown[4] += u64::from(r.kv_dma.as_secs_f64() > 0.0);
            }
        }
        let names = [
            "preemptions",
            "migrations",
            "cancellations",
            "prefix or inherited hits",
            "KV DMA",
        ];
        for (name, n) in names.iter().zip(shown) {
            assert!(n > 0, "seed {seed}: no {name}");
        }
        // Only the analytic node prices: no device stage is simulated.
        assert!(meters.backend.pricing_calls() > 0);
    }
}
