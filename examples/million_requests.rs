//! Million-request cluster trace: the ROADMAP's event-driven-core
//! stress test. 1,000,000 requests arrive at a 128-replica cluster
//! under iteration-level batching, and the engine must chew through
//! them in **seconds of wall-clock** — the point of the heap-scheduled
//! core, where one step costs `O(log replicas)` and the 100+ idle or
//! drained replicas cost nothing at all.
//!
//! ```text
//! cargo run --release --example million_requests [-- --smoke] [-- --bench-json PATH]
//! ```
//!
//! (`--smoke` runs 50,000 requests for CI. The run always records its
//! wall-clock trajectory — requests, replicas, horizon, throughput,
//! wall seconds — as JSON; `--bench-json PATH` picks the output path,
//! default `BENCH_engine.json`. CI archives it so engine-performance
//! regressions show up as per-PR artifact diffs.)
//!
//! The replica model is an analytic NPU-PIM node calibrated to the
//! paper's GPT-2 XL operating point (sub-millisecond batched decode
//! iterations; prefill streaming at hundreds of GB/s effective), so
//! the example measures the *engine*, not a device pipeline: every
//! backend call is a handful of float ops. The cluster is driven at
//! 60% of its analytic full-batch capacity — ~80% measured
//! utilization: loaded, but the queue drains.

mod common;

use ianus::prelude::*;

/// Analytic NPU-PIM serving node: linear prefill, affine batched
/// decode. Costs are calibrated to the paper's single-device GPT-2 XL
/// numbers (≈ 28 µs per prefill token, ≈ 50 µs + 20 µs/sequence per
/// decode iteration) but evaluate in nanoseconds of host time, which
/// is what a 128-replica × 1M-request trace needs.
#[derive(Debug, Clone, Copy)]
struct PimNode {
    /// Per-prompt-token prefill cost.
    prefill_per_token: Duration,
    /// Fixed cost of one decode iteration (weight streaming, PIM
    /// command issue).
    decode_base: Duration,
    /// Marginal cost per co-batched sequence (attention GEMVs scale
    /// with batch; FC weight traffic does not).
    decode_per_seq: Duration,
}

impl PimNode {
    fn calibrated() -> Self {
        PimNode {
            prefill_per_token: Duration::from_us(28),
            decode_base: Duration::from_us(50),
            decode_per_seq: Duration::from_us(20),
        }
    }

    /// Requests/second one node sustains at steady state with `batch`
    /// resident sequences: a request costs its prompt prefill (one
    /// mixed iteration carries it) plus its share of the decode
    /// iterations — `output` tokens at `batch` tokens retired per
    /// iteration of cost `iter(batch)`.
    fn capacity_rps(&self, shape: RequestShape, batch: u32) -> f64 {
        let iter = self.decode_base + self.decode_per_seq * u64::from(batch);
        let prefill = self.prefill_per_token * shape.input;
        let decode_share = shape.output as f64 * iter.as_secs_f64() / batch as f64;
        1.0 / (decode_share + prefill.as_secs_f64())
    }
}

impl Backend for PimNode {
    fn name(&self) -> &str {
        "analytic PIM node"
    }

    fn service_time(&mut self, _model: &ModelConfig, shape: RequestShape) -> Duration {
        self.prefill_per_token * shape.input
            + (self.decode_base + self.decode_per_seq) * shape.output.saturating_sub(1)
    }

    fn fits(&self, _model: &ModelConfig) -> Result<(), CapacityError> {
        Ok(())
    }

    fn prefill_time(&mut self, _model: &ModelConfig, tokens: u64) -> Duration {
        self.prefill_per_token * tokens.max(1)
    }

    fn decode_time(&mut self, _model: &ModelConfig, _past_tokens: u64, batch: u32) -> Duration {
        self.decode_base + self.decode_per_seq * u64::from(batch.max(1))
    }

    fn clone_box(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(*self))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let bench_json =
        common::bench_json_path(&args).unwrap_or_else(|| "BENCH_engine.json".to_string());

    let requests: u64 = if smoke { 50_000 } else { 1_000_000 };
    let replicas = 128usize;
    let max_batch = 32u32;
    let shape = RequestShape::new(128, 32);
    let node = PimNode::calibrated();

    // Drive the cluster at 60% of its analytic full-batch capacity.
    // Partially-filled batches pay the per-iteration base cost over
    // fewer tokens, so effective capacity sits below the full-batch
    // analytic bound — 60% nominal lands around 80% measured
    // utilization, comfortably stable, with batches forming in
    // arrival bursts.
    let rate = 0.6 * replicas as f64 * node.capacity_rps(shape, max_batch);
    println!(
        "million_requests: {requests} ({},{}) requests over {replicas} analytic PIM \
         replicas at {rate:.0} req/s",
        shape.input, shape.output
    );
    println!("(60% of the cluster's ~{:.0} req/s analytic capacity; iteration-level, max batch {max_batch})\n",
        replicas as f64 * node.capacity_rps(shape, max_batch));

    let mut sim = ServingSim::new(ServingConfig {
        arrival_rate_hz: rate,
        requests,
        seed: 0x1A45,
        mix: vec![RequestClass::new(shape, 1.0)],
        workflows: vec![],
        arrivals: Default::default(),
    })
    .cluster(replicas, |_| node)
    .scheduling(Scheduling::IterationLevel {
        max_batch,
        prefill_chunk: None,
        preempt: false,
    });

    let t0 = std::time::Instant::now();
    let report = sim.run(&ModelConfig::gpt2_xl());
    let wall_s = t0.elapsed().as_secs_f64();

    // Liveness and stability: every request completes, and the cluster
    // keeps up with the offered rate.
    assert_eq!(
        report.completed, requests,
        "liveness: every request completes"
    );
    assert!(!report.diverged);
    assert!(
        report.stable(),
        "60% load must be sustainable (utilization {:.2})",
        report.utilization
    );

    let horizon = requests as f64 / rate;
    println!(
        "completed  : {} requests on {replicas} replicas",
        report.completed
    );
    println!(
        "sim horizon: {horizon:.1} s served at {:.0} req/s",
        report.throughput_rps
    );
    println!(
        "utilization: {:.1}%  peak batch {}",
        report.utilization * 100.0,
        report.peak_batch
    );
    println!(
        "p50 / p99 sojourn: {:.0} ms / {:.0} ms",
        report.sojourn.p50.as_ms_f64(),
        report.sojourn.p99.as_ms_f64()
    );
    println!(
        "wall-clock : {wall_s:.2} s ({:.0} requests simulated per wall-second)",
        requests as f64 / wall_s
    );

    // The event-driven core's contract: the full 1M-request trace
    // finishes in seconds. The bound is deliberately loose (shared CI
    // runners), but a regression to the O(replicas)-per-step scan blows
    // straight through it.
    let bound = if smoke { 20.0 } else { 90.0 };
    assert!(
        wall_s < bound,
        "engine wall-clock regression: {wall_s:.1} s for {requests} requests (bound {bound} s)"
    );

    let fields = [
        ("smoke", smoke.to_string()),
        ("requests", requests.to_string()),
        ("replicas", replicas.to_string()),
        ("max_batch", max_batch.to_string()),
        ("arrival_rate_hz", format!("{rate:.3}")),
        ("sim_horizon_s", format!("{horizon:.3}")),
    ];
    let row = format!(
        "    {{\"throughput_rps\": {:.3}, \"utilization\": {:.6}, \"peak_batch\": {}, \
         \"sojourn_p50_ms\": {:.3}, \"sojourn_p99_ms\": {:.3},\n     \
         \"wall_s\": {wall_s:.6}, \"requests_per_wall_s\": {:.1}}}",
        report.throughput_rps,
        report.utilization,
        report.peak_batch,
        report.sojourn.p50.as_ms_f64(),
        report.sojourn.p99.as_ms_f64(),
        requests as f64 / wall_s,
    );
    common::write_bench_json(&bench_json, "million_requests", &fields, &[row]);
}
