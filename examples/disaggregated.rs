//! Disaggregated prefill/decode serving at **equal hardware cost**: the
//! paper's per-backend claim — PIM-class devices win token-serial
//! decode, GPUs win compute-dense prefill — turned into a *cluster
//! architecture* and priced. A100 `PrefillOnly` replicas absorb the
//! long prompts, IANUS `DecodeOnly` replicas stream the tokens, and
//! each sequence's KV migrates between them over the two-channel DMA
//! queue at prefill completion (`Backend::kv_transfer_time` prices both
//! legs).
//!
//! ```text
//! cargo run --release --example disaggregated [-- --smoke] [-- --bench-json PATH]
//! ```
//!
//! The workload: 896-token prompts, 128 generated tokens, with an ITL
//! p99 SLO of 50 ms and a TTFT SLO swept from relaxed to tight. The
//! contenders, all within a ~220-cost-unit hardware budget
//! ([`device_cost_units`]: HBM GiB + bandwidth premium — an A100 ≈
//! 102.8 units, an IANUS device ≈ 10.9):
//!
//! * **IANUS-only ×20** (≈219 units) — the homogeneous PIM pool.
//! * **A100-only ×2** (≈206 units) — the homogeneous GPU pool.
//! * **Disaggregated 1 A100 + {6,10,14} IANUS** — GPU:PIM ratio sweep
//!   (the 1+10 split is what `DisaggregationConfig::equal_cost` picks
//!   at a 50/50 budget share).
//!
//! The crossover is the TTFT SLO:
//!
//! * **Relaxed (250 ms)** — the homogeneous PIM pool wins: IANUS
//!   prefills GPT-2 XL's 896-token prompt in ~113 ms, well inside the
//!   budget, and per cost unit IANUS beats the A100 at *both* stages
//!   (~3.7× on prefill, ~7× on decode), so twenty cheap devices out-
//!   serve any split that swaps nine of them for one A100.
//! * **Tight (100 ms)** — only disaggregation survives. No IANUS
//!   replica can ever prefill 896 tokens inside 100 ms, so the
//!   homogeneous PIM pool's attainment is zero *at any rate*; the
//!   homogeneous GPU pool meets TTFT but mixes prefills into its decode
//!   batches, stretching co-resident token gaps past the ITL SLO (one
//!   44 ms prefill + one ~30 ms decode share per mixed iteration), and
//!   collapses below 0.5 req/s. The disaggregated cluster prefills on
//!   the A100 inside the budget and decodes on IANUS replicas that
//!   *never* see a prefill — the lone migration dwell lands in a single
//!   inter-token gap, which a per-request ITL **p99** tolerates.
//!
//! The directional assert at the bottom pins that result: at the tight
//! TTFT SLO the best GPU-prefill/PIM-decode split beats the best
//! homogeneous pool on sustainable goodput (the bisected highest rate
//! with ≥90% SLO attainment and a stable backlog).
//!
//! [`device_cost_units`]: ianus::system::capacity::device_cost_units

mod common;

use ianus::prelude::*;

/// 896-token prompts, 128 output tokens, one class carrying the SLO.
fn scenario(requests: u64, ttft: Duration) -> ServingConfig {
    let slo = Slo::new(ttft, Duration::from_ms(50));
    ServingConfig {
        arrival_rate_hz: 8.0, // bisection overrides per probe
        requests,
        seed: 0x5EED,
        mix: vec![RequestClass::new(RequestShape::new(896, 128), 1.0).with_slo(slo)],
        workflows: vec![],
        arrivals: Default::default(),
    }
}

/// Whole prompts per iteration: chunking only helps when prefill must
/// interleave with decode, which is exactly what disaggregation removes
/// — and the A100's dispatch-bound prefill would pay per chunk.
fn sched() -> Scheduling {
    Scheduling::IterationLevel {
        max_batch: 8,
        prefill_chunk: None,
        preempt: true,
    }
}

/// One contender: a name, its realized hardware cost, and a builder so
/// each SLO point gets a fresh engine (service memos stay warm inside
/// one engine across the bisection's probes).
struct Cluster {
    name: String,
    cost: f64,
    build: Box<dyn Fn(ServingConfig) -> ServingSim>,
}

fn contenders(smoke: bool) -> Vec<Cluster> {
    let a100_cost = GpuModel::a100().cost_units();
    let ianus_cost = SystemConfig::ianus().cost_units();
    let mut v = vec![
        Cluster {
            name: "IANUS-only x20".into(),
            cost: 20.0 * ianus_cost,
            build: Box::new(|cfg| {
                ServingSim::new(cfg)
                    .cluster(20, |_| IanusSystem::new(SystemConfig::ianus()))
                    .scheduling(sched())
                    .overlap_dma(true)
            }),
        },
        Cluster {
            name: "A100-only x2".into(),
            cost: 2.0 * a100_cost,
            build: Box::new(|cfg| {
                ServingSim::new(cfg)
                    .cluster(2, |_| GpuModel::a100())
                    .scheduling(sched())
                    .overlap_dma(true)
            }),
        },
    ];
    let ratios: &[usize] = if smoke { &[10] } else { &[6, 10, 14] };
    for &d in ratios {
        v.push(Cluster {
            name: format!("disagg 1 A100 + {d} IANUS"),
            cost: DisaggregationConfig::by_count(1, d).cost_units(a100_cost, ianus_cost),
            build: Box::new(move |cfg| {
                ServingSim::new(cfg)
                    .disaggregated(
                        DisaggregationConfig::by_count(1, d),
                        |_| GpuModel::a100(),
                        |_| IanusSystem::new(SystemConfig::ianus()),
                    )
                    .scheduling(sched())
                    .overlap_dma(true)
            }),
        });
    }
    v
}

/// One sweep row as a JSON object (no serde in-tree). `wall_s` is
/// machine-dependent; the canonical compare strips it.
fn bench_row(cluster: &str, ttft_ms: f64, cost: f64, goodput: f64, wall_s: f64) -> String {
    format!(
        "    {{\"cluster\": {cluster:?}, \"ttft_slo_ms\": {ttft_ms:.0}, \
         \"cost_units\": {cost:.1}, \"sustainable_goodput_rps\": {goodput:.4},\n     \
         \"wall_s\": {wall_s:.6}}}"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let bench_json = common::bench_json_path(&args);
    let requests = if smoke { 120 } else { 400 };
    let hi_rate = if smoke { 28.0 } else { 40.0 };
    let model = ModelConfig::gpt2_xl();

    // The per-stage economics that make the crossover.
    let mut a100 = GpuModel::a100();
    let mut ianus = IanusSystem::new(SystemConfig::ianus());
    let prompt = 896u64;
    println!(
        "per-device economics, {} ({prompt}-token prompts):",
        model.name
    );
    for (name, prefill_ms, decode_ms, cost) in [
        (
            "A100",
            Backend::prefill_time(&mut a100, &model, prompt).as_ms_f64(),
            Backend::decode_time(&mut a100, &model, 1024, 8).as_ms_f64(),
            a100.cost_units(),
        ),
        (
            "IANUS",
            Backend::prefill_time(&mut ianus, &model, prompt).as_ms_f64(),
            Backend::decode_time(&mut ianus, &model, 1024, 8).as_ms_f64(),
            SystemConfig::ianus().cost_units(),
        ),
    ] {
        println!(
            "  {name:<6} prefill({prompt}) {prefill_ms:>6.1} ms   decode iter (batch 8) \
             {decode_ms:>5.1} ms   cost {cost:>6.1} units"
        );
    }
    println!(
        "\nsustainable goodput (req/s at >=90% SLO attainment), ITL p99 SLO 50 ms, \
         {requests} requests:\n"
    );

    // The `equal_cost` sizing at a 50/50 share of the ~220-unit budget
    // lands on the 1+10 split the ratio sweep probes explicitly.
    let equal = DisaggregationConfig::equal_cost(
        220.0,
        GpuModel::a100().cost_units(),
        SystemConfig::ianus().cost_units(),
        0.5,
    );
    assert_eq!((equal.prefill, equal.decode), (1, 10));

    let ttfts = [250u64, 100];
    println!(
        "{:<26} {:>6} {:>16} {:>16}",
        "cluster (cost units)", "", "TTFT 250 ms", "TTFT 100 ms"
    );
    let mut rows = Vec::new();
    // goodput[slo_idx][cluster_idx]
    let mut goodput = [Vec::new(), Vec::new()];
    let clusters = contenders(smoke);
    for c in &clusters {
        let mut cells = Vec::new();
        for (si, &ttft_ms) in ttfts.iter().enumerate() {
            let cfg = scenario(requests, Duration::from_ms(ttft_ms));
            let mut sim = (c.build)(cfg);
            let t0 = std::time::Instant::now();
            let g = sim.sustainable_goodput_rate(&model, 0.25, hi_rate, 0.9);
            rows.push(bench_row(
                &c.name,
                ttft_ms as f64,
                c.cost,
                g,
                t0.elapsed().as_secs_f64(),
            ));
            goodput[si].push(g);
            cells.push(g);
        }
        println!(
            "{:<26} {:>6.1} {:>16.2} {:>16.2}",
            c.name, c.cost, cells[0], cells[1]
        );
    }

    // Migration accounting at a fixed mid rate on the 1+10 split: every
    // multi-token request prefills on the A100 and migrates exactly once.
    let disagg_idx = 2; // first disagg entry in `contenders`
    let mut cfg = scenario(requests, Duration::from_ms(100));
    cfg.arrival_rate_hz = if smoke { 6.0 } else { 10.0 };
    let mut sim = (clusters[disagg_idx].build)(cfg);
    let r = sim.run(&model);
    assert_eq!(r.completed, requests, "liveness: every request completes");
    assert_eq!(
        r.migrations, requests,
        "every request hands off after prefill"
    );
    println!(
        "\nmigration path ({}, {} req/s): {} migrations, {:.2} s migration stall, \
         {:.2} s KV DMA",
        clusters[disagg_idx].name,
        sim.config().arrival_rate_hz,
        r.migrations,
        r.migration_stall.as_secs_f64(),
        r.kv_dma.as_secs_f64(),
    );
    for p in &r.per_replica {
        println!(
            "  {:<14} role {:<8} completed {:>4}  migrations in/out {:>4}/{:>4}  \
             util {:>5.1}%",
            p.name,
            p.role.name(),
            p.completed,
            p.migrations_in,
            p.migrations_out,
            p.utilization * 100.0,
        );
    }

    // The crossover, pinned directionally. Relaxed TTFT: the homogeneous
    // PIM pool's per-cost dominance wins. Tight TTFT: only the
    // GPU-prefill/PIM-decode split clears prefill latency *and* keeps
    // decode gaps clean — it beats the best homogeneous pool outright.
    let best_disagg = |si: usize| -> f64 { goodput[si][2..].iter().cloned().fold(0.0, f64::max) };
    let best_homo = |si: usize| -> f64 { goodput[si][0].max(goodput[si][1]) };
    assert!(
        best_homo(0) > best_disagg(0),
        "relaxed TTFT: the homogeneous PIM pool should win on raw per-cost capacity"
    );
    assert!(
        best_disagg(1) > best_homo(1),
        "tight TTFT: equal-cost disaggregation must beat the best homogeneous pool \
         ({:.2} vs {:.2} req/s)",
        best_disagg(1),
        best_homo(1),
    );
    println!(
        "\ncrossover: relaxed TTFT favors the homogeneous PIM pool ({:.2} vs {:.2} req/s); \
         at TTFT 100 ms\nonly disaggregation survives ({:.2} vs {:.2} req/s) — GPU prefill \
         meets the latency floor the\nPIM pool cannot, and role separation keeps PIM decode \
         gaps inside the ITL SLO.",
        best_homo(0),
        best_disagg(0),
        best_disagg(1),
        best_homo(1),
    );

    if let Some(path) = bench_json {
        let fields = [
            ("model", format!("{:?}", model.name)),
            ("requests", requests.to_string()),
            ("smoke", smoke.to_string()),
        ];
        common::write_bench_json(&path, "disaggregated", &fields, &rows);
    }
}
