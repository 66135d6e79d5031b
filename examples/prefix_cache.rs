//! Copy-on-write prefix sharing under the paged KV allocator: the
//! `shared-prefix` mix (two request classes whose prompts open with the
//! same 384-token system prompt) served by one IANUS device, swept over
//! KV block sizes.
//!
//! ```text
//! cargo run --release --example prefix_cache [-- --smoke]
//! ```
//!
//! (`--smoke` runs a reduced request count for CI.)
//!
//! With `kv_block = 0` (legacy contiguous accounting) every request
//! prefills its full 512-token prompt. With paging enabled, the first
//! request of each class registers its prefix blocks in the class-wide
//! prefix cache; every later request maps the full shared blocks
//! copy-on-write (ref-counted, never written after registration),
//! re-prefills only the partial tail block plus its private suffix, and
//! starts decode sooner. Two effects are visible in the report:
//!
//! * **TTFT splits into two populations** — cache hits skip most of the
//!   prefill compute, so `ttft_cache_hit.p50` sits well below
//!   `ttft_cold.p50` (~4x here at a stable arrival rate).
//! * **Block size trades sharing against fragmentation** — small blocks
//!   round the 384-token prefix down less (more tokens shared, slack
//!   near zero); large blocks waste most of each private tail block
//!   (`fragmentation` grows) and with 256-token blocks only
//!   `384/256 = 1` full block is shareable.
//!
//! The asserts pin both relations plus the liveness contract.

use ianus::prelude::*;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let requests = if smoke { 30 } else { 60 };
    let model = ModelConfig::gpt2_xl();
    println!(
        "prefix-cache sweep: {} (512,512) drafts, 384-token shared class prefix,",
        model.name
    );
    println!(
        "one IANUS device, 0.3 req/s x {requests} requests, iteration-level (max batch 8, \
         chunk 128, preempt)\n"
    );
    println!(
        "{:>8} {:>6} {:>8} {:>10} {:>14} {:>12}",
        "kv block", "hits", "shared", "frag", "ttft hit p50", "cold p50"
    );

    let mut sim = ServingSim::new(ServingConfig::shared_prefix(0.3, requests))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: Some(128),
            preempt: true,
        });

    let mut frags = Vec::new();
    for kv_block in [0u64, 16, 64, 256] {
        sim.options.kv_block = kv_block;
        let r = sim.run(&model);
        assert_eq!(r.completed, requests, "liveness: every request completes");
        let label = if kv_block == 0 {
            "legacy".to_string()
        } else {
            kv_block.to_string()
        };
        println!(
            "{label:>8} {:>6} {:>7.1}% {:>9.1}% {:>11.1} ms {:>9.1} ms",
            r.prefix_cache_hits,
            r.prefix_share_ratio * 100.0,
            r.fragmentation * 100.0,
            r.ttft_cache_hit.p50.as_ms_f64(),
            r.ttft_cold.p50.as_ms_f64(),
        );
        if kv_block == 0 {
            // Legacy contiguous mode: no cache, every TTFT is cold.
            assert_eq!(r.prefix_cache_hits, 0);
            assert_eq!(r.prefix_share_ratio, 0.0);
        } else {
            // Both classes share the prefix, so all but the first
            // request of each class should hit.
            assert!(
                r.prefix_cache_hits >= requests - 2,
                "kv_block {kv_block}: expected near-universal cache hits, got {}",
                r.prefix_cache_hits
            );
            assert!(
                r.prefix_share_ratio > 0.0,
                "kv_block {kv_block}: some prompt tokens must be shared"
            );
            // The headline: skipping the shared prefill lowers TTFT.
            assert!(
                r.ttft_cache_hit.p50 < r.ttft_cold.p50,
                "kv_block {kv_block}: cache hits must see lower TTFT than cold prefills"
            );
            frags.push(r.fragmentation);
        }
        if kv_block == 64 {
            // 6 of 8 prompt blocks are full shared-prefix blocks.
            assert!(
                r.prefix_share_ratio > 0.5,
                "64-token blocks share 384/512 = 75% of prompt tokens"
            );
        }
    }

    // Fragmentation is monotone in block size: bigger blocks leave more
    // slack in each sequence's private tail.
    assert!(
        frags.windows(2).all(|w| w[0] <= w[1]),
        "fragmentation must grow with block size: {frags:?}"
    );
    println!(
        "\nCache hits map the shared blocks and re-prefill only the private suffix: TTFT p50 \
         drops ~4x.\nSmaller blocks share more of the 384-token prefix and waste less tail \
         slack; 256-token blocks\nshare only one full block and leave most of the last private \
         block empty."
    );
}
