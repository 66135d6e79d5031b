//! Algorithm 1: adaptive compile-time mapping of FC layers.
//!
//! For every FC command the compiler estimates, from analytic unit models,
//! the completion time on the NPU matrix unit (pipelined weight loading +
//! systolic compute, minus any prefetch hidden behind a preceding vector
//! op) and on PIM (token-sequential GEMV), and assigns the FC to whichever
//! finishes sooner — the paper's Algorithm 1. Figure 12 evaluates exactly
//! this decision for 4/8/16 input tokens across the GPT-2 family.
//!
//! The planner keeps no PIM model of its own: it prices PIM through the
//! caller's [`PimCostTable`], the one `GemvShape → PimOpCost` memo that
//! the compiler also emits PIM commands from.

use ianus_model::FcShape;
use ianus_npu::{DmaEngine, MatrixUnit};
use ianus_pim::{GemvShape, PimModel, PimOpCost};
use ianus_sim::Duration;
use std::collections::HashMap;

/// Execution unit chosen for an FC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcUnit {
    /// NPU matrix unit with DMA-pipelined weight streaming.
    MatrixUnit,
    /// PIM GEMV (batch = token count).
    Pim,
}

/// Memoized PIM GEMV prices: each distinct [`GemvShape`] is run through
/// the PIM tiling model once, however many FCs, cores and blocks ask.
///
/// The model is a pure function of the shape, so a hit returns exactly
/// what a fresh evaluation would.
#[derive(Debug, Clone)]
pub struct PimCostTable {
    model: PimModel,
    memo: HashMap<GemvShape, PimOpCost>,
}

impl PimCostTable {
    /// The table for `cfg`'s PIM devices, or `None` when the system has no
    /// PIM compute.
    pub fn new(cfg: &crate::SystemConfig) -> Option<Self> {
        (cfg.pim_channels() > 0).then(|| PimCostTable {
            model: PimModel::new(cfg.pim_group_config()),
            memo: HashMap::new(),
        })
    }

    /// The cost of one GEMV of `shape`.
    pub fn cost(&mut self, shape: GemvShape) -> PimOpCost {
        let model = &self.model;
        *self.memo.entry(shape).or_insert_with(|| model.gemv(shape))
    }

    /// Number of distinct shapes priced so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.memo.len()
    }
}

/// The Algorithm 1 planner.
///
/// # Examples
///
/// ```
/// use ianus_core::adaptive::{AdaptivePlanner, FcUnit, PimCostTable};
/// use ianus_core::SystemConfig;
/// use ianus_model::FcShape;
/// use ianus_sim::Duration;
///
/// let cfg = SystemConfig::ianus();
/// let planner = AdaptivePlanner::new(&cfg);
/// let mut pim = PimCostTable::new(&cfg);
/// let fc = FcShape::new(1024, 1024); // one core's slice of a GPT-2 M FC
/// // Single-token FCs belong on PIM, large batches on the matrix unit.
/// assert_eq!(planner.choose(1, fc, Duration::ZERO, pim.as_mut()), FcUnit::Pim);
/// assert_eq!(
///     planner.choose(512, fc, Duration::ZERO, pim.as_mut()),
///     FcUnit::MatrixUnit
/// );
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePlanner {
    mu: MatrixUnit,
    dma: DmaEngine,
    /// Weight-streaming bandwidth one core sees when all cores load their
    /// slices concurrently (the striped bus is shared).
    per_core_load_gbps: f64,
    /// Weight bytes that fit one double-buffered WM chunk.
    wm_chunk_bytes: u64,
}

impl AdaptivePlanner {
    /// Builds the planner from a system configuration.
    pub fn new(cfg: &crate::SystemConfig) -> Self {
        AdaptivePlanner {
            mu: MatrixUnit::new(&cfg.npu),
            dma: DmaEngine::new(&cfg.npu),
            per_core_load_gbps: cfg.striped_bandwidth_gbps() / cfg.npu.cores as f64,
            wm_chunk_bytes: cfg.npu.wm_bytes / 3,
        }
    }

    /// Estimated completion time of `fc` on the matrix unit for `tokens`
    /// input rows, with `prefetch` of weight loading hidden behind a
    /// preceding vector-unit op (Algorithm 1 lines 5–11).
    pub fn mu_time(&self, tokens: u64, fc: FcShape, prefetch: Duration) -> Duration {
        let chunks = self.chunk_count(fc);
        let load_total = self.dma.offchip(fc.weight_bytes(), self.per_core_load_gbps)
            + self.dma.setup() * (chunks - 1);
        let compute_total = self.mu.gemm(tokens, fc.in_dim, fc.out_dim);
        // Double-buffered pipeline: bound by the slower stream, plus the
        // fill of one chunk of the faster one.
        let per_chunk_fill = compute_total.min(load_total) / chunks;
        let piped = load_total.max(compute_total) + per_chunk_fill;
        piped.saturating_sub(prefetch.min(load_total))
    }

    /// Estimated completion time on PIM (`tokens` sequential GEMVs over
    /// all of `fc`'s rows, GELU not fused), priced through `pim`.
    pub fn pim_time(&self, pim: &mut PimCostTable, tokens: u64, fc: FcShape) -> Duration {
        let shape = GemvShape::new(fc.out_dim, fc.in_dim).with_batch(tokens as u32);
        pim.cost(shape).total
    }

    /// Algorithm 1's decision (lines 13–15). `pim` is `None` when the
    /// system has no PIM compute, which leaves only the matrix unit.
    pub fn choose(
        &self,
        tokens: u64,
        fc: FcShape,
        prefetch: Duration,
        pim: Option<&mut PimCostTable>,
    ) -> FcUnit {
        match pim.map(|pim| self.pim_time(pim, tokens, fc)) {
            Some(pim) if pim < self.mu_time(tokens, fc, prefetch) => FcUnit::Pim,
            _ => FcUnit::MatrixUnit,
        }
    }

    /// Number of WM-sized weight chunks the FC streams through.
    pub fn chunk_count(&self, fc: FcShape) -> u64 {
        fc.weight_bytes().div_ceil(self.wm_chunk_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use ianus_model::ModelConfig;

    fn planner() -> (AdaptivePlanner, PimCostTable) {
        let cfg = SystemConfig::ianus();
        (AdaptivePlanner::new(&cfg), PimCostTable::new(&cfg).unwrap())
    }

    #[test]
    fn crossover_exists_between_1_and_128_tokens() {
        let (p, mut pim) = planner();
        let fc = FcShape::new(1024, 1024);
        assert_eq!(p.choose(1, fc, Duration::ZERO, Some(&mut pim)), FcUnit::Pim);
        assert_eq!(
            p.choose(128, fc, Duration::ZERO, Some(&mut pim)),
            FcUnit::MatrixUnit
        );
        // The crossover is monotone: once MU wins it keeps winning.
        let mut pim_then_mu = true;
        let mut seen_mu = false;
        for t in 1..=128u64 {
            match p.choose(t, fc, Duration::ZERO, Some(&mut pim)) {
                FcUnit::MatrixUnit => seen_mu = true,
                FcUnit::Pim => {
                    if seen_mu {
                        pim_then_mu = false;
                    }
                }
            }
        }
        assert!(pim_then_mu, "mapping decision is not monotone in tokens");
    }

    #[test]
    fn mu_time_flat_under_128_tokens() {
        // Paper: the matrix unit shows similar performance for 4/8/16
        // tokens because it processes 128 in parallel.
        let (p, _) = planner();
        let fc = FcShape::new(1280, 1280);
        let t4 = p.mu_time(4, fc, Duration::ZERO);
        let t16 = p.mu_time(16, fc, Duration::ZERO);
        let ratio = t16.as_ns_f64() / t4.as_ns_f64();
        assert!(ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn pim_time_linear_in_tokens() {
        let (p, mut pim) = planner();
        let fc = FcShape::new(1024, 1024);
        let t1 = p.pim_time(&mut pim, 1, fc);
        let t8 = p.pim_time(&mut pim, 8, fc);
        let ratio = t8.as_ns_f64() / t1.as_ns_f64();
        assert!(ratio > 7.0 && ratio < 9.0, "ratio {ratio}");
    }

    #[test]
    fn prefetch_reduces_mu_time() {
        let (p, _) = planner();
        let fc = FcShape::new(2048, 2048);
        let without = p.mu_time(8, fc, Duration::ZERO);
        let with = p.mu_time(8, fc, Duration::from_us(5));
        assert!(with < without);
    }

    #[test]
    fn no_pim_always_matrix_unit() {
        let cfg = SystemConfig::npu_mem();
        assert!(PimCostTable::new(&cfg).is_none());
        let p = AdaptivePlanner::new(&cfg);
        assert_eq!(
            p.choose(1, FcShape::new(4096, 4096), Duration::ZERO, None),
            FcUnit::MatrixUnit
        );
    }

    /// Every per-core FC slice the compiler plans for GPT-2 M/L/XL: the
    /// per-head Q/K/V slice of the generation schedules and the column
    /// slices of the block FCs and the LM head.
    fn gpt2_fc_slices(part: u64) -> Vec<FcShape> {
        let mut slices = Vec::new();
        for model in [
            ModelConfig::gpt2_m(),
            ModelConfig::gpt2_l(),
            ModelConfig::gpt2_xl(),
        ] {
            let ops = model.block_ops();
            slices.extend([
                FcShape::new(ops.embed_dim(), ops.head_dim()),
                ops.qkv_fc().column_slice(part),
                ops.attn_out_fc().column_slice(part),
                ops.ffn1_fc().column_slice(part),
                ops.ffn2_fc().column_slice(part),
                ops.lm_head_fc().column_slice(part),
            ]);
        }
        slices
    }

    #[test]
    fn memoized_choice_equals_direct_pricing() {
        let cfg = SystemConfig::ianus();
        let direct = PimModel::new(cfg.pim_group_config());
        let (p, mut pim) = planner();
        let part = u64::from(cfg.npu.cores) * u64::from(cfg.devices);
        let mut distinct = std::collections::HashSet::new();
        for fc in gpt2_fc_slices(part) {
            for tokens in 1..=128u64 {
                let shape = GemvShape::new(fc.out_dim, fc.in_dim).with_batch(tokens as u32);
                distinct.insert(shape);
                for prefetch in [Duration::ZERO, Duration::from_us(5)] {
                    let expected = if direct.gemv(shape).total < p.mu_time(tokens, fc, prefetch) {
                        FcUnit::Pim
                    } else {
                        FcUnit::MatrixUnit
                    };
                    assert_eq!(
                        p.choose(tokens, fc, prefetch, Some(&mut pim)),
                        expected,
                        "{fc:?} tokens {tokens}"
                    );
                }
            }
        }
        // Repeated questions (both prefetch values, slices shared between
        // models) hit the table: it holds each distinct shape once.
        assert_eq!(pim.len(), distinct.len());
    }
}
