//! An analytic serving node: a [`Backend`] whose every price is a few
//! float operations, so a cluster built from it measures the serving
//! engine rather than the device simulation.

use ianus_core::backend::Backend;
use ianus_core::capacity::{kv_swap_bytes, CapacityError};
use ianus_model::{ModelConfig, RequestShape};
use ianus_sim::Duration;

/// Affine prefill and decode costs, a device KV budget, a host swap
/// pool and a host link.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticNode {
    pub name: &'static str,
    pub prefill_base: Duration,
    pub prefill_per_token: Duration,
    pub decode_base: Duration,
    pub decode_per_seq: Duration,
    /// Device bytes available to KV once weights are resident.
    pub kv_bytes: u64,
    /// Host DRAM for swapped-out KV.
    pub host_bytes: u64,
    pub link_latency: Duration,
    /// Host link bandwidth in bytes per nanosecond.
    pub link_gbps: f64,
}

impl Backend for AnalyticNode {
    fn name(&self) -> &str {
        self.name
    }

    fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        let steps = shape.output.saturating_sub(1);
        self.prefill_time(model, shape.input) + (self.decode_base + self.decode_per_seq) * steps
    }

    fn fits(&self, _model: &ModelConfig) -> Result<(), CapacityError> {
        Ok(())
    }

    fn prefill_time(&mut self, _model: &ModelConfig, tokens: u64) -> Duration {
        self.prefill_base + self.prefill_per_token * tokens.max(1)
    }

    fn decode_time(&mut self, _model: &ModelConfig, _past_tokens: u64, batch: u32) -> Duration {
        self.decode_base + self.decode_per_seq * u64::from(batch.max(1))
    }

    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        let kv: u64 = batch
            .iter()
            .map(|r| kv_swap_bytes(model, r.total_tokens()))
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
        let bytes = kv_swap_bytes(model, tokens);
        self.link_latency + Duration::from_ns_f64(bytes as f64 / self.link_gbps)
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
