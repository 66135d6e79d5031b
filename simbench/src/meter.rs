//! Counting wrappers installed by the traced pass.
//!
//! They observe the serving engine's layers from outside, through the
//! two extension points the engine offers: the [`Backend`] each replica
//! prices with, and the policy bundle it orders queues with. Every
//! wrapper forwards to the wrapped value unchanged, so a traced run
//! must report exactly what an untraced one does. Counters are atomics
//! behind `Arc`s because sweep clones share them across threads.

use ianus_core::backend::Backend;
use ianus_core::capacity::CapacityError;
use ianus_core::serving::policy::{
    FcfsAdmission, FifoReadmission, LeastLoadedMigration, LowestPriorityYoungest, MigrationTarget,
    QueuedRequest, SeqView,
};
use ianus_core::serving::{
    AdmissionPolicy, EvictionMechanism, EvictionPolicy, MigrationPolicy, ReadmissionPolicy,
    SchedulerPolicy,
};
use ianus_model::{ModelConfig, RequestShape};
use ianus_sim::Duration;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One pricing question: backend name, model, method and arguments.
type PriceKey = (String, &'static str, u8, u64, u64);

/// Calls into every replica [`Backend`] of one engine and its clones.
#[derive(Debug, Default)]
pub struct BackendCounters {
    pub service_calls: AtomicU64,
    pub prefill_calls: AtomicU64,
    pub decode_calls: AtomicU64,
    pub kv_transfer_calls: AtomicU64,
    pub service_ns: AtomicU64,
    pub prefill_ns: AtomicU64,
    pub decode_ns: AtomicU64,
    /// Backends stamped out by `clone_box` (engine clones for sweeps).
    pub clones: AtomicU64,
    keys: Mutex<HashSet<PriceKey>>,
}

impl BackendCounters {
    /// Service, prefill and decode calls: the calls that price a stage.
    pub fn pricing_calls(&self) -> u64 {
        self.service_calls.load(Relaxed)
            + self.prefill_calls.load(Relaxed)
            + self.decode_calls.load(Relaxed)
    }

    /// Host nanoseconds spent inside pricing calls.
    pub fn busy_ns(&self) -> u64 {
        self.service_ns.load(Relaxed) + self.prefill_ns.load(Relaxed) + self.decode_ns.load(Relaxed)
    }

    /// Distinct pricing questions asked so far.
    pub fn distinct_keys(&self) -> u64 {
        self.keys.lock().expect("key set poisoned").len() as u64
    }

    fn record(&self, backend: &str, model: &ModelConfig, method: u8, a: u64, b: u64) {
        self.keys.lock().expect("key set poisoned").insert((
            backend.to_string(),
            model.name,
            method,
            a,
            b,
        ));
    }
}

fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    out
}

/// A [`Backend`] that counts and times every call into `inner`.
pub struct Metered {
    inner: Box<dyn Backend>,
    counters: Arc<BackendCounters>,
}

impl Metered {
    pub fn new(inner: Box<dyn Backend>, counters: Arc<BackendCounters>) -> Self {
        Metered { inner, counters }
    }
}

impl Backend for Metered {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        let c = &self.counters;
        c.service_calls.fetch_add(1, Relaxed);
        c.record(self.inner.name(), model, 0, shape.input, shape.output);
        timed(&c.service_ns, || self.inner.service_time(model, shape))
    }

    fn fits(&self, model: &ModelConfig) -> Result<(), CapacityError> {
        self.inner.fits(model)
    }

    fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        let c = &self.counters;
        c.prefill_calls.fetch_add(1, Relaxed);
        c.record(self.inner.name(), model, 1, tokens, 0);
        timed(&c.prefill_ns, || self.inner.prefill_time(model, tokens))
    }

    fn decode_time(&mut self, model: &ModelConfig, past_tokens: u64, batch: u32) -> Duration {
        let c = &self.counters;
        c.decode_calls.fetch_add(1, Relaxed);
        c.record(self.inner.name(), model, 2, past_tokens, u64::from(batch));
        timed(&c.decode_ns, || {
            self.inner.decode_time(model, past_tokens, batch)
        })
    }

    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        self.inner.batch_fits(model, batch)
    }

    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        self.counters.kv_transfer_calls.fetch_add(1, Relaxed);
        self.inner.kv_transfer_time(model, tokens)
    }

    fn host_kv_bytes(&self) -> Option<u64> {
        self.inner.host_kv_bytes()
    }

    fn kv_budget_bytes(&self, model: &ModelConfig, widest_input: u64) -> Option<u64> {
        self.inner.kv_budget_bytes(model, widest_input)
    }

    fn clone_box(&self) -> Option<Box<dyn Backend>> {
        let inner = self.inner.clone_box()?;
        self.counters.clones.fetch_add(1, Relaxed);
        Some(Box::new(Metered::new(inner, self.counters.clone())))
    }
}

/// A policy that counts its comparisons and forwards them to `inner`.
pub struct Counted<P> {
    inner: P,
    compares: Arc<AtomicU64>,
}

impl<P> Counted<P> {
    fn new(inner: P, compares: &Arc<AtomicU64>) -> Self {
        Counted {
            inner,
            compares: compares.clone(),
        }
    }

    fn tick(&self) {
        self.compares.fetch_add(1, Relaxed);
    }
}

impl<P: AdmissionPolicy> AdmissionPolicy for Counted<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn compare(&self, a: &QueuedRequest, b: &QueuedRequest) -> Ordering {
        self.tick();
        self.inner.compare(a, b)
    }
}

impl<P: EvictionPolicy> EvictionPolicy for Counted<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn compare(&self, a: &SeqView, b: &SeqView) -> Ordering {
        self.tick();
        self.inner.compare(a, b)
    }
}

impl<P: ReadmissionPolicy> ReadmissionPolicy for Counted<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn compare(&self, a: &SeqView, b: &SeqView) -> Ordering {
        self.tick();
        self.inner.compare(a, b)
    }
}

impl<P: MigrationPolicy> MigrationPolicy for Counted<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn compare(&self, a: &MigrationTarget, b: &MigrationTarget) -> Ordering {
        self.tick();
        self.inner.compare(a, b)
    }
}

/// Comparison counts of the default policies, shared by an engine and
/// its sweep clones.
#[derive(Debug, Default)]
pub struct PolicyCounters {
    pub admission: Arc<AtomicU64>,
    pub eviction: Arc<AtomicU64>,
    pub readmission: Arc<AtomicU64>,
    pub migration: Arc<AtomicU64>,
}

impl PolicyCounters {
    /// The engine's default [`SchedulerPolicy`], with every member
    /// counting its comparisons.
    pub fn scheduler_policy(&self) -> SchedulerPolicy {
        SchedulerPolicy {
            admission: Arc::new(Counted::new(FcfsAdmission, &self.admission)),
            eviction: Arc::new(Counted::new(LowestPriorityYoungest, &self.eviction)),
            readmission: Arc::new(Counted::new(FifoReadmission, &self.readmission)),
            mechanism: EvictionMechanism::Swap,
        }
    }

    /// The engine's default migration policy, counting comparisons.
    pub fn migration_policy(&self) -> Counted<LeastLoadedMigration> {
        Counted::new(LeastLoadedMigration, &self.migration)
    }
}

/// Everything one traced engine reports into.
#[derive(Debug, Default)]
pub struct Meters {
    pub backend: Arc<BackendCounters>,
    pub policy: PolicyCounters,
}

impl Meters {
    /// Wraps `backend` so its calls count into these meters.
    pub fn wrap(&self, backend: impl Backend + 'static) -> Metered {
        Metered::new(Box::new(backend), self.backend.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_policies_wrap_the_defaults() {
        let p = PolicyCounters::default();
        assert_eq!(
            p.scheduler_policy().label(),
            SchedulerPolicy::default().label()
        );
        assert_eq!(p.migration_policy().name(), LeastLoadedMigration.name());
    }
}
