//! The cluster engine, layered: replica memoization, arrival
//! generation, both scheduling loops, and the rate-search helpers.
//!
//! The engine is decomposed into one module per subsystem, each owning
//! its state as a named struct with documented call contracts:
//!
//! | module        | layer struct       | owns                                        |
//! |---------------|--------------------|---------------------------------------------|
//! | `replica`     | `Replica`          | one backend + service-time memos            |
//! | `arrivals`    | [`ArrivalProcess`] | trace generation (Poisson/diurnal/MMPP/...) |
//! | `admission`   | `WaitQueue`        | arrival vector, wait queue, admission       |
//! | `batch`       | `BatchState`       | resident sequences, clocks, execute/advance |
//! | `kv_state`    | `KvLedger`         | paged pools, swap queues, pressure/eviction |
//! | `dma_retire`  | `LaneClocks`       | DMA lanes, in-flight swaps, retirement      |
//! | `migrate`     | `MigrationState`   | decode pool, prefill→decode handoff         |
//! | `workflow_rt` | `WorkflowRt`       | workflow instances, completion fan-out      |
//! | `core`        | `EngineCore`       | layer composition + the turn loop           |
//!
//! This module keeps the public facade: [`ServingSim`] (builders, `run`,
//! the rate sweeps), its knobs as one [`EngineOptions`] value, and
//! [`CoreMode`]. Behavior is bit-identical to the
//! pre-split monolith on both cores.

mod admission;
mod arrivals;
mod batch;
mod core;
mod dma_retire;
mod kv_state;
mod migrate;
mod replica;
mod workflow_rt;

pub use arrivals::{
    ArrivalDraw, ArrivalProcess, ArrivalSpec, DiurnalArrivals, MmppArrivals, MultiTenantArrivals,
    PoissonArrivals, TenantSpec,
};

use self::replica::Replica;
use super::policy::{LeastLoadedMigration, MigrationPolicy, SchedulerPolicy};
use super::DispatchPolicy;
use super::{
    DisaggregationConfig, ReplicaRole, RequestClass, Scheduling, ServingConfig, ServingReport,
};
use crate::backend::Backend;
use ianus_model::ModelConfig;

/// Which core advances the iteration-level loop. Both cores produce
/// **bit-identical** reports — [`StepScan`](CoreMode::StepScan) is the
/// reference implementation the event-driven core is differential-tested
/// against; it exists for auditability, not for use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreMode {
    /// Heap-indexed next-actionable-time selection: one step costs
    /// O(log replicas), idle replicas cost nothing, and DMA retirement
    /// pops a sorted queue instead of scanning it. The default.
    #[default]
    EventDriven,
    /// The historical linear scan: every step walks all replicas and
    /// `min_by`s the in-flight DMA lists.
    StepScan,
}

/// Total order over engine clocks. Clocks are finite and non-negative,
/// where `total_cmp` agrees with IEEE `<`, so heap order reproduces the
/// scan's comparisons exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}
impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Every engine knob of a [`ServingSim`], as one value. The
/// [`Default`] is what [`ServingSim::new`] starts from; warm engines
/// change a knob in place by writing its field
/// (`sim.options.scheduling = s`), keeping replicas and their memos.
#[derive(Clone)]
pub struct EngineOptions {
    /// Request-level dispatch policy
    /// ([`DispatchPolicy::FcfsSingleQueue`] by default).
    pub dispatch: DispatchPolicy,
    /// Scheduling granularity ([`Scheduling::RequestLevel`] by default).
    pub scheduling: Scheduling,
    /// The iteration-level [`SchedulerPolicy`] bundle; request-level
    /// routing stays with [`dispatch`](Self::dispatch). The default
    /// bundle reproduces the historical hard-wired scheduler
    /// bit-identically, and the device costs do not depend on it, so
    /// sweeping it on one warm engine re-prices nothing.
    pub policy: SchedulerPolicy,
    /// Host-side KV swap pool override: `None` (the default) defers to
    /// each replica's [`Backend::host_kv_bytes`]; `Some(None)` forces an
    /// unbounded pool; `Some(Some(b))` forces a `b`-byte pool on every
    /// replica. The pool bounds how much swapped KV can live host-side
    /// at once; a swap-out that would overflow it falls back to
    /// recompute-based eviction.
    pub host_kv_pool: Option<Option<u64>>,
    /// **Overlapped swap DMA**: each replica gets a DMA-channel clock,
    /// swap transfers run on it concurrently with compute, and the batch
    /// only stalls when it actually needs the data or the memory — a
    /// swap-out frees device KV at DMA *completion* (the iteration waits
    /// if it needs those bytes sooner) and a swap-in's completion gates
    /// the sequence's re-entry into the batch while decode continues
    /// around it. Off by default: transfers serialize with compute on
    /// the replica clock, the historical behavior.
    pub overlap_dma: bool,
    /// Iteration-level **paged-KV** block size in tokens (0, the
    /// default, keeps the legacy contiguous accounting, bit-identically).
    /// Each replica's block budget comes from its backend's
    /// [`Backend::kv_budget_bytes`]; a backend that reports no budget
    /// stays contiguous. Paged mode gates admission and pressure on free
    /// *blocks*, shares full-block prompt prefixes copy-on-write across
    /// requests of the same class (a
    /// [`RequestClass::prefix_tokens`](super::RequestClass) above 0 opts
    /// the class in), and moves only a sequence's *unshared* tokens on
    /// swap or recompute.
    pub kv_block: u64,
    /// Which iteration-level core advances the loop. The default
    /// [`CoreMode::EventDriven`] and the reference
    /// [`CoreMode::StepScan`] produce bit-identical reports; the knob
    /// exists for differential testing and benchmarking the cores
    /// against each other.
    pub core_mode: CoreMode,
    /// **Divergence guard** override: `Some(Some(d))` aborts an
    /// iteration-level run once more than `d` arrived requests are
    /// waiting unadmitted — the run is hopelessly overloaded, and its
    /// report comes back with [`ServingReport::diverged`] set (never
    /// [`stable`](ServingReport::stable)) covering only the simulated
    /// prefix. `Some(None)` disables the guard everywhere, including
    /// inside rate probes.
    ///
    /// With `None` (the default), the guard is off in direct
    /// [`run`](ServingSim::run)s (every configured request completes)
    /// and an automatic bound — generous enough that any run it stops
    /// would have failed the stability predicate anyway — protects
    /// [`sustainable_rate_where`](ServingSim::sustainable_rate_where)
    /// probes from simulating the full horizon of a diverged queue.
    pub divergence_depth: Option<Option<u64>>,
    /// Destination choice for prefill→decode KV migrations
    /// ([`LeastLoadedMigration`] by default). Only consulted when the
    /// cluster has [`ReplicaRole::PrefillOnly`] replicas.
    pub migration: std::sync::Arc<dyn MigrationPolicy + Send + Sync>,
    /// Forces **two-channel DMA** (split H2D/D2H lanes — swap-ins never
    /// queue behind swap-outs; see [`super::dma`]) even in all-`Unified`
    /// clusters. Disaggregated clusters always run split lanes; off by
    /// default otherwise, where both directions share one channel clock
    /// (the historical single-channel model, preserved bit-identically).
    pub two_channel_dma: bool,
    /// **Workflow KV inheritance** (on by default): in paged mode
    /// ([`kv_block`](Self::kv_block)), a completing workflow node
    /// registers its KV under a per-(instance, node) prefix key, and
    /// each child admits with its lowest-index parent's blocks mapped
    /// copy-on-write as a shared prefix — skipping the re-prefill of
    /// context the cluster already holds. Cross-replica admissions miss
    /// and prefill cold (KV does not teleport between replicas). Off,
    /// every node prefills its full effective prompt from scratch — the
    /// control arm for measuring the inheritance win. No effect on flat
    /// (non-workflow) runs or in contiguous mode.
    pub workflow_inheritance: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            dispatch: DispatchPolicy::FcfsSingleQueue,
            scheduling: Scheduling::RequestLevel,
            policy: SchedulerPolicy::default(),
            host_kv_pool: None,
            overlap_dma: false,
            kv_block: 0,
            core_mode: CoreMode::default(),
            divergence_depth: None,
            migration: std::sync::Arc::new(LeastLoadedMigration),
            two_channel_dma: false,
            workflow_inheritance: true,
        }
    }
}

/// Builder-style cluster serving engine over [`Backend`] replicas.
///
/// Construct with a [`ServingConfig`], add one or more replicas, pick a
/// [`DispatchPolicy`] (request-level) or a [`SchedulerPolicy`]
/// (iteration-level), then [`run`](Self::run). The engine owns its
/// replicas; service-time memos survive across runs, so rate sweeps and
/// [`sustainable_rate`](Self::sustainable_rate) searches re-simulate no
/// device.
pub struct ServingSim {
    cfg: ServingConfig,
    /// The engine knobs. Each builder writes one field; writing a field
    /// directly changes a knob on a warm engine, keeping its memos.
    pub options: EngineOptions,
    replicas: Vec<Replica>,
    /// Set while [`sustainable_rate_where`](Self::sustainable_rate_where)
    /// probes rates, enabling the automatic divergence bound.
    probe_divergence: bool,
    /// Per-replica [`ReplicaRole`]s, aligned with `replicas`
    /// (all-`Unified` outside disaggregated runs).
    roles: Vec<ReplicaRole>,
}

impl ServingSim {
    /// Starts a simulation builder with no replicas and the default
    /// [`EngineOptions`].
    pub fn new(cfg: ServingConfig) -> Self {
        ServingSim {
            cfg,
            options: EngineOptions::default(),
            replicas: Vec::new(),
            probe_divergence: false,
            roles: Vec::new(),
        }
    }

    /// Adds one replica backend.
    pub fn replica(self, backend: impl Backend + 'static) -> Self {
        self.boxed_replica(Box::new(backend))
    }

    /// Adds one replica backend with an explicit [`ReplicaRole`]
    /// (iteration-level scheduling only; see the
    /// [module docs](super#disaggregated-prefilldecode)).
    pub fn replica_with_role(self, backend: impl Backend + 'static, role: ReplicaRole) -> Self {
        let mut s = self.boxed_replica(Box::new(backend));
        *s.roles.last_mut().expect("boxed_replica pushed a role") = role;
        s
    }

    /// Adds an already-boxed replica (for heterogeneous `dyn` lists).
    pub fn boxed_replica(mut self, backend: Box<dyn Backend>) -> Self {
        self.replicas.push(Replica::new(backend));
        self.roles.push(ReplicaRole::Unified);
        self
    }

    /// Adds `n` replicas built by `make(index)`.
    pub fn cluster<B: Backend + 'static>(
        mut self,
        n: usize,
        mut make: impl FnMut(usize) -> B,
    ) -> Self {
        for i in 0..n {
            self = self.replica(make(i));
        }
        self
    }

    /// Adds a disaggregated cluster per `cfg`: `cfg.prefill`
    /// [`ReplicaRole::PrefillOnly`] replicas built by `prefill(index)`,
    /// then `cfg.decode` [`ReplicaRole::DecodeOnly`] replicas built by
    /// `decode(index)` (each index counts within its own pool).
    /// Requires iteration-level scheduling at [`run`](Self::run) time.
    pub fn disaggregated<P: Backend + 'static, D: Backend + 'static>(
        mut self,
        cfg: DisaggregationConfig,
        mut prefill: impl FnMut(usize) -> P,
        mut decode: impl FnMut(usize) -> D,
    ) -> Self {
        for i in 0..cfg.prefill {
            self = self.replica_with_role(prefill(i), ReplicaRole::PrefillOnly);
        }
        for i in 0..cfg.decode {
            self = self.replica_with_role(decode(i), ReplicaRole::DecodeOnly);
        }
        self
    }

    /// The per-replica roles, in replica order.
    pub fn roles(&self) -> &[ReplicaRole] {
        &self.roles
    }

    /// Sets [`EngineOptions::migration`].
    pub fn migration(mut self, policy: impl MigrationPolicy + Send + Sync + 'static) -> Self {
        self.options.migration = std::sync::Arc::new(policy);
        self
    }

    /// Sets [`EngineOptions::two_channel_dma`].
    pub fn two_channel_dma(mut self, split: bool) -> Self {
        self.options.two_channel_dma = split;
        self
    }

    /// Sets [`EngineOptions::workflow_inheritance`].
    pub fn workflow_inheritance(mut self, inherit: bool) -> Self {
        self.options.workflow_inheritance = inherit;
        self
    }

    /// Sets [`EngineOptions::dispatch`].
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.options.dispatch = policy;
        self
    }

    /// Sets [`EngineOptions::scheduling`].
    pub fn scheduling(mut self, scheduling: Scheduling) -> Self {
        self.options.scheduling = scheduling;
        self
    }

    /// Sets [`EngineOptions::policy`].
    pub fn policy(mut self, scheduler: SchedulerPolicy) -> Self {
        self.options.policy = scheduler;
        self
    }

    /// Sets [`EngineOptions::host_kv_pool`] to `Some(bytes)`:
    /// `Some(b)` forces a finite `b`-byte pool, `None` an unbounded one.
    pub fn host_kv_pool(mut self, bytes: Option<u64>) -> Self {
        self.options.host_kv_pool = Some(bytes);
        self
    }

    /// Sets [`EngineOptions::overlap_dma`].
    pub fn overlap_dma(mut self, overlap: bool) -> Self {
        self.options.overlap_dma = overlap;
        self
    }

    /// Sets [`EngineOptions::kv_block`].
    pub fn kv_block(mut self, tokens: u64) -> Self {
        self.options.kv_block = tokens;
        self
    }

    /// Sets [`EngineOptions::core_mode`].
    pub fn core_mode(mut self, mode: CoreMode) -> Self {
        self.options.core_mode = mode;
        self
    }

    /// Sets [`EngineOptions::divergence_depth`] to `Some(depth)`:
    /// `Some(d)` aborts past a `d`-request backlog, `None` disables the
    /// guard everywhere.
    pub fn divergence_depth(mut self, depth: Option<u64>) -> Self {
        self.options.divergence_depth = Some(depth);
        self
    }

    /// A deep copy of this engine — replicas (via
    /// [`Backend::clone_box`]), their warm service memos, and its
    /// [`options`](Self::options) — or `None` if any replica's backend
    /// does not support cloning. Clones are what
    /// [`sweep_rates`](Self::sweep_rates) and the parallel
    /// [`sustainable_rate_where`](Self::sustainable_rate_where) hand to
    /// scoped threads; a run on a clone produces exactly the report the
    /// original would (runs depend only on the config and the backends'
    /// deterministic costs, never on memo warmth).
    pub fn try_clone(&self) -> Option<ServingSim> {
        let mut replicas = Vec::with_capacity(self.replicas.len());
        for r in &self.replicas {
            replicas.push(r.try_clone()?);
        }
        Some(ServingSim {
            cfg: self.cfg.clone(),
            options: self.options.clone(),
            replicas,
            probe_divergence: self.probe_divergence,
            roles: self.roles.clone(),
        })
    }

    /// Number of replicas added so far.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The current configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// Changes the arrival rate in place, keeping replicas and their
    /// service memos. This is the canonical rate-sweep entry: the first
    /// [`run`](Self::run) prices every (model, shape/step) the mix
    /// needs on each replica, after which every further rate is a
    /// queueing-only pass (no device simulation), each re-seeding the
    /// same arrival trace *shape* at the new rate.
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_core::serving::{ServingConfig, ServingSim};
    /// use ianus_core::{IanusSystem, SystemConfig};
    /// use ianus_model::ModelConfig;
    ///
    /// let model = ModelConfig::gpt2_m();
    /// let mut sim = ServingSim::new(ServingConfig::interactive(1.0, 150))
    ///     .replica(IanusSystem::new(SystemConfig::ianus()));
    /// let mut last_p99 = 0.0;
    /// for rate in [1.0, 4.0, 16.0] {
    ///     sim.set_rate(rate); // warm memos after the first run
    ///     let r = sim.run(&model);
    ///     assert_eq!(r.completed, 150);
    ///     assert!(r.sojourn.p99.as_ms_f64() >= last_p99);
    ///     last_p99 = r.sojourn.p99.as_ms_f64();
    /// }
    /// assert_eq!(sim.config().arrival_rate_hz, 16.0);
    /// ```
    pub fn set_rate(&mut self, arrival_rate_hz: f64) {
        self.cfg.arrival_rate_hz = arrival_rate_hz;
    }

    /// Checks that `model` is resident on every replica.
    ///
    /// # Errors
    ///
    /// The first replica's [`CapacityError`](crate::capacity::CapacityError),
    /// tagged with its index, if any replica cannot hold the model.
    pub fn fits(&self, model: &ModelConfig) -> Result<(), (usize, crate::capacity::CapacityError)> {
        for (i, r) in self.replicas.iter().enumerate() {
            r.backend.fits(model).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Runs the simulation for `model` and reports cluster statistics.
    ///
    /// Zero configured requests yield an all-zero report rather than a
    /// division by zero.
    ///
    /// # Panics
    ///
    /// Panics if no replicas were added, the mix is empty, a weight is
    /// non-positive, the arrival rate is non-positive, the arrival
    /// spec is invalid, an iteration-level `max_batch` or
    /// `prefill_chunk` is zero, or (iteration-level only) a mix shape
    /// can never be admitted on some replica even with an empty batch.
    pub fn run(&mut self, model: &ModelConfig) -> ServingReport {
        assert!(!self.replicas.is_empty(), "serving cluster has no replicas");
        let workflow_mode = !self.cfg.workflows.is_empty();
        if workflow_mode {
            assert!(
                self.cfg.mix.is_empty(),
                "a config drives either a flat mix or workflows, not both"
            );
            assert!(
                self.cfg.workflows.iter().all(|t| t.weight > 0.0),
                "workflow weights must be positive"
            );
            for (i, t) in self.cfg.workflows.iter().enumerate() {
                if let Err(e) = t.validate() {
                    panic!("workflow template {i} is invalid: {e}");
                }
            }
        } else {
            assert!(!self.cfg.mix.is_empty(), "request mix must be non-empty");
            assert!(
                self.cfg.mix.iter().all(|c| c.weight > 0.0),
                "weights must be positive"
            );
        }
        assert!(
            self.cfg.arrival_rate_hz > 0.0,
            "arrival rate must be positive"
        );
        if let Err(e) = self.cfg.arrivals.validate() {
            panic!("invalid arrival spec: {e}");
        }
        if self.cfg.requests == 0 {
            return ServingReport::empty(
                self.replicas
                    .iter()
                    .zip(&self.roles)
                    .map(|(r, &role)| (r.backend.name().to_string(), role))
                    .collect(),
                &self.effective_mix(),
                self.cfg.arrivals.tenant_count(),
            );
        }
        let stats = match self.options.scheduling {
            Scheduling::RequestLevel => {
                assert!(
                    self.roles.iter().all(|&ro| ro == ReplicaRole::Unified),
                    "replica roles (disaggregation) require iteration-level scheduling"
                );
                assert!(
                    !workflow_mode,
                    "workflow mixes require iteration-level scheduling"
                );
                self.run_request_level(model)
            }
            Scheduling::IterationLevel {
                max_batch,
                prefill_chunk,
                preempt,
            } => {
                assert!(max_batch >= 1, "max_batch must be at least 1");
                assert!(prefill_chunk != Some(0), "prefill chunk must be positive");
                assert!(
                    self.roles.iter().any(|&ro| ro != ReplicaRole::DecodeOnly),
                    "every replica is decode-only: arrivals could never be admitted"
                );
                self.run_iteration_level(model, max_batch, prefill_chunk, preempt)
            }
        };
        stats.into_report(
            &self.effective_mix(),
            self.replicas
                .iter()
                .zip(&self.roles)
                .map(|(r, &role)| (r.backend.name().to_string(), role))
                .collect(),
        )
    }

    /// The request-class list the run's per-class accounting is keyed
    /// by (see [`workflow_rt::effective_mix`]).
    fn effective_mix(&self) -> Vec<RequestClass> {
        workflow_rt::effective_mix(&self.cfg)
    }

    /// Per-template tables the workflow hooks index at runtime.
    fn workflow_ctx(&self) -> workflow_rt::WfCtx {
        workflow_rt::workflow_ctx(&self.cfg)
    }

    /// Runs the simulation once per rate in `rates` and returns the
    /// reports **in the same order** — probing the rates in parallel
    /// (one [`try_clone`](Self::try_clone) per extra rate, on
    /// `std::thread::scope` threads) when every backend supports
    /// cloning, serially on this engine otherwise. Either path yields
    /// identical reports: a run is a pure function of the config and
    /// the backends' deterministic costs. The configured arrival rate
    /// is restored afterwards.
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`run`](Self::run), or if a probe
    /// thread panics.
    pub fn sweep_rates(&mut self, model: &ModelConfig, rates: &[f64]) -> Vec<ServingReport> {
        let original = self.cfg.arrival_rate_hz;
        let reports = self.probe_rates(model, rates);
        self.cfg.arrival_rate_hz = original;
        reports
    }

    /// [`sweep_rates`](Self::sweep_rates) without the rate restore —
    /// the shared probe core under the public sweep and the bisection.
    fn probe_rates(&mut self, model: &ModelConfig, rates: &[f64]) -> Vec<ServingReport> {
        let Some((&first_rate, rest)) = rates.split_first() else {
            return Vec::new();
        };
        let mut clones: Vec<ServingSim> = Vec::with_capacity(rest.len());
        for _ in rest {
            match self.try_clone() {
                Some(c) => clones.push(c),
                None => {
                    // A replica backend cannot clone: probe serially on
                    // this engine. Same reports, just one at a time.
                    let mut out = Vec::with_capacity(rates.len());
                    for &rate in rates {
                        self.cfg.arrival_rate_hz = rate;
                        out.push(self.run(model));
                    }
                    return out;
                }
            }
        }
        let mut out = Vec::with_capacity(rates.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = clones
                .iter_mut()
                .zip(rest)
                .map(|(clone, &rate)| {
                    s.spawn(move || {
                        clone.cfg.arrival_rate_hz = rate;
                        clone.run(model)
                    })
                })
                .collect();
            // The first rate runs on this engine, concurrently with the
            // spawned probes — and leaves its memos warm for later
            // rounds.
            self.cfg.arrival_rate_hz = first_rate;
            out.push(self.run(model));
            for h in handles {
                out.push(h.join().expect("rate-probe thread panicked"));
            }
        });
        out
    }

    /// Binary-searches the highest arrival rate in `[lo_hz, hi_hz]` whose
    /// report satisfies `ok`, to a 1% relative resolution. Returns `0.0`
    /// when even `lo_hz` fails. Service memos make each probe a
    /// queueing-only pass (no device simulation), and the configured
    /// arrival rate is restored afterwards.
    ///
    /// Probes run **speculatively in parallel** when the backends
    /// support [`try_clone`](Self::try_clone): each round simulates the
    /// current midpoint and both possible next midpoints concurrently,
    /// then consults `ok` serially — `ok` sees exactly the reports, in
    /// exactly the order, the serial bisection would show it, so the
    /// returned rate is identical (runs are deterministic, and the
    /// bracket arithmetic is reproduced bit-for-bit). Probes also run
    /// under the automatic divergence guard
    /// ([`EngineOptions::divergence_depth`]): a probe whose
    /// backlog diverges is cut short and counted as failing — which it
    /// would, since [`stable`](ServingReport::stable) rejects diverged
    /// reports — instead of simulating the whole horizon of an
    /// overloaded queue.
    ///
    /// This is the generic form behind
    /// [`sustainable_rate`](Self::sustainable_rate) (stability) and
    /// [`sustainable_goodput_rate`](Self::sustainable_goodput_rate)
    /// (stability + SLO attainment); `ok` must be monotone in spirit —
    /// a criterion that flickers with rate makes bisection meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `lo_hz` or the bracket is non-positive, or on the
    /// conditions of [`run`](Self::run).
    pub fn sustainable_rate_where(
        &mut self,
        model: &ModelConfig,
        lo_hz: f64,
        hi_hz: f64,
        mut ok: impl FnMut(&ServingReport) -> bool,
    ) -> f64 {
        assert!(lo_hz > 0.0 && hi_hz > lo_hz, "need 0 < lo_hz < hi_hz");
        let original = self.cfg.arrival_rate_hz;
        let was_probing = self.probe_divergence;
        self.probe_divergence = true;
        // A diverged probe fails regardless of `ok`: its report covers
        // only a prefix of the horizon, and a backlog past the auto
        // bound is the definition of "hopelessly unstable".
        let mut pass = |report: &ServingReport| !report.diverged && ok(report);
        let mut best = 0.0f64;
        let (mut lo, mut hi) = (lo_hz, hi_hz);
        let ends = self.probe_rates(model, &[lo, hi]);
        if pass(&ends[0]) {
            best = lo;
            if pass(&ends[1]) {
                best = hi;
                lo = hi;
            }
            while hi / lo > 1.01 {
                // The serial step would probe mid = √(lo·hi), then —
                // depending on the verdict — √(mid·hi) or √(lo·mid)
                // next. Simulate all three now, consult `ok` in the
                // serial order on the two the serial search would see.
                let mid = (lo * hi).sqrt();
                let on_fail = (lo * mid).sqrt();
                let on_pass = (mid * hi).sqrt();
                let probes = self.probe_rates(model, &[mid, on_fail, on_pass]);
                let (child, child_report) = if pass(&probes[0]) {
                    best = mid;
                    lo = mid;
                    (on_pass, &probes[2])
                } else {
                    hi = mid;
                    (on_fail, &probes[1])
                };
                if hi / lo > 1.01 {
                    if pass(child_report) {
                        best = child;
                        lo = child;
                    } else {
                        hi = child;
                    }
                }
            }
        }
        self.probe_divergence = was_probing;
        self.cfg.arrival_rate_hz = original;
        best
    }

    /// Binary-searches the highest arrival rate in `[lo_hz, hi_hz]` whose
    /// report is [`stable`](ServingReport::stable), to a 1% relative
    /// resolution. Returns `0.0` when even `lo_hz` is unstable.
    ///
    /// # Panics
    ///
    /// See [`sustainable_rate_where`](Self::sustainable_rate_where).
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_core::serving::{ServingConfig, ServingSim};
    /// use ianus_core::{IanusSystem, SystemConfig};
    /// use ianus_model::ModelConfig;
    ///
    /// let mut sim = ServingSim::new(ServingConfig::interactive(1.0, 150))
    ///     .replica(IanusSystem::new(SystemConfig::ianus()));
    /// let rate = sim.sustainable_rate(&ModelConfig::gpt2_m(), 0.5, 64.0);
    /// assert!(rate > 0.5, "one IANUS device sustains interactive load");
    /// // The probe leaves the configured rate untouched.
    /// assert_eq!(sim.config().arrival_rate_hz, 1.0);
    /// ```
    pub fn sustainable_rate(&mut self, model: &ModelConfig, lo_hz: f64, hi_hz: f64) -> f64 {
        self.sustainable_rate_where(model, lo_hz, hi_hz, |r| r.stable())
    }

    /// Binary-searches the highest arrival rate whose report is both
    /// [`stable`](ServingReport::stable) and meets `min_attainment` of
    /// its SLOs ([`slo_attainment`](ServingReport::slo_attainment) ≥
    /// `min_attainment`) — the **goodput** capacity an SLO-aware
    /// operator provisions for, rather than the bare stability knee.
    /// With no SLOs in the mix this degrades to
    /// [`sustainable_rate`](Self::sustainable_rate) (attainment is
    /// identically 1).
    ///
    /// # Panics
    ///
    /// See [`sustainable_rate_where`](Self::sustainable_rate_where).
    pub fn sustainable_goodput_rate(
        &mut self,
        model: &ModelConfig,
        lo_hz: f64,
        hi_hz: f64,
        min_attainment: f64,
    ) -> f64 {
        self.sustainable_rate_where(model, lo_hz, hi_hz, |r| {
            r.stable() && r.slo_attainment >= min_attainment
        })
    }
}

/// Index of the comparator-minimal element (ties keep the earliest),
/// viewing each element through `view`. `None` on an empty slice.
fn select_min<T, V>(
    items: &[T],
    view: impl Fn(&T) -> V,
    compare: impl Fn(&V, &V) -> std::cmp::Ordering,
) -> Option<usize> {
    let mut best: Option<(usize, V)> = None;
    for (i, item) in items.iter().enumerate() {
        let v = view(item);
        best = match best {
            None => Some((i, v)),
            Some((bi, bv)) => {
                if compare(&v, &bv).is_lt() {
                    Some((i, v))
                } else {
                    Some((bi, bv))
                }
            }
        };
    }
    best.map(|(i, _)| i)
}

fn argmin<T, K: PartialOrd>(items: &[T], key: impl Fn(&T) -> K) -> usize {
    let mut best = 0usize;
    for i in 1..items.len() {
        if key(&items[i]) < key(&items[best]) {
            best = i;
        }
    }
    best
}
