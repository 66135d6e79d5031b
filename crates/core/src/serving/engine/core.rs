//! The engine core: layer composition and the iteration-level turn
//! loop.
//!
//! [`EngineCore`] owns one run's mutable state, split into the layer
//! structs ([`WaitQueue`], [`BatchState`], [`KvLedger`], [`LaneClocks`],
//! [`MigrationState`], [`WorkflowRt`], [`TurnIndex`]) plus the shared
//! scalars, and drives the turn loop: select the next actionable
//! replica (heap-indexed or linear-scan, bit-identically), retire DMA,
//! re-admit swapped work, land migrants, admit arrivals, relieve KV
//! pressure, execute one iteration, advance prefill and decoders, and
//! re-index. Each phase lives in its layer's module as an
//! `impl EngineCore` block; this module only sequences them.

use super::admission::WaitQueue;
use super::batch::BatchState;
use super::dma_retire::LaneClocks;
use super::kv_state::{build_paged_pools, KvLedger};
use super::migrate::MigrationState;
use super::replica::Replica;
use super::workflow_rt::WorkflowRt;
use super::{CoreMode, ServingSim, TimeKey};
use crate::serving::dma::DmaChannels;
use crate::serving::kv::prefix_key;
use crate::serving::policy::{MigrationPolicy, SchedulerPolicy};
use crate::serving::report::RunStats;
use crate::serving::{ReplicaRole, RequestClass};
use ianus_model::ModelConfig;
use ianus_sim::SlotQueue;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// The event-driven next-actionable-time index. A replica is
/// *busy* (actionable at its own clock) while it holds work —
/// resident, swapped, or an inbound transfer; an in-flight
/// swap-out alone does not make it busy (matching the scan's
/// predicate: contiguous re-admission can strand an `outgoing`
/// entry on an otherwise empty replica). Idle replicas are
/// actionable at `max(clock, next pending arrival)`, so they
/// split on which side of that max binds: `idle_ready` holds
/// those with clock ≤ the next arrival (all actionable at the
/// arrival — lowest index wins), `idle_late` those past it
/// (actionable at their own clock). The next pending arrival
/// time only moves later, so `idle_late` entries migrate to
/// `idle_ready` monotonically, and once the queue drains an idle
/// replica can never act again (only a replica's own turn makes
/// it busy), so both sets clear.
pub(super) struct TurnIndex {
    /// Busy replicas keyed by their next boundary time.
    pub(super) busy_q: SlotQueue<TimeKey>,
    /// Idle replicas whose clock has not passed the arrival head.
    pub(super) idle_ready: BTreeSet<usize>,
    /// Idle replicas past the arrival head, keyed by their own clock.
    pub(super) idle_late: BTreeSet<(TimeKey, usize)>,
    /// Workflow mode only: idle non-decode replicas that found the
    /// wait queue empty. They are in no idle set (there is no head
    /// to classify them against) and are woken by the turn whose
    /// completion fan-out refills the queue.
    pub(super) parked: BTreeSet<usize>,
}

/// Which index the selected replica came from (for removal).
enum Src {
    Busy,
    Ready,
    Late,
}

/// One iteration-level run's full mutable state: the layer structs plus
/// the run-wide scalars. Phase methods are `impl EngineCore` blocks in
/// each layer's module; the call contract is documented per method.
pub(super) struct EngineCore<'a> {
    /// The model every replica serves this run.
    pub(super) model: &'a ModelConfig,
    /// The replicas (their memo tables persist across runs).
    pub(super) replicas: &'a mut [Replica],
    /// Per-replica roles (disaggregation).
    pub(super) roles: &'a [ReplicaRole],
    /// The iteration-level policy bundle.
    pub(super) scheduler: &'a SchedulerPolicy,
    /// Migration target selection (disaggregated clusters).
    pub(super) migration: &'a dyn MigrationPolicy,
    /// The run's effective class list: the flat mix, or one synthetic
    /// class per (template, node) under a workflow mix.
    pub(super) mix: Vec<RequestClass>,
    /// Max sequences resident per replica.
    pub(super) max_batch: u32,
    /// Prefill chunk size (`u64::MAX` when chunking is off).
    pub(super) chunk_size: u64,
    /// Whether admission overcommits and KV pressure evicts.
    pub(super) preempt: bool,
    /// Whether swap DMA overlaps compute.
    pub(super) overlap: bool,
    /// Whether the event-driven core is selecting turns.
    pub(super) event_core: bool,
    /// Admission layer: arrivals and the wait queue.
    pub(super) wait: WaitQueue,
    /// Batch layer: resident sequences and compute clocks.
    pub(super) batch: BatchState,
    /// KV layer: paged pools, swapped queues, host-pool ledger.
    pub(super) kv: KvLedger,
    /// DMA layer: lane clocks and in-flight swap deques.
    pub(super) lanes: LaneClocks,
    /// Migration layer: decode pool and inbound deques.
    pub(super) mig: MigrationState,
    /// Workflow runtime: instance state and fan-out tables.
    pub(super) wf: WorkflowRt,
    /// Event-core turn index.
    pub(super) turns: TurnIndex,
    /// The run's raw samples and counters.
    pub(super) stats: RunStats,
    /// Requests (or workflow nodes) settled so far.
    pub(super) done: u64,
    /// Requests (or workflow nodes) the run must settle.
    pub(super) total: u64,
    /// Divergence guard: abort once the arrived-but-unadmitted backlog
    /// exceeds this.
    pub(super) divergence_bound: Option<u64>,
    /// Set when the divergence guard fired (end-of-run invariants are
    /// then legitimately violated).
    pub(super) aborted: bool,
}

impl ServingSim {
    /// Continuous batching: one global wait queue ordered by the
    /// [`AdmissionPolicy`](crate::serving::policy::AdmissionPolicy);
    /// every replica admits at each iteration boundary (KV-gated), then
    /// runs one iteration — at most one prefill chunk (the whole prompt
    /// when chunking is off) plus one decode step over its
    /// fully-prefilled sequences. With `preempt`, admission overcommits
    /// against *current* KV lengths and KV pressure evicts the
    /// [`EvictionPolicy`](crate::serving::policy::EvictionPolicy)'s
    /// victim to a replica-local swap queue ordered by the
    /// [`ReadmissionPolicy`](crate::serving::policy::ReadmissionPolicy).
    pub(super) fn run_iteration_level(
        &mut self,
        model: &ModelConfig,
        max_batch: u32,
        prefill_chunk: Option<u64>,
        preempt: bool,
    ) -> RunStats {
        let chunk_size = prefill_chunk.unwrap_or(u64::MAX);
        let overlap = self.options.overlap_dma;
        let n = self.replicas.len();
        // Effective per-replica host KV pool (`None` = unbounded).
        let pools: Vec<Option<u64>> = self
            .replicas
            .iter()
            .map(|r| {
                self.options
                    .host_kv_pool
                    .unwrap_or_else(|| r.backend.host_kv_bytes())
            })
            .collect();
        let mix = self.effective_mix();
        let wf_mode = !self.cfg.workflows.is_empty();
        // Arrivals ascending by time (and index). The wait queue is the
        // arrived, not-yet-admitted slice: `untaken` holds the pending
        // indices in order, so each boundary walks exactly the pending
        // window — no tombstone skipping, and the first element is the
        // next pending arrival (its time is nondecreasing over the run,
        // which the idle-replica index relies on). Workflow mode
        // appends *child* arrivals mid-run as their parents complete;
        // an append can move the wait-queue head backward in time, so
        // there the idle index is repaired after each fan-out instead
        // of trusting the nondecreasing-head invariant.
        let wf_ctx = self.workflow_ctx();
        let (arrivals, wf_runs, total) = if wf_mode {
            self.generate_workflow_arrivals(&wf_ctx)
        } else {
            (self.generate_arrivals(), Vec::new(), self.cfg.requests)
        };
        // The wait queue, ordered by (time, index). On the initial trace
        // the two orders coincide; workflow children appended mid-run
        // keep the set time-sorted so the head and the admission window
        // stay correct.
        let untaken: BTreeSet<(TimeKey, usize)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| (TimeKey(a.at), i))
            .collect();
        let class_keys: Vec<Option<u64>> = mix
            .iter()
            .enumerate()
            .map(|(i, c)| (c.prefix_tokens > 0).then(|| prefix_key(i, c.prefix_tokens)))
            .collect();
        let paged = build_paged_pools(&self.replicas, self.options.kv_block, model, &mix);
        // Per-replica DMA channel clocks. Disaggregated clusters always
        // run split H2D/D2H lanes (migration traffic must not reorder
        // against swap traffic on one clock); all-`Unified` clusters
        // share one clock per replica unless `two_channel_dma` forces
        // the split — the unsplit arithmetic is bit-identical to the
        // historical single `dma_free` scalar.
        let split_dma =
            self.options.two_channel_dma || self.roles.iter().any(|&ro| ro != ReplicaRole::Unified);
        // Decode pool for prefill→decode migrations (empty outside
        // disaggregated runs — prefill replicas then decode locally).
        let decode_pool: Vec<usize> = (0..n)
            .filter(|&i| self.roles[i] == ReplicaRole::DecodeOnly)
            .collect();
        let stats = RunStats::new(n, mix.len(), total, self.cfg.arrivals.tenant_count());
        let event_core = self.options.core_mode == CoreMode::EventDriven;
        let mut turns = TurnIndex {
            busy_q: SlotQueue::new(n),
            idle_ready: BTreeSet::new(),
            idle_late: BTreeSet::new(),
            parked: BTreeSet::new(),
        };
        if event_core {
            // Decode-only replicas never admit arrivals: they start
            // parked (in no idle set) and are woken by the turn that
            // issues a migration toward them.
            turns
                .idle_ready
                .extend((0..n).filter(|&i| self.roles[i] != ReplicaRole::DecodeOnly));
        }
        // Divergence guard (off unless a bound is configured or this
        // run is a rate probe): abort once the arrived-but-unadmitted
        // backlog exceeds the bound.
        let divergence_bound: Option<u64> = match self.options.divergence_depth {
            Some(depth) => depth,
            None => self
                .probe_divergence
                .then(|| 1024u64.max(32 * u64::from(max_batch) * n as u64)),
        };
        let core = EngineCore {
            model,
            replicas: &mut self.replicas,
            roles: &self.roles,
            scheduler: &self.options.policy,
            migration: &*self.options.migration,
            mix,
            max_batch,
            chunk_size,
            preempt,
            overlap,
            event_core,
            wait: WaitQueue {
                arrivals,
                untaken,
                arrived: 0,
                admitted: 0,
            },
            batch: BatchState {
                batches: vec![Vec::new(); n],
                clock: vec![0.0f64; n],
                iter_sum: vec![0.0f64; n],
                iter_n: vec![0u64; n],
            },
            kv: KvLedger {
                paged,
                swapped: vec![Vec::new(); n],
                host_used: vec![0u64; n],
                pools,
                class_keys,
                swap_count: 0,
            },
            lanes: LaneClocks {
                dma: (0..n).map(|_| DmaChannels::new(split_dma)).collect(),
                outgoing: vec![VecDeque::new(); n],
                incoming: vec![VecDeque::new(); n],
            },
            mig: MigrationState {
                decode_pool,
                migrating: vec![VecDeque::new(); n],
            },
            wf: WorkflowRt {
                ctx: wf_ctx,
                runs: wf_runs,
                key_homes: HashMap::new(),
                inheritance: self.options.workflow_inheritance,
                mode: wf_mode,
            },
            turns,
            stats,
            done: 0,
            total,
            divergence_bound,
            aborted: false,
        };
        core.run()
    }
}

impl EngineCore<'_> {
    /// The turn loop: pick the next actionable replica, run its turn
    /// body (each phase a layer call, in the fixed order the monolith
    /// executed inline), re-index, repeat until every request settles
    /// or the divergence guard aborts.
    pub(super) fn run(mut self) -> RunStats {
        while self.done < self.total {
            // Whether a workflow completion appended arrivals this turn
            // (the event core must then repair its idle sets against
            // the possibly-earlier wait-queue head).
            let mut wf_pushed = false;
            let Some((r, at)) = self.select_turn() else {
                // Divergence guard fired.
                break;
            };
            self.batch.clock[r] = at;
            // The turn body, in a labeled block so the event-index
            // reclassification below always runs (the empty-batch
            // branch breaks out early where the scan core `continue`d).
            'body: {
                self.retire_dma(r);
                self.readmit_swapped(r);
                self.admit_migrants(r);
                self.admit_arrivals(r);
                if self.batch.batches[r].is_empty() {
                    self.idle_wait_for_dma(r);
                    break 'body;
                }
                let chunk_target = self.chunk_target(r);
                if self.preempt {
                    self.relieve_pressure(r, chunk_target);
                }
                let (chunk, now) = self.execute_iteration(r, chunk_target);
                wf_pushed |= self.advance_prefill(r, chunk, now);
                wf_pushed |= self.advance_decoders(r, now);
            }
            self.reindex(r, wf_pushed);
        }
        self.finish()
    }

    /// The next actionable replica: the earliest iteration boundary
    /// among replicas that hold work (resident, swapped or in-flight)
    /// or could admit the earliest pending arrival (idle replicas
    /// fast-forward to it). Ties break to the lowest replica index in
    /// both cores. Also advances the divergence guard; returns `None`
    /// when it fires (the run aborts).
    fn select_turn(&mut self) -> Option<(usize, f64)> {
        let event_core = self.event_core;
        let head_at = self.wait.untaken.first().map(|&(t, _)| t.0);
        let (r, at, src) = if event_core {
            let mut next: Option<(f64, usize, Src)> = None;
            if let Some((TimeKey(t), slot)) = self.turns.busy_q.peek() {
                next = Some((t, slot, Src::Busy));
            }
            if let Some(h) = head_at {
                if let Some(&i) = self.turns.idle_ready.first() {
                    if next
                        .as_ref()
                        .is_none_or(|&(t, s, _)| h < t || (h == t && i < s))
                    {
                        next = Some((h, i, Src::Ready));
                    }
                }
                if let Some(&(TimeKey(t), i)) = self.turns.idle_late.first() {
                    if next
                        .as_ref()
                        .is_none_or(|&(nt, ns, _)| t < nt || (t == nt && i < ns))
                    {
                        next = Some((t, i, Src::Late));
                    }
                }
            }
            let Some((at, r, src)) = next else {
                unreachable!("requests outstanding but no replica actionable")
            };
            (r, at, src)
        } else {
            let mut next: Option<(usize, f64)> = None;
            for (r, batch) in self.batch.batches.iter().enumerate() {
                let at = if !batch.is_empty()
                    || !self.kv.swapped[r].is_empty()
                    || !self.lanes.incoming[r].is_empty()
                    || !self.mig.migrating[r].is_empty()
                {
                    self.batch.clock[r]
                } else if self.roles[r] == ReplicaRole::DecodeOnly {
                    // Empty decode-only replica: nothing to do until
                    // a migration arrives (arrivals never route here).
                    continue;
                } else if let Some(h) = head_at {
                    self.batch.clock[r].max(h)
                } else {
                    continue;
                };
                if next.is_none_or(|(_, best)| at < best) {
                    next = Some((r, at));
                }
            }
            let Some((r, at)) = next else {
                unreachable!("requests outstanding but no replica actionable")
            };
            (r, at, Src::Busy)
        };
        if event_core {
            match src {
                Src::Busy => {
                    self.turns.busy_q.pop();
                }
                Src::Ready => {
                    self.turns.idle_ready.remove(&r);
                }
                Src::Late => {
                    self.turns.idle_late.remove(&(TimeKey(at), r));
                }
            }
        }
        // Divergence guard: `arrived` advances monotonically with the
        // selected event time (which never decreases); `admitted`
        // counts admissions, which can transiently outpace `arrived`
        // because a replica's clock moves past the event time within
        // its turn — hence the saturating difference.
        if let Some(bound) = self.divergence_bound {
            while self.wait.arrived < self.wait.arrivals.len()
                && self.wait.arrivals[self.wait.arrived].at <= at
            {
                self.wait.arrived += 1;
            }
            if (self.wait.arrived as u64).saturating_sub(self.wait.admitted) > bound {
                self.stats.diverged = true;
                self.aborted = true;
                return None;
            }
        }
        Some((r, at))
    }

    /// Re-index replica `r` for its next turn. A replica holding
    /// work (resident, swapped, or an in-flight swap-in) is busy
    /// at its own clock; one holding at most background swap-outs
    /// is idle — actionable at the pending-arrival head if its
    /// clock has not passed it, at its own clock otherwise. With
    /// no arrivals left an idle replica can never act again, so
    /// the idle sets empty out. A no-op under the scan core.
    fn reindex(&mut self, r: usize, wf_pushed: bool) {
        if !self.event_core {
            return;
        }
        let turns = &mut self.turns;
        let batch = &self.batch;
        let untaken = &self.wait.untaken;
        if untaken.is_empty() && !self.wf.mode {
            // With no arrivals left an idle replica can never
            // act again. (Workflow mode keeps the sets: a
            // running node's completion can refill the queue,
            // and selection already ignores idle replicas
            // while it is empty.)
            turns.idle_ready.clear();
            turns.idle_late.clear();
        }
        let busy = !batch.batches[r].is_empty()
            || !self.kv.swapped[r].is_empty()
            || !self.lanes.incoming[r].is_empty()
            || !self.mig.migrating[r].is_empty();
        if busy {
            turns.busy_q.schedule(r, TimeKey(batch.clock[r]));
        } else if self.roles[r] == ReplicaRole::DecodeOnly {
            // Parked: arrivals never route here, so the replica
            // next acts when a migration push wakes it.
        } else if let Some(&(t, _)) = untaken.first() {
            if batch.clock[r] <= t.0 {
                turns.idle_ready.insert(r);
            } else {
                turns.idle_late.insert((TimeKey(batch.clock[r]), r));
            }
        } else if self.wf.mode {
            // Queue empty but running nodes may still release
            // children: park until a fan-out turn wakes us.
            turns.parked.insert(r);
        }
        if wf_pushed {
            // A completion fan-out appended arrivals at `now`,
            // which can move the wait-queue head *backward*
            // (`now` precedes leftover root arrivals). Wake
            // every parked replica against the new head, and
            // demote ready replicas whose clock now exceeds it
            // — they act at their own clock, not the head's.
            let h = untaken
                .first()
                .map(|&(t, _)| t.0)
                .expect("fan-out left the wait queue non-empty");
            for pr in std::mem::take(&mut turns.parked) {
                if batch.clock[pr] <= h {
                    turns.idle_ready.insert(pr);
                } else {
                    turns.idle_late.insert((TimeKey(batch.clock[pr]), pr));
                }
            }
            let demote: Vec<usize> = turns
                .idle_ready
                .iter()
                .copied()
                .filter(|&ir| batch.clock[ir] > h)
                .collect();
            for ir in demote {
                turns.idle_ready.remove(&ir);
                turns.idle_late.insert((TimeKey(batch.clock[ir]), ir));
            }
        }
        // The arrival head is nondecreasing between fan-outs
        // (admissions only remove from `untaken`), so replicas
        // that fell behind it migrate from late to ready
        // monotonically.
        if let Some(&(t, _)) = untaken.first() {
            let h = t.0;
            while let Some(&(t, late_r)) = turns.idle_late.first() {
                if t.0 <= h {
                    turns.idle_late.pop_first();
                    turns.idle_ready.insert(late_r);
                } else {
                    break;
                }
            }
        }
    }

    /// End-of-run invariants and the raw samples. Every swap-out must
    /// have been paired with a swap-in (and every recompute drop with a
    /// re-prefill): nothing may end the run swapped, in flight, or
    /// holding host-pool bytes. A divergence abort leaves all of that
    /// legitimately in flight, so the invariants only hold on completed
    /// runs.
    fn finish(mut self) -> RunStats {
        if !self.aborted {
            debug_assert!(self.kv.swapped.iter().all(Vec::is_empty));
            debug_assert!(self.lanes.incoming.iter().all(VecDeque::is_empty));
            debug_assert!(self.mig.migrating.iter().all(VecDeque::is_empty));
            debug_assert!(self.kv.host_used.iter().all(|&b| b == 0));
            // Block conservation: with every sequence completed and the
            // caches flushed, every block must be back on the free
            // list.
            for p in self.kv.paged.iter_mut().flatten() {
                p.finish();
            }
        }
        self.stats
    }
}
