//! The associative-search service: submission, dispatch, writes, drain.
//!
//! ```text
//!  clients ──submit──▶ [admission] ──▶ [queue 0] ──▶ dispatcher 0 ─┐
//!                          │shed       [queue 1] ──▶ dispatcher 1 ─┤ work-
//!                          ▼              ⋮               ⋮        │ stealing
//!                      Overloaded      [queue n] ──▶ dispatcher n ─┘
//!                                                         │
//!                                 writes → LiveTable::apply (epoch bump)
//!                                                         │
//!                                     capture SnapView ───┤
//!                                                         │
//!                            deadline shed ◀──────────────┤
//!                                                         │
//!         bit-parallel kernels over the view, shard by shard,
//!                  inline on the dispatcher thread ───────┤
//!                                                         │
//!                            merge + energy/latency attribution
//!                                                         │
//!      sampled audit replay (reference walk, same view) ◀─┤
//!                                                         │
//!                                              tickets resolve ◀┘
//! ```
//!
//! Dispatch is **per-shard**: one bounded queue and one dispatcher
//! thread per shard. Pinned (key-routed) queries and row-addressed
//! writes land on their shard's queue; fan-out queries round-robin.
//! A dispatcher whose own queue is empty **steals** a batch from its
//! peers' queues, so a hot shard's backlog spreads over the whole pool.
//! With every queue empty it does not poll: it **snoozes** (a few
//! rounds of `spin_loop`, then a few `yield_now`, rescanning between
//! rounds), then **announces** in its [`Sleepers`] bit that it is going
//! to sleep, **re-checks** the queues and the drain gate after an SC
//! fence, and only then **parks**. Every successful submit ends with a
//! **wake-on-push**: an SC fence and one load of the sleep bits, then an
//! unpark of the queue's owner if it is asleep, else of one parked
//! peer, which steals. The drain wakes every dispatcher, and the first
//! to see the gate quiescent wakes the rest as it leaves. A
//! dispatcher pulls up to `max_batch` requests, applies the batch's
//! writes through [`crate::shard::LiveTable`] (publishing one fresh
//! epoch per touched shard), then captures a [`crate::shard::SnapView`]
//! and executes every search of the batch against that immutable view
//! — a search can observe the table before or after any write, never a
//! torn word. The dispatcher runs the batch itself, one shard after
//! another: there is no worker pool and no thread is spawned per
//! batch. Writes are priced by the calibrated 3-step program
//! ([`ferrotcam::RowWriteMetrics`]); searches charge their modelled
//! bank wait (from `arch::sched`) and silicon energy (from the
//! attached `core::fom` metrics).
//!
//! With a [`ServiceConfig::deadline`] configured, queries whose
//! submit-to-dispatch wait already exceeds it are **shed at dispatch**
//! instead of executed: their tickets resolve to `None` and the drop is
//! counted per kind in [`ServiceMetrics::shed_deadline`]. Writes are
//! never deadline-shed — an accepted mutation must land.
//!
//! Answered queries pass through a **sampled audit lane**: a
//! deterministic 1-in-`audit_period` subset (SplitMix64 over a
//! per-dispatcher accept counter, so the sample is reproducible and
//! ungameable by arrival order) is replayed through the reference walk
//! behind [`crate::backend::reference_search`], given the service's
//! sense model, *against the same captured view* the kernels answered
//! from — exact under concurrent writes by construction.
//! Match sets must be bit-identical and energies must agree within
//! `audit_tolerance`; divergences are counted in [`ServiceMetrics`] and
//! emitted as typed `spice::trace` audit events.
//!
//! Shutdown is a *drain*: new submissions are refused with
//! [`Overloaded::ShuttingDown`] while every request already accepted
//! is still executed and answered. The accept counter and the drain
//! flag share one atomic word, so a request is either atomically
//! accepted before the drain (and will be answered) or refused — no
//! request can fall between.

use crate::admission::{Admission, Overloaded, RatePolicy, TenantId};
use crate::backend::{self, audit_compare, reference_answer, BackendKind, BatchSpec, ExecResult};
use crate::drain::DrainGate;
use crate::metrics::{MetricsCollector, ResponseSample, ServiceMetrics};
use crate::park::Sleepers;
use crate::queue::BoundedQueue;
use crate::request::{AdmissionClass, RequestKind};
use crate::shard::{hash_packed, LiveTable, ShardedTcam, SnapView, WriteAck, WriteOp};
use crate::sync::{self, AtomicUsize, Ordering};
use ferrotcam::{program_duration, ApproxHit, PackedQuery, SearchOutcome, SenseModel, TernaryWord};
use ferrotcam_spice::trace::{self, TraceLevel};
use rand::split_mix64;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total bounded submission capacity (the backpressure horizon),
    /// split evenly across the per-shard rings — so the aggregate
    /// buffering, and with it the worst-case queue wait, does not grow
    /// with the shard count. Each ring gets at least 2 slots.
    pub queue_capacity: usize,
    /// Most queries the dispatcher coalesces into one batch; 0 means
    /// [`DEFAULT_MAX_BATCH`].
    pub max_batch: usize,
    /// Rate policy for tenants without an explicit one (exact traffic).
    pub default_policy: RatePolicy,
    /// Rate policy for a tenant's *approximate* traffic (threshold /
    /// top-k / range) when no explicit class policy was installed.
    /// Approximate queries drive every row fully in parallel — no
    /// early termination — so they budget separately by default.
    pub approx_policy: RatePolicy,
    /// Rate policy for a tenant's *write* traffic (insert / delete /
    /// update) when no explicit class policy was installed, so a
    /// bulk-load cannot starve the search path.
    pub write_policy: RatePolicy,
    /// Queries whose submit-to-dispatch wait already exceeds this are
    /// shed at dispatch (their SLO has expired; answering late helps
    /// nobody and steals bank time from queries that can still make
    /// it). `None` disables shedding; writes are never deadline-shed.
    pub deadline: Option<Duration>,
    /// Override for the modelled per-bank busy time (s); defaults to
    /// the attached metrics' two-step latency, else 1 ns.
    pub t_bank: Option<f64>,
    /// Kept only so the `perfbench` harness, which sets it, still
    /// compiles: it has one value and is never read.
    pub backend: BackendKind,
    /// Audit lane sampling period: on average one in `audit_period`
    /// accepted queries is replayed through the reference walk. 0
    /// disables the lane.
    pub audit_period: u64,
    /// Relative energy-agreement bound the audit lane enforces.
    pub audit_tolerance: f64,
    /// Seed of the deterministic audit sampler.
    pub audit_seed: u64,
}

/// The batch cap [`ServiceConfig::max_batch`] `= 0` stands for: deep
/// enough that the kernels' per-query cost, not dispatch overhead, sets
/// the rate under load.
pub const DEFAULT_MAX_BATCH: usize = 1024;

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 64,
            default_policy: RatePolicy::unlimited(),
            approx_policy: RatePolicy::unlimited(),
            write_policy: RatePolicy::unlimited(),
            deadline: None,
            t_bank: None,
            backend: BackendKind::Behavioural,
            audit_period: 10_000,
            audit_tolerance: 1e-9,
            audit_seed: 0xfe77_0ca3_a0d1_7001,
        }
    }
}

/// A resolved request. For write kinds, `matches` carries the affected
/// global row (the assigned slot for an insert, the addressed row for
/// an applied update/delete) and is empty when the addressed row was
/// out of range; the search counters are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// What this response answers.
    pub kind: RequestKind,
    /// Matching rows as global slot ids, ascending.
    pub matches: Vec<usize>,
    /// Ranked `(distance, row)` hits for threshold and top-k requests,
    /// best-first with ties toward the lowest row; empty otherwise.
    pub hits: Vec<ApproxHit>,
    /// Rows early-terminated after step 1.
    pub step1_misses: usize,
    /// Rows that survived step 1 but missed in step 2.
    pub step2_misses: usize,
    /// Rows scanned to answer this query.
    pub rows_searched: usize,
    /// Silicon energy this query burned (J); `None` without metrics.
    pub energy_j: Option<f64>,
    /// Modelled silicon latency: bank wait + bank busy time (s).
    pub model_latency_s: f64,
    /// Wall-clock submit→response latency (ns).
    pub wall_latency_ns: u64,
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<SearchResponse>,
}

impl Ticket {
    /// Block until the request resolves. `None` means the query was
    /// deadline-shed at dispatch ([`ServiceConfig::deadline`]) — the
    /// request was accepted and accounted, but its SLO expired before a
    /// dispatcher reached it, so no answer was computed. Every accepted
    /// request resolves one way or the other, even across a drain.
    #[must_use]
    pub fn wait(self) -> Option<SearchResponse> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll.
    #[must_use]
    pub fn try_wait(&self) -> Option<SearchResponse> {
        self.rx.try_recv().ok()
    }
}

/// One accepted request travelling through the queue. `tx: None` is a
/// fire-and-forget submission: the search still runs and is accounted,
/// but no response object is built or delivered (open-loop load).
#[derive(Debug)]
struct Job {
    query: PackedQuery,
    kind: RequestKind,
    /// Write kinds carry their row payload here (insert/update word);
    /// searches carry `None`.
    word: Option<TernaryWord>,
    shard: Option<usize>,
    enqueued: Instant,
    tx: Option<mpsc::Sender<SearchResponse>>,
}

/// Shared state between clients and the dispatchers.
#[derive(Debug)]
struct Inner {
    table: LiveTable,
    /// One bounded queue per shard: pinned queries and row-addressed
    /// writes land on their shard's queue, fan-out queries round-robin.
    /// Any dispatcher may drain any queue (work stealing), which the
    /// MPMC queue is built for.
    queues: Vec<BoundedQueue<Job>>,
    /// Round-robin cursor spreading fan-out queries over the queues.
    /// Pure load-balancing state — no ordering is derived from it.
    route_counter: AtomicUsize,
    admission: Admission,
    metrics: MetricsCollector,
    /// Drain flag + accepted/completed request accounting, global
    /// across every queue and dispatcher.
    gate: DrainGate,
    /// Which dispatchers are parked; submitters wake them on push.
    sleepers: Sleepers,
    max_batch: usize,
    t_bank: f64,
    /// Queries older than this at dispatch are shed unanswered.
    deadline: Option<Duration>,
    /// Circuit-grounded sense-time model (from the attached metrics'
    /// one-step latency): feeds the batch planner's per-kind cost and
    /// the audit lane's sense-classified threshold reference.
    sense: Option<SenseModel>,
    audit_period: u64,
    audit_tolerance: f64,
    audit_seed: u64,
}

impl Inner {
    /// Total backlog across every per-shard queue.
    fn queue_depth(&self) -> usize {
        self.queues.iter().map(BoundedQueue::len).sum()
    }
}

/// Cloneable client handle: submit requests, read metrics.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    inner: Arc<Inner>,
}

impl ServiceClient {
    /// Submit a search of any kind over a packed query: exact match,
    /// Hamming [`RequestKind::Threshold`] / [`RequestKind::TopK`]
    /// search, or multi-bit [`RequestKind::Range`] match (the query
    /// then carries one 2-digit level per cell, built with
    /// [`ferrotcam::levels_to_query`]). `shard: None` fans the query out
    /// over every bank and merges; `Some(s)` pins it to bank `s` — for a
    /// key-partitioned table, the shard [`Self::route_packed`] names.
    ///
    /// # Errors
    /// Typed [`Overloaded`] sheds: draining, tenant throttled, or the
    /// bounded queue is full. Sheds are counted in the metrics.
    /// Approximate kinds are admitted against the tenant's *approx*
    /// token bucket.
    ///
    /// # Panics
    /// Panics on query-width mismatch, out-of-range shard, or a range
    /// request against an odd-width table (programmer errors,
    /// consistent with the core layer).
    pub fn submit_kind(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        kind: RequestKind,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(tenant, query, kind, None, shard, Some(tx))?;
        Ok(Ticket { rx })
    }

    /// Fire-and-forget [`Self::submit_kind`]: the query runs and is
    /// fully accounted in metrics and the audit lane, but no response
    /// is delivered. This is the open-loop load-generation path — it
    /// skips the per-request channel entirely.
    ///
    /// # Errors
    /// Same sheds as [`Self::submit_kind`].
    ///
    /// # Panics
    /// Same programmer errors as [`Self::submit_kind`].
    pub fn submit_noreply_kind(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        kind: RequestKind,
        shard: Option<usize>,
    ) -> Result<(), Overloaded> {
        self.enqueue(tenant, query, kind, None, shard, None)
    }

    /// Program `word` into a fresh row of the least-loaded shard. The
    /// response's `matches` carries the assigned global slot id.
    ///
    /// # Errors
    /// Same sheds as [`Self::submit_kind`]; writes are admitted against
    /// the tenant's *write* token bucket.
    ///
    /// # Panics
    /// Panics on a word-width mismatch.
    pub fn submit_insert(&self, tenant: TenantId, word: TernaryWord) -> Result<Ticket, Overloaded> {
        self.submit_write(tenant, RequestKind::Insert, Some(word), None)
    }

    /// Re-program global row `row` with `word`. The response's
    /// `matches` echoes the row when applied and is empty when the row
    /// was out of range.
    ///
    /// # Errors
    /// Same sheds as [`Self::submit_insert`].
    ///
    /// # Panics
    /// Panics on a word-width mismatch.
    pub fn submit_update(
        &self,
        tenant: TenantId,
        row: usize,
        word: TernaryWord,
    ) -> Result<Ticket, Overloaded> {
        self.submit_write(tenant, RequestKind::Update { row }, Some(word), Some(row))
    }

    /// Retire global row `row` (slot-reuse delete: the shard's last
    /// local row moves into the freed slot, so *that* row's global id
    /// changes). The response's `matches` echoes the row when applied
    /// and is empty when it was out of range.
    ///
    /// # Errors
    /// Same sheds as [`Self::submit_insert`].
    pub fn submit_delete(&self, tenant: TenantId, row: usize) -> Result<Ticket, Overloaded> {
        self.submit_write(tenant, RequestKind::Delete { row }, None, Some(row))
    }

    /// Shared write-submission path: row-addressed writes queue on
    /// their row's shard (dispatch affinity — any dispatcher may still
    /// steal them), inserts round-robin like fan-out queries.
    fn submit_write(
        &self,
        tenant: TenantId,
        kind: RequestKind,
        word: Option<TernaryWord>,
        row: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        let shard = row.map(|r| r % self.inner.table.shard_count());
        let (tx, rx) = mpsc::channel();
        self.enqueue(
            tenant,
            PackedQuery::from_bits(&[]),
            kind,
            word,
            shard,
            Some(tx),
        )?;
        Ok(Ticket { rx })
    }

    fn enqueue(
        &self,
        tenant: TenantId,
        query: PackedQuery,
        kind: RequestKind,
        word: Option<TernaryWord>,
        shard: Option<usize>,
        tx: Option<mpsc::Sender<SearchResponse>>,
    ) -> Result<(), Overloaded> {
        let inner = &*self.inner;
        if kind.is_write() {
            if let Some(w) = &word {
                assert_eq!(w.len(), inner.table.width(), "word width mismatch");
            }
        } else {
            assert_eq!(query.width(), inner.table.width(), "query width mismatch");
        }
        if let Some(s) = shard {
            assert!(s < inner.table.shard_count(), "shard {s} out of range");
        }
        if kind == RequestKind::Range {
            assert!(
                inner.table.width().is_multiple_of(2),
                "range queries need an even word width"
            );
        }
        let now = Instant::now();
        if let Err(e) = inner.admission.admit(tenant, kind.class(), now) {
            inner.metrics.on_shed(e, kind);
            return Err(e);
        }
        // Accept atomically against the drain flag: either this bumps
        // the accepted count before the drain begins (a dispatcher
        // will then wait for it) or the service is already draining.
        if !inner.gate.try_accept() {
            inner.metrics.on_shed(Overloaded::ShuttingDown, kind);
            return Err(Overloaded::ShuttingDown);
        }
        // Pinned work queues on its shard's dispatcher; fan-out work
        // round-robins so no single dispatcher owns the merge load.
        let qi = shard.unwrap_or_else(|| {
            inner.route_counter.fetch_add(1, Ordering::Relaxed) // ordering: route-relaxed
                % inner.queues.len()
        });
        let job = Job {
            query,
            kind,
            word,
            shard,
            enqueued: now,
            tx,
        };
        if inner.queues[qi].push(job).is_err() {
            // Give the acceptance back before reporting the shed. During
            // a drain the retraction can be what makes the gate
            // quiescent, after every dispatcher re-checked and parked:
            // wake them to see it.
            inner.gate.retract();
            if inner.gate.is_draining() {
                inner.sleepers.wake_all();
            }
            inner.metrics.on_shed(Overloaded::QueueFull, kind);
            return Err(Overloaded::QueueFull);
        }
        inner.metrics.on_submit(inner.queues[qi].len());
        inner.sleepers.wake_for(qi);
        Ok(())
    }

    /// The shard a key-partitioned packed query routes to.
    #[must_use]
    pub fn route_packed(&self, query: &PackedQuery) -> usize {
        self.inner.table.route_packed(query)
    }

    /// Served word width in digits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.inner.table.width()
    }

    /// Number of shards (and dispatchers).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.table.shard_count()
    }

    /// Install a per-tenant rate policy for *exact* traffic.
    pub fn set_policy(&self, tenant: TenantId, policy: RatePolicy) {
        self.inner.admission.set_policy(tenant, policy);
    }

    /// Install a per-tenant rate policy for one admission class
    /// (exact vs approximate traffic budget independently).
    pub fn set_class_policy(&self, tenant: TenantId, class: AdmissionClass, policy: RatePolicy) {
        self.inner.admission.set_class_policy(tenant, class, policy);
    }

    /// Snapshot the service metrics.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics.snapshot(self.inner.queue_depth())
    }

    /// A consistent point-in-time view of the served table (shape,
    /// rows, attached metrics, per-shard epochs). The view is immutable
    /// — later writes publish new snapshots and never touch it.
    #[must_use]
    pub fn table(&self) -> SnapView {
        self.inner.table.snapshot()
    }
}

/// The running service: owns one dispatcher thread per shard.
#[derive(Debug)]
pub struct TcamService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl TcamService {
    /// Start serving `table` under `config`; converts the table into
    /// its live (write-accepting) form and spawns one dispatcher per
    /// shard. Attach [`ferrotcam::RowWriteMetrics`] to the table first
    /// (via [`ShardedTcam::attach_write_metrics`]) to have writes
    /// priced by the calibrated 3-step program.
    ///
    /// # Panics
    /// Panics if the table has more than [`crate::park::MAX_SLEEPERS`]
    /// shards, or if a dispatcher thread cannot be spawned.
    #[must_use]
    pub fn start(table: ShardedTcam, config: &ServiceConfig) -> Self {
        let t_bank = config
            .t_bank
            .or_else(|| table.model_latency())
            .unwrap_or(1e-9);
        let max_batch = if config.max_batch == 0 {
            DEFAULT_MAX_BATCH
        } else {
            config.max_batch
        };
        let sense = table
            .metrics()
            .map(|m| SenseModel::analytic(m.latency_1step));
        let shards = table.shard_count();
        let inner = Arc::new(Inner {
            table: LiveTable::from_sharded(&table),
            queues: (0..shards)
                .map(|_| BoundedQueue::new((config.queue_capacity / shards).max(2)))
                .collect(),
            route_counter: AtomicUsize::new(0),
            admission: Admission::new(
                config.default_policy,
                config.approx_policy,
                config.write_policy,
            ),
            metrics: MetricsCollector::with_dispatchers(shards),
            gate: DrainGate::new(),
            sleepers: Sleepers::new(shards),
            max_batch,
            t_bank,
            deadline: config.deadline,
            sense,
            audit_period: config.audit_period,
            audit_tolerance: config.audit_tolerance,
            audit_seed: config.audit_seed,
        });
        let workers = (0..shards)
            .map(|me| {
                let worker_inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ferrotcam-serve-{me}"))
                    .spawn(move || dispatch_loop(&worker_inner, me))
                    .expect("spawn dispatcher")
            })
            .collect();
        Self { inner, workers }
    }

    /// A cloneable client handle.
    #[must_use]
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Snapshot the service metrics.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics.snapshot(self.inner.queue_depth())
    }

    /// Graceful shutdown: refuse new work, answer everything already
    /// accepted, stop every dispatcher, and return the final metrics.
    #[must_use]
    pub fn drain(mut self) -> ServiceMetrics {
        self.begin_drain_and_join();
        self.inner.metrics.snapshot(self.inner.queue_depth())
    }

    fn begin_drain_and_join(&mut self) {
        self.inner.gate.begin_drain();
        // Parked dispatchers must wake to see the drain and exit.
        self.inner.sleepers.wake_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for TcamService {
    fn drop(&mut self) {
        self.begin_drain_and_join();
    }
}

/// Idle rounds a dispatcher spins (2^round `spin_loop` hints each)
/// before it starts yielding.
const SPIN_ROUNDS: u32 = 6;
/// Idle rounds a dispatcher yields its core after spinning, before it
/// parks. The spins and yields catch back-to-back arrivals without a
/// futex wake-up on either side; parking on the first empty scan made
/// the 4-shard closed loop slower than the 2-shard one.
const YIELD_ROUNDS: u32 = 4;

/// Dispatcher `me`'s main loop: drain the own queue first; when it is
/// empty, steal a batch from a peer's queue (cyclic scan starting at
/// the next shard, so thieves spread instead of convoying); execute;
/// exit only when draining and every accepted request has resolved.
/// With nothing to do it snoozes, then parks until a submitter, the
/// drain or an exiting peer wakes it ([`Sleepers`]).
fn dispatch_loop(inner: &Inner, me: usize) {
    inner.sleepers.register(me);
    // The audit sampler's per-dispatcher monotone counter: advancing it
    // per answered query makes the 1-in-`period` sample
    // deterministic for a given seed, independent of batching and of
    // which queue the job was stolen from.
    let mut audit_counter: u64 = 0;
    // One batch buffer for the dispatcher's lifetime: `execute_batch`
    // drains it in place, so the hot loop allocates nothing per
    // iteration (the analyzer's hot-path-alloc rule keeps it that way).
    let mut batch: Vec<Job> = Vec::with_capacity(inner.max_batch);
    let n = inner.queues.len();
    let mut idle_rounds = 0u32;
    loop {
        inner.queues[me].drain_into(&mut batch, inner.max_batch);
        let mut stolen = false;
        if batch.is_empty() {
            // Work stealing: take a whole batch from the first
            // non-empty peer. The queue is MPMC, so concurrent thieves
            // are safe; at worst two dispatchers split one backlog.
            for off in 1..n {
                inner.queues[(me + off) % n].drain_into(&mut batch, inner.max_batch);
                if !batch.is_empty() {
                    stolen = true;
                    break;
                }
            }
        }
        if !batch.is_empty() {
            idle_rounds = 0;
            inner.metrics.on_dispatch(me, stolen);
            execute_batch(inner, me, &mut batch, &mut audit_counter);
            continue;
        }
        if inner.gate.quiescent() && inner.queues.iter().all(BoundedQueue::is_empty) {
            break;
        }
        if idle_rounds < SPIN_ROUNDS {
            for _ in 0..1u32 << idle_rounds {
                std::hint::spin_loop();
            }
        } else if idle_rounds < SPIN_ROUNDS + YIELD_ROUNDS {
            sync::yield_now();
        } else {
            let has_work = || inner.gate.quiescent() || inner.queues.iter().any(|q| !q.is_empty());
            if let Some(woken) = inner.sleepers.sleep(me, has_work) {
                inner.metrics.on_park(me, woken);
            }
            idle_rounds = 0;
            continue;
        }
        idle_rounds += 1;
    }
    // Whoever leaves first saw the gate quiescent; peers still parked
    // must wake to see it too.
    inner.sleepers.wake_all();
}

/// Per-kind bank-occupancy multiplier for the batch planner. With a
/// sense-time model attached, a threshold query's bank time is its
/// sense time (high thresholds sense late, low ones early) and a range
/// query senses at the one-mismatch discharge point; exact and top-k
/// queries keep the two-step unit cost. Clamped so a degenerate model
/// can never starve or flood the schedule.
fn kind_cost(kind: RequestKind, sense: Option<&SenseModel>, t_bank: f64) -> f64 {
    let Some(model) = sense else {
        return 1.0;
    };
    if t_bank <= 0.0 {
        return 1.0;
    }
    match kind {
        RequestKind::Exact | RequestKind::TopK { .. } => 1.0,
        RequestKind::Threshold { t } => (model.sense_time(t) / t_bank).clamp(0.05, 4.0),
        RequestKind::Range => (model.discharge_time(1) / t_bank).clamp(0.05, 4.0),
        // Writes never enter the search batch plan.
        _ => 1.0,
    }
}

/// Run one batch: apply its writes first (one epoch bump per touched
/// shard), capture a snapshot view, deadline-shed expired queries, plan
/// and execute the remaining searches on the bit-parallel kernels
/// against that view, model the bank schedule, attribute energy, audit a
/// sample, resolve tickets. Drains `jobs` in place so the dispatcher's
/// batch buffer is reused across iterations.
///
/// Ordering: writes-before-searches within one batch is a valid
/// linearization — every job in the batch was accepted before any of
/// them executed, and searches then observe all of the batch's writes.
fn execute_batch(inner: &Inner, me: usize, jobs: &mut Vec<Job>, audit_counter: &mut u64) {
    let tracing = trace::level() != TraceLevel::Off;
    let _span = tracing.then(|| trace::span("serve.batch"));

    // Writes first, in batch order.
    let (writes, mut searches): (Vec<Job>, Vec<Job>) =
        jobs.drain(..).partition(|job| job.kind.is_write());
    if !writes.is_empty() {
        apply_writes(inner, writes);
    }

    // Capture the view every search of this batch answers from. Taken
    // *after* the writes so the batch's own mutations are visible; an
    // in-flight search on another dispatcher keeps its own older view.
    let view = inner.table.snapshot();

    // Deadline shedding: a query whose SLO already expired in the
    // queue is dropped here, before it can occupy a bank.
    if let Some(deadline) = inner.deadline {
        let now = Instant::now();
        searches.retain(|job| {
            if now.saturating_duration_since(job.enqueued) <= deadline {
                return true;
            }
            inner.metrics.on_deadline_shed(job.kind);
            // Dropping `tx` unanswered resolves the ticket to `None`.
            inner.gate.complete();
            false
        });
    }
    if searches.is_empty() {
        return;
    }

    // The kernels take parallel arrays; the tickets stay with the jobs.
    let targets: Vec<Option<usize>> = searches.iter().map(|j| j.shard).collect();
    let queries: Vec<PackedQuery> = searches.iter().map(|j| j.query.clone()).collect();
    let kinds: Vec<RequestKind> = searches.iter().map(|j| j.kind).collect();
    let costs: Vec<f64> = kinds
        .iter()
        .map(|&k| kind_cost(k, inner.sense.as_ref(), inner.t_bank))
        .collect();
    let spec = BatchSpec {
        queries: &queries,
        kinds: &kinds,
        targets: &targets,
        costs: &costs,
    };

    let ExecResult {
        outcomes,
        hits,
        per_job_latency_s,
        sched,
    } = backend::execute(&view, &spec, inner.t_bank);
    inner.metrics.on_batch(searches.len(), &sched);

    // One clock read for the whole batch: per-job wall latency is pure
    // arithmetic against it.
    let now = Instant::now();
    let audit = inner.audit_period > 0;
    let mut samples: Vec<ResponseSample> = Vec::with_capacity(searches.len());
    let answers = outcomes.into_iter().zip(hits).zip(per_job_latency_s);
    for (job, ((outcome, hits), model_latency_s)) in searches.into_iter().zip(answers) {
        let rows_searched = match job.shard {
            Some(s) => view.shard(s).rows(),
            None => view.len(),
        };
        let energy_j = view.energy_of_kind(job.kind, &outcome);
        let wall_latency_ns = u64::try_from(now.saturating_duration_since(job.enqueued).as_nanos())
            .unwrap_or(u64::MAX);
        if tracing {
            trace::sample("serve.enqueue_to_response_ns", wall_latency_ns);
        }
        if audit {
            // Deterministic 1-in-`period` sample over the per-
            // dispatcher accept counter (SplitMix64-whitened so the
            // sample is spread, not periodic in arrival order; the
            // shard id folds in so dispatchers sample independently).
            let mut state = inner.audit_seed ^ ((me as u64) << 48) ^ *audit_counter;
            *audit_counter += 1;
            if split_mix64(&mut state).is_multiple_of(inner.audit_period) {
                audit_replay(inner, &view, &job, &outcome, &hits, energy_j);
            }
        }
        samples.push(ResponseSample {
            kind: job.kind,
            wall_ns: wall_latency_ns,
            model_latency_s: Some(model_latency_s),
            rows: rows_searched,
            step1_misses: outcome.step1_misses,
            step2_misses: outcome.step2_misses,
            matches: outcome.matches.len(),
            energy_j,
        });
        if let Some(tx) = job.tx {
            // A dropped ticket is fine — the work was still done and
            // accounted; only the delivery is skipped.
            let _ = tx.send(SearchResponse {
                kind: job.kind,
                matches: outcome.matches,
                hits,
                step1_misses: outcome.step1_misses,
                step2_misses: outcome.step2_misses,
                rows_searched,
                energy_j,
                model_latency_s,
                wall_latency_ns,
            });
        }
        inner.gate.complete();
    }
    inner.metrics.on_responses(&samples);
}

/// Commit one batch's writes through the live table and resolve their
/// tickets. Each write is priced by the calibrated 3-step program
/// (energy = per-cell write energy × width, latency = the program's
/// three phase windows) when [`ferrotcam::RowWriteMetrics`] are
/// attached; without metrics the latency falls back to the design's
/// nominal program duration and the energy is `None`, mirroring how
/// searches degrade without attached search metrics.
fn apply_writes(inner: &Inner, mut writes: Vec<Job>) {
    let ops: Vec<WriteOp> = writes
        .iter()
        .map(|job| match job.kind {
            RequestKind::Insert => {
                WriteOp::Insert(job.word.clone().expect("insert jobs carry their word"))
            }
            RequestKind::Update { row } => WriteOp::Update {
                row,
                word: job.word.clone().expect("update jobs carry their word"),
            },
            RequestKind::Delete { row } => WriteOp::Delete { row },
            _ => unreachable!("search kinds never reach the write path"),
        })
        .collect();
    let acks = inner.table.apply(&ops);
    let (energy_j, model_latency_s) = match inner.table.write_metrics() {
        Some(m) => (Some(m.energy), m.latency),
        None => (None, program_duration()),
    };
    let now = Instant::now();
    let mut samples: Vec<ResponseSample> = Vec::with_capacity(writes.len());
    for (job, ack) in writes.drain(..).zip(acks) {
        let matches = match ack {
            WriteAck::Inserted { row } => vec![row],
            WriteAck::Applied => match job.kind {
                RequestKind::Update { row } | RequestKind::Delete { row } => vec![row],
                _ => Vec::new(),
            },
            WriteAck::OutOfRange => Vec::new(),
        };
        let wall_latency_ns = u64::try_from(now.saturating_duration_since(job.enqueued).as_nanos())
            .unwrap_or(u64::MAX);
        samples.push(ResponseSample {
            kind: job.kind,
            wall_ns: wall_latency_ns,
            model_latency_s: Some(model_latency_s),
            rows: 0,
            step1_misses: 0,
            step2_misses: 0,
            matches: matches.len(),
            energy_j,
        });
        if let Some(tx) = job.tx {
            let _ = tx.send(SearchResponse {
                kind: job.kind,
                matches,
                hits: Vec::new(),
                step1_misses: 0,
                step2_misses: 0,
                rows_searched: 0,
                energy_j,
                model_latency_s,
                wall_latency_ns,
            });
        }
        inner.gate.complete();
    }
    inner.metrics.on_responses(&samples);
}

/// Replay one sampled answer through the reference walk
/// ([`crate::backend::reference_answer`]) and record the verdict. The
/// walk gets the service's sense model, so threshold replays are
/// classified by the circuit's analog sense decision rather than the
/// digital rule the kernels use. The replay runs against the same
/// captured view the kernels answered from, which makes the lane exact
/// under concurrent writes.
fn audit_replay(
    inner: &Inner,
    view: &SnapView,
    job: &Job,
    fast: &SearchOutcome,
    fast_hits: &[ApproxHit],
    fast_energy: Option<f64>,
) {
    let (reference, ref_hits) =
        reference_answer(view, job.kind, &job.query, job.shard, inner.sense.as_ref());
    let ref_energy = view.energy_of_kind(job.kind, &reference);
    let verdict = audit_compare(
        fast,
        fast_hits,
        fast_energy,
        &reference,
        &ref_hits,
        ref_energy,
        inner.audit_tolerance,
    );
    inner.metrics.on_audit(&verdict, job.kind);
    if !verdict.clean() {
        let lane = if verdict.match_divergence {
            "match"
        } else {
            "energy"
        };
        trace::audit_divergence(
            lane,
            hash_packed(&job.query),
            verdict.energy_rel,
            verdict.detail.clone().unwrap_or_default(),
        );
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ferrotcam::TernaryWord;

    fn table(rows: u64, shards: usize) -> ShardedTcam {
        let mut t = ShardedTcam::new(8, shards);
        for i in 0..rows {
            t.store(TernaryWord::from_u64(i * 3, 8));
        }
        t
    }

    fn bits(v: u64) -> Vec<bool> {
        (0..8).rev().map(|b| (v >> b) & 1 == 1).collect()
    }

    /// Submit an exact search for the 8-bit key `v`.
    fn exact(
        client: &ServiceClient,
        tenant: TenantId,
        v: u64,
        shard: Option<usize>,
    ) -> Result<Ticket, Overloaded> {
        let q = PackedQuery::from_bits(&bits(v));
        client.submit_kind(tenant, q, RequestKind::Exact, shard)
    }

    /// `Ticket::wait` for tests without a deadline configured: every
    /// accepted request is answered.
    fn answered(t: Ticket) -> SearchResponse {
        t.wait()
            .expect("no deadline configured; every ticket answers")
    }

    #[test]
    fn single_query_roundtrip() {
        let svc = TcamService::start(table(16, 2), &ServiceConfig::default());
        let client = svc.client();
        let resp = answered(exact(&client, 0, 9, None).unwrap());
        // 9 = 3*3 is stored; fan-out scans all 16 rows.
        assert!(!resp.matches.is_empty());
        assert_eq!(resp.rows_searched, 16);
        assert!(resp.model_latency_s > 0.0);
        let m = svc.drain();
        assert_eq!(m.completed, 1);
        assert_eq!(m.submitted, 1);
    }

    #[test]
    fn fanout_equals_unsharded_search() {
        let reference = {
            let mut r = ferrotcam::BehavioralTcam::new(8);
            for i in 0..32u64 {
                r.store(TernaryWord::from_u64(i * 3, 8));
            }
            r
        };
        let svc = TcamService::start(table(32, 4), &ServiceConfig::default());
        let client = svc.client();
        for v in [0u64, 3, 30, 93, 200, 255] {
            let resp = answered(exact(&client, 0, v, None).unwrap());
            let flat = reference.search(&bits(v));
            assert_eq!(resp.matches, reference.search_naive(&bits(v)), "v={v}");
            assert_eq!(resp.matches, flat.matches, "v={v}");
            assert_eq!(resp.step1_misses, flat.step1_misses, "v={v}");
            assert_eq!(resp.step2_misses, flat.step2_misses, "v={v}");
        }
        drop(svc);
    }

    #[test]
    fn audit_lane_samples_and_stays_clean() {
        // Period 1 audits *every* query; any kernel bug would surface
        // as a divergence here.
        let config = ServiceConfig {
            audit_period: 1,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(table(48, 3), &config);
        let client = svc.client();
        for v in 0..64u64 {
            let _ = answered(exact(&client, 0, v * 5, None).unwrap());
        }
        let m = svc.drain();
        assert_eq!(m.completed, 64);
        assert_eq!(m.audit_sampled, 64, "period-1 lane replays everything");
        assert_eq!(m.audit_match_divergences, 0);
        assert_eq!(m.audit_energy_divergences, 0);
        assert!(m.audit_worst_energy_rel <= 1e-9);
    }

    #[test]
    fn noreply_submissions_are_counted_not_answered() {
        let config = ServiceConfig {
            audit_period: 0,
            ..ServiceConfig::default()
        };
        let svc = TcamService::start(table(16, 2), &config);
        let client = svc.client();
        for v in 0..32u64 {
            client
                .submit_noreply_kind(
                    0,
                    PackedQuery::from_bits(&bits(v * 7)),
                    RequestKind::Exact,
                    None,
                )
                .unwrap();
        }
        let m = svc.drain();
        assert_eq!(m.completed, 32);
        assert_eq!(m.audit_sampled, 0, "audit lane disabled at period 0");
        assert_eq!(m.rows_searched, 32 * 16);
    }

    #[test]
    fn drain_answers_everything_accepted() {
        let svc = TcamService::start(table(8, 2), &ServiceConfig::default());
        let client = svc.client();
        let tickets: Vec<Ticket> = (0..50)
            .map(|i| exact(&client, 0, i % 256, None).unwrap())
            .collect();
        let m = svc.drain();
        assert_eq!(m.completed, 50);
        for t in tickets {
            let _ = t.wait().expect("drain answers"); // must not hang or panic
        }
        // After drain, new submissions shed as ShuttingDown.
        assert_eq!(
            exact(&client, 0, 1, None).unwrap_err(),
            Overloaded::ShuttingDown
        );
        assert_eq!(client.metrics().shed_shutting_down, 1);
    }

    /// Leave the service idle for 50 ms, then until every dispatcher
    /// is parked.
    fn idle_until_all_parked(svc: &TcamService) {
        std::thread::sleep(Duration::from_millis(50));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !svc.inner.sleepers.all_asleep() {
            assert!(Instant::now() < deadline, "dispatchers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn drain_wakes_parked_dispatchers() {
        let svc = TcamService::start(table(64, 4), &ServiceConfig::default());
        let client = svc.client();
        idle_until_all_parked(&svc);
        let routed = exact(&client, 0, 9, Some(1)).unwrap();
        let fanout = exact(&client, 0, 9, None).unwrap();
        let (tx, rx) = mpsc::channel();
        let drainer = std::thread::spawn(move || tx.send(svc.drain()).expect("test waits"));
        let m = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("drain returns within 1 s");
        drainer.join().expect("drainer");
        assert!(routed.wait().is_some(), "routed query answered");
        assert!(fanout.wait().is_some(), "fan-out query answered");
        assert_eq!(m.completed, 2);
        assert_eq!(m.dispatchers.len(), 4);
        assert!(m.dispatchers.iter().all(|d| d.parks >= 1 && d.wakeups >= 1));
    }

    #[test]
    fn parked_peers_steal_a_busy_owners_backlog() {
        let svc = TcamService::start(table(64, 4), &ServiceConfig::default());
        let client = svc.client();
        idle_until_all_parked(&svc);
        let deadline = Instant::now() + Duration::from_secs(5);
        // The dispatcher that pulls this write stalls inside its batch
        // until the write lock is released. Nothing below may panic
        // while the lock is held: a poisoned lock would take the stalled
        // dispatcher down with its job and hang the drain.
        let hold = svc.inner.table.hold_writes();
        let write = client
            .submit_update(0, 0, TernaryWord::from_u64(0, 8))
            .unwrap();
        let busy = loop {
            let m = client.metrics();
            let busy = m.dispatchers.iter().position(|d| d.batches == 1);
            if busy.is_some() || Instant::now() > deadline {
                break busy;
            }
            std::thread::yield_now();
        };
        // A backlog on the busy dispatcher's own ring: each push finds
        // the owner awake and wakes a parked peer instead.
        let mut pending: Vec<Ticket> = busy.map_or_else(Vec::new, |b| {
            (0..16)
                .filter_map(|v| exact(&client, 0, v * 3, Some(b)).ok())
                .collect()
        });
        while !pending.is_empty() && Instant::now() < deadline {
            pending.retain(|t| t.try_wait().is_none());
            std::thread::yield_now();
        }
        let owner_stalled = write.try_wait().is_none();
        drop(hold);
        let busy = busy.expect("a dispatcher pulled the write");
        assert!(pending.is_empty(), "backlog stranded behind the busy owner");
        assert!(owner_stalled, "the owner was busy throughout");
        assert!(write.wait().is_some(), "the write lands once released");
        let m = svc.drain();
        assert_eq!(m.completed, 17);
        assert_eq!(
            m.dispatchers[busy].steals, 0,
            "the owner ran only the write"
        );
        assert!(
            m.dispatchers
                .iter()
                .any(|d| d.steals >= 1 && d.wakeups >= 1),
            "a woken peer stole the backlog: {:?}",
            m.dispatchers
        );
    }

    #[test]
    fn rate_limited_tenant_sheds_but_others_proceed() {
        let svc = TcamService::start(table(8, 1), &ServiceConfig::default());
        let client = svc.client();
        client.set_policy(1, RatePolicy::per_second(0.0, 1.0));
        assert!(exact(&client, 1, 0, None).is_ok());
        assert_eq!(
            exact(&client, 1, 0, None).unwrap_err(),
            Overloaded::RateLimited { tenant: 1 }
        );
        assert!(exact(&client, 2, 0, None).is_ok());
        let m = svc.drain();
        assert_eq!(m.shed_rate_limited, 1);
        assert_eq!(m.completed, 2);
    }

    #[test]
    fn partitioned_submit_scans_one_shard() {
        let mut t = ShardedTcam::new(8, 4);
        // Key-partitioned fill: every word lives on its hash shard.
        for i in 0..64u64 {
            let word = TernaryWord::from_u64(i, 8);
            let shard = t.route(&bits(i));
            t.store_in(shard, word);
        }
        let svc = TcamService::start(t, &ServiceConfig::default());
        let client = svc.client();
        for i in [0u64, 17, 42, 63] {
            let shard = client.route_packed(&PackedQuery::from_bits(&bits(i)));
            let resp = answered(exact(&client, 0, i, Some(shard)).unwrap());
            assert_eq!(resp.matches.len(), 1, "key {i} found on its shard");
            assert!(resp.rows_searched < 64, "scans one shard, not the table");
        }
        drop(svc);
    }
}
