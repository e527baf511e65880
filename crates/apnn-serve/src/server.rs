//! The dynamic batcher: admit → fair-queue → sweep → coalesce → shard →
//! complete.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use apnn_bitpack::BitTensor4;
use apnn_kernels::stats as kstats;
use apnn_nn::compile::MainKernel;
use apnn_nn::{CompiledNet, WorkspacePool};

use crate::api::{Admission, QueuePolicy, Request, Ticket};
use crate::fault::{FaultPlan, FaultSite, Injector};
use crate::queue::{FairQueue, Pushed, QueuedRequest};
use crate::registry::{ModelKey, PlanRegistry};
use crate::stats::{ServeStats, StatsInner};
use crate::ServeError;

/// Liveness backstop base: a worker holding a partial batch whose
/// tick-based delay has not expired re-checks at this cadence (scaled by
/// `max_batch_delay`, see [`backstop`]), so a lone request is never
/// stranded waiting for submissions that will not come.
const PARTIAL_BATCH_BACKSTOP: Duration = Duration::from_millis(1);

/// Wall-clock patience for a filling partial batch. Scales with the
/// configured tick delay so a larger `max_batch_delay` really buys more
/// coalescing under steady (non-burst) load instead of being overridden
/// by a fixed constant; capped so drains stay prompt.
fn backstop(config: &ServeConfig) -> Duration {
    PARTIAL_BATCH_BACKSTOP * (1 + config.max_batch_delay.min(100) as u32)
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded queue size; [`Server::submit_request`] blocks (backpressure)
    /// once this many requests are waiting. Only consulted under
    /// [`Admission::Backpressure`] — the shedding admission bounds each
    /// tenant's lane instead (see [`Admission::Shed`]).
    pub queue_capacity: usize,
    /// How many further *submissions* a queued request may wait through
    /// before a partial batch is dispatched anyway. `0` dispatches
    /// greedily; larger values trade queueing latency (in ticks) for
    /// batch fill. A wall-clock backstop of `(1 + max_batch_delay) ms`
    /// (capped at ~100 ms) force-dispatches when submissions stop
    /// arriving, so results never depend on wall time — only how full
    /// the batches ran.
    pub max_batch_delay: u64,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Shards a coalesced batch fans out over inside one dispatch
    /// ([`apnn_nn::CompiledNet::infer_batched_into`]): `1` executes the
    /// batch sequentially on the dispatching worker (the pre-pool
    /// behaviour); `N > 1` cuts it into `N` shards run across the Rayon
    /// pool, each against a workspace checked out of the server's shared
    /// per-plan [`WorkspacePool`]. Logits are bit-identical either way —
    /// the partition never changes per-element accumulation order.
    pub intra_batch_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch_delay: 0,
            workers: 2,
            intra_batch_threads: 1,
        }
    }
}

#[derive(Default)]
struct State {
    queue: FairQueue,
    /// The serving clock: +1 per accepted submission.
    ticks: u64,
    /// Requests currently executing in workers.
    in_flight: usize,
    shutdown: bool,
    stats: StatsInner,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for submissions / shutdown.
    work: Condvar,
    /// Submitters wait here for queue space (backpressure).
    space: Condvar,
    /// `wait_idle` callers wait here for the queue to fully drain.
    idle: Condvar,
    registry: PlanRegistry,
    config: ServeConfig,
    policy: QueuePolicy,
    /// Lock-free mirror of `State::ticks`, shared into every [`Ticket`] so
    /// `wait_deadline` observes the clock without touching the queue lock.
    clock: Arc<AtomicU64>,
    /// One shared [`WorkspacePool`] per served plan (created on the first
    /// batch for that plan, shared by every worker and every intra-batch
    /// shard). Sized so the population can cover every worker dispatching
    /// at full intra-batch width simultaneously; `workspace_creates` proves
    /// it warms to a fixed size and never grows afterwards.
    pools: Mutex<HashMap<ModelKey, Arc<WorkspacePool>>>,
    /// The armed fault schedule (inert unless built with `fault-inject`).
    /// Shared into the registry and the wire listeners so one seed drives
    /// one coherent schedule across every injection site.
    faults: Arc<Injector>,
    /// Idempotent wire resubmissions deduplicated by the TCP listeners
    /// (surfaced as [`ServeStats::client_retries`]).
    wire_retries: AtomicU64,
}

impl Shared {
    /// The shared pool for `key`, created on first use.
    fn pool_for(&self, key: &ModelKey, plan: &CompiledNet) -> Arc<WorkspacePool> {
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pool) = pools.get(key) {
            return Arc::clone(pool);
        }
        let max = self.config.workers.max(1) * self.config.intra_batch_threads.max(1);
        let pool = Arc::new(WorkspacePool::new(plan, max));
        pools.insert(key.clone(), Arc::clone(&pool));
        pool
    }
}

/// A multi-model dynamic-batching inference server over a
/// [`PlanRegistry`].
///
/// [`Server::submit_request`] resolves the request's [`ModelKey`] against
/// the registry's active version (lazily compiling at most once per
/// resolved key), validates the packed input against the plan's first
/// stage, and admits the request into its tenant's fair-queueing lane —
/// blocking under [`Admission::Backpressure`], shedding under
/// [`Admission::Shed`]. Worker threads sweep expired/cancelled work out of
/// the queue (dead requests never occupy a batch slot), coalesce same-key
/// requests into shards of at most the compiled batch (`plan.batch()`),
/// execute them with partial-shard support, and deliver per-request logits
/// through [`Ticket`]s.
///
/// Dropping the server (or calling [`Server::shutdown`]) drains the queue:
/// every accepted request still completes (or expires/cancels); late
/// submissions get [`ServeError::ShuttingDown`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start `config.workers` worker threads over `registry`, with the
    /// default [`QueuePolicy`] (blocking backpressure, every tenant at
    /// weight 1 — the PR 2 behaviour).
    pub fn new(registry: PlanRegistry, config: ServeConfig) -> Self {
        Self::with_policy(registry, config, QueuePolicy::backpressure())
    }

    /// Start the server with an explicit admission/fairness [`QueuePolicy`]
    /// and the fault schedule from the environment
    /// ([`FaultPlan::from_env`] — quiet unless built with `fault-inject`
    /// and `APNN_FAULT_SEED`/`APNN_FAULT_PLAN` are set).
    pub fn with_policy(registry: PlanRegistry, config: ServeConfig, policy: QueuePolicy) -> Self {
        Self::with_faults(registry, config, policy, FaultPlan::from_env())
    }

    /// Start the server with an explicit [`FaultPlan`]. Without the
    /// `fault-inject` cargo feature the plan is inert — every injection
    /// site compiles to a constant-false check — so this is exactly
    /// [`Server::with_policy`] plus a deterministic chaos schedule in
    /// builds that opt in (see [`mod@crate::fault`]).
    pub fn with_faults(
        registry: PlanRegistry,
        config: ServeConfig,
        policy: QueuePolicy,
        plan: FaultPlan,
    ) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let faults = Arc::new(Injector::new(plan));
        registry.install_injector(Arc::clone(&faults));
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            registry,
            config,
            policy,
            clock: Arc::new(AtomicU64::new(0)),
            pools: Mutex::new(HashMap::new()),
            faults,
            wire_retries: AtomicU64::new(0),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("apnn-serve-{i}"))
                    .spawn(move || supervise(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// The plan cache behind this server. Registration takes `&self`, so
    /// models and versions can be added while the server runs:
    /// `server.registry().register("M", build)` then
    /// `server.registry().promote("M", v)`.
    pub fn registry(&self) -> &PlanRegistry {
        &self.shared.registry
    }

    /// Submit one [`Request`] (image by value — no copy on the hot path;
    /// clone at the call site to retain it).
    ///
    /// Under [`Admission::Backpressure`] this blocks while the queue is at
    /// `queue_capacity`. Under [`Admission::Shed`] it never blocks: a full
    /// tenant lane sheds the oldest request whose priority does not exceed
    /// the arrival's (its ticket resolves to [`ServeError::Shed`]), or
    /// refuses the arrival itself with a synchronous `Err(Shed)`.
    ///
    /// The request's key is **resolved** against the registry's active
    /// version here, at admission — a later
    /// [`PlanRegistry::promote`] does not reroute queued work.
    pub fn submit_request(&self, req: Request) -> Result<Ticket, ServeError> {
        let Request {
            key,
            image,
            tenant,
            deadline,
            priority,
        } = req;
        let (resolved, plan) = self.shared.registry.acquire(&key)?;
        validate_input(&plan, &image)?;
        let (ticket, inner) = Ticket::new(Arc::clone(&self.shared.clock));
        let mut state = self.lock_state();
        if matches!(self.shared.policy.admission, Admission::Backpressure) {
            while state.queue.len() >= self.shared.config.queue_capacity && !state.shutdown {
                state = self
                    .shared
                    .space
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        if state.shutdown {
            state.stats.rejected += 1;
            return Err(ServeError::ShuttingDown);
        }
        if self.shared.faults.fire(FaultSite::ClockSkew) {
            // A deadline storm: jump the submission clock as if a burst of
            // submissions had raced past this one.
            state.ticks += self.shared.faults.skew_ticks();
            self.shared.clock.store(state.ticks, Ordering::Release);
        }
        state.ticks += 1;
        self.shared.clock.store(state.ticks, Ordering::Release);
        let enqueue_tick = state.ticks;
        if self.shared.faults.fire(FaultSite::AdmitDrop) {
            // Shed the arrival as if its lane had overflowed — accounted
            // exactly like `Pushed::ShedIncoming` so the ledger still
            // balances: submitted == completed+shed+expired+cancelled+poisoned.
            state.stats.tenant(&tenant).submitted += 1;
            state.stats.tenant(&tenant).shed += 1;
            state.stats.shed += 1;
            let err = ServeError::Shed {
                key: resolved.to_string(),
                tenant: tenant.clone(),
            };
            inner.deliver(Err(err.clone()));
            drop(state);
            self.shared.work.notify_all();
            return Err(err);
        }
        // Per-tenant `submitted` counts *offered* load (accepted or shed on
        // arrival) — the shed-rate denominator; the global counter keeps
        // the PR 2 meaning (accepted into the queue).
        state.stats.tenant(&tenant).submitted += 1;
        let queued = QueuedRequest {
            plan,
            key: resolved,
            image,
            ticket: inner,
            tenant: tenant.clone(),
            enqueue_tick,
            expire_tick: deadline.map(|d| enqueue_tick + d),
            priority,
            vft: 0,
        };
        let weight = self.shared.policy.weight_of(&tenant);
        let cap = match self.shared.policy.admission {
            Admission::Backpressure => None,
            Admission::Shed { per_tenant } => Some(per_tenant),
        };
        match state.queue.push(queued, weight, cap) {
            Pushed::Queued => {
                state.stats.submitted += 1;
            }
            Pushed::ShedVictim(victim) => {
                state.stats.submitted += 1;
                state.stats.shed += 1;
                state.stats.tenant(&victim.tenant).shed += 1;
                victim.ticket.deliver(Err(ServeError::Shed {
                    key: victim.key.to_string(),
                    tenant: victim.tenant.clone(),
                }));
            }
            Pushed::ShedIncoming(refused) => {
                state.stats.shed += 1;
                state.stats.tenant(&refused.tenant).shed += 1;
                let err = ServeError::Shed {
                    key: refused.key.to_string(),
                    tenant: refused.tenant.clone(),
                };
                refused.ticket.deliver(Err(err.clone()));
                drop(state);
                self.shared.work.notify_all();
                return Err(err);
            }
        }
        drop(state);
        self.shared.work.notify_all();
        Ok(ticket)
    }

    /// Block until every accepted request has completed and the queue is
    /// empty.
    pub fn wait_idle(&self) {
        let mut state = self.lock_state();
        while !(state.queue.is_empty() && state.in_flight == 0) {
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Snapshot the serving counters (see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        // Aggregate the per-plan workspace pools first (separate lock), so
        // the queue lock is never held across pool inspection.
        let pool_stats = {
            let pools = self.shared.pools.lock().unwrap_or_else(|e| e.into_inner());
            pools.values().fold((0usize, 0usize, 0u64, 0u64), |acc, p| {
                let s = p.stats();
                (
                    acc.0 + 1,
                    acc.1 + s.created,
                    acc.2 + s.checkouts,
                    acc.3 + s.contended,
                )
            })
        };
        let state = self.lock_state();
        state.stats.snapshot(
            state.queue.len(),
            state.in_flight,
            (
                self.shared.registry.compiles(),
                self.shared.registry.hits(),
                self.shared.registry.compiled_labels(),
            ),
            pool_stats,
            (
                self.shared.registry.rollbacks(),
                self.shared.wire_retries.load(Ordering::Relaxed),
            ),
        )
    }

    /// The armed fault schedule, shared with the wire listeners so their
    /// injection sites draw from the same seed.
    pub(crate) fn injector(&self) -> Arc<Injector> {
        Arc::clone(&self.shared.faults)
    }

    /// Record one deduplicated idempotent resubmission observed at the
    /// wire boundary (surfaced as [`ServeStats::client_retries`]).
    pub(crate) fn note_wire_retry(&self) {
        self.shared.wire_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Stop accepting requests, drain the queue (every accepted request
    /// still completes) and join the workers. Equivalent to dropping the
    /// server.
    pub fn shutdown(self) {
        // Drop runs the actual teardown.
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut state = self.lock_state();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Check a request tensor against what the plan's first main stage
/// consumes.
fn validate_input(plan: &CompiledNet, image: &BitTensor4) -> Result<(), ServeError> {
    let (n, h, w, c) = image.shape();
    if n != 1 {
        return Err(ServeError::BadInput(format!(
            "requests carry exactly one image, got a batch of {n}"
        )));
    }
    if let Some((ph, pw, pc, bits, enc)) = plan.input_map_spec() {
        if (h, w, c) != (ph, pw, pc) || image.bits() != bits || image.encoding() != enc {
            return Err(ServeError::BadInput(format!(
                "plan expects {ph}×{pw}×{pc} @ {bits} bits {enc:?}, \
                 got {h}×{w}×{c} @ {} bits {:?}",
                image.bits(),
                image.encoding()
            )));
        }
        return Ok(());
    }
    // Linear-front plan: the engine flattens the map to h·w·c features.
    let first = plan
        .main_stages()
        .next()
        .expect("servable plan has a main stage");
    if let MainKernel::Linear { desc, .. } = &first.kernel {
        if h * w * c != desc.k || image.bits() != desc.x_bits || image.encoding() != desc.x_enc {
            return Err(ServeError::BadInput(format!(
                "plan expects {} features @ {} bits {:?}, got {h}×{w}×{c} @ {} bits {:?}",
                desc.k,
                desc.x_bits,
                desc.x_enc,
                image.bits(),
                image.encoding()
            )));
        }
    }
    Ok(())
}

/// Drop expired and cancelled requests out of the queue, with stats and
/// ticket delivery. Runs under the state lock, before every dispatch
/// decision — dead work never occupies a batch slot. Returns whether
/// anything was removed (the caller re-notifies space/idle waiters).
fn sweep_dead(state: &mut State) -> bool {
    if state.queue.is_empty() {
        return false;
    }
    let now = state.ticks;
    let (expired, cancelled) = state.queue.sweep(now);
    let removed = !expired.is_empty() || !cancelled.is_empty();
    for r in &expired {
        state.stats.expired += 1;
        state.stats.tenant(&r.tenant).expired += 1;
        r.ticket.deliver(Err(ServeError::Expired {
            key: r.key.to_string(),
            tenant: r.tenant.clone(),
            deadline_ticks: r.expire_tick.expect("expired implies a deadline") - r.enqueue_tick,
            waited_ticks: now - r.enqueue_tick,
        }));
    }
    for r in &cancelled {
        // The ticket already resolved (cancel() delivered); only account.
        state.stats.cancelled += 1;
        state.stats.tenant(&r.tenant).cancelled += 1;
    }
    removed
}

/// One worker thread's reusable dispatch state for one plan: a handle to
/// the server-wide [`WorkspacePool`] (cached so the steady-state path
/// never touches the pool-map lock), the coalescing input tensor and the
/// logits buffer. Execution workspaces themselves live in the shared pool
/// — `workspace_creates` proves the population warms to at most
/// `workers × intra_batch_threads` per plan and never grows afterwards.
struct WorkerScratch {
    pool: Arc<WorkspacePool>,
    /// Coalesced request images (reused across batches).
    coalesce: BitTensor4,
    /// `batch × classes` logits of the last execution.
    logits: Vec<i32>,
}

impl WorkerScratch {
    fn new(shared: &Shared, key: &ModelKey, plan: &CompiledNet) -> WorkerScratch {
        WorkerScratch {
            pool: shared.pool_for(key, plan),
            coalesce: BitTensor4::zeros(0, 1, 1, 1, 1, apnn_bitpack::Encoding::ZeroOne),
            logits: Vec::new(),
        }
    }
}

/// Run [`worker_loop`] under supervision: a clean return (shutdown drain)
/// ends the thread; an unwind — an injected [`FaultSite::WorkerKill`], or
/// a defect that escaped the batch-level quarantine — counts one
/// [`ServeStats::worker_restarts`] and re-enters the loop with fresh
/// scratch state. The [`RequeueGuard`] has already restored any dispatched
/// batch to the queue, so a restart never loses accepted work.
fn supervise(shared: &Shared) {
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(shared))) {
            Ok(()) => return,
            Err(_) => {
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                state.stats.worker_restarts += 1;
                drop(state);
                shared.work.notify_all();
            }
        }
    }
}

/// Armed while a dispatched batch lives outside the queue. On unwind,
/// `Drop` rolls back `in_flight` and restores the batch to its tenants'
/// lanes (original VFT and admission stamps — a restore is not a new
/// arrival); the happy path [`RequeueGuard::disarm`]s it and does its own
/// bookkeeping under the re-acquired lock.
struct RequeueGuard<'a> {
    shared: &'a Shared,
    batch: Option<Vec<QueuedRequest>>,
}

impl RequeueGuard<'_> {
    fn disarm(&mut self) -> Vec<QueuedRequest> {
        self.batch.take().expect("guard disarmed once")
    }
}

impl Drop for RequeueGuard<'_> {
    fn drop(&mut self) {
        let Some(batch) = self.batch.take() else {
            return;
        };
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.in_flight -= batch.len();
        state.queue.restore(batch);
        drop(state);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }
}

/// Execute `batch`, quarantining panics: a panicking execution is bisected
/// until the culprit fails *alone* — that singleton's ticket resolves to
/// [`ServeError::Poisoned`] while every innocent batch-mate re-executes to
/// completion. Returns the condemned batch indices (tickets already
/// resolved); convergence is guaranteed because the injected poison
/// decision is a pure function of a request's admission tick (see
/// [`Injector::poisons`]) and real per-request defects reproduce the same
/// way.
fn execute_with_quarantine(
    shared: &Shared,
    batch: &[QueuedRequest],
    caches: &mut HashMap<ModelKey, WorkerScratch>,
) -> Vec<usize> {
    match try_execute(shared, batch, caches) {
        Ok(()) => Vec::new(),
        Err(why) if batch.len() == 1 => {
            let r = &batch[0];
            r.ticket.deliver(Err(ServeError::Poisoned {
                key: r.key.to_string(),
                tenant: r.tenant.clone(),
                why,
            }));
            vec![0]
        }
        Err(_) => {
            let mid = batch.len() / 2;
            let mut poisoned = execute_with_quarantine(shared, &batch[..mid], caches);
            for i in execute_with_quarantine(shared, &batch[mid..], caches) {
                poisoned.push(mid + i);
            }
            poisoned
        }
    }
}

/// One guarded execution attempt: the worker-side injection sites
/// (transient batch panic, deterministic per-request poison) plus
/// [`execute_batch`], under `catch_unwind`, with a panic mapped to its
/// message. Tickets are first-delivery-wins, so a bisection re-execution
/// can never double-deliver.
fn try_execute(
    shared: &Shared,
    batch: &[QueuedRequest],
    caches: &mut HashMap<ModelKey, WorkerScratch>,
) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if shared.faults.fire(FaultSite::BatchPanic) {
            panic!("injected batch panic (fault-inject)");
        }
        for r in batch {
            if shared.faults.poisons(r.enqueue_tick) {
                panic!("injected poisoned request (fault-inject)");
            }
        }
        execute_batch(shared, batch, caches)
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string())
    })
}

fn worker_loop(shared: &Shared) {
    // Per-worker, per-plan dispatch state. Keyed by resolved `ModelKey`:
    // the registry guarantees one immutable plan per resolved key for the
    // server's lifetime (retiring a version only evicts the registry cache;
    // queued requests hold their plan `Arc`).
    let mut caches: HashMap<ModelKey, WorkerScratch> = HashMap::new();
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    let mut force = false;
    loop {
        if sweep_dead(&mut state) {
            shared.space.notify_all();
        }
        if state.queue.is_empty() {
            if state.in_flight == 0 {
                shared.idle.notify_all();
            }
            if state.shutdown {
                return;
            }
            force = false;
            state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());
            continue;
        }
        let shutdown = state.shutdown;
        let now = state.ticks;
        match state
            .queue
            .next_batch(now, shared.config.max_batch_delay, force, shutdown)
        {
            Some(batch) => {
                force = false;
                let dispatch_tick = state.ticks;
                state.in_flight += batch.len();
                drop(state);
                shared.space.notify_all();

                // From here until `disarm`, the batch lives outside the
                // queue. If this thread unwinds (an injected worker kill,
                // or a defect escaping the quarantine below) the guard's
                // `Drop` restores every request to its lane with its
                // original admission stamps and rolls back `in_flight` —
                // no request is lost; `supervise` restarts the worker.
                let mut guard = RequeueGuard {
                    shared,
                    batch: Some(batch),
                };
                if shared.faults.fire(FaultSite::WorkerKill) {
                    panic!("injected worker kill (fault-inject)");
                }
                if shared.faults.fire(FaultSite::BatchStall) {
                    std::thread::sleep(shared.faults.stall_for());
                }
                let poisoned = execute_with_quarantine(
                    shared,
                    guard.batch.as_deref().expect("guard armed"),
                    &mut caches,
                );
                let batch = guard.disarm();

                state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                state.in_flight -= batch.len();
                state.stats.batches += 1;
                *state.stats.batch_fill.entry(batch.len()).or_insert(0) += 1;
                for (i, r) in batch.iter().enumerate() {
                    if poisoned.contains(&i) {
                        state.stats.poisoned += 1;
                        state.stats.tenant(&r.tenant).poisoned += 1;
                        continue;
                    }
                    let waited = dispatch_tick - r.enqueue_tick;
                    state.stats.completed += 1;
                    state.stats.record_latency(waited);
                    let t = state.stats.tenant(&r.tenant);
                    t.completed += 1;
                    t.record_latency(waited);
                }
                if state.queue.is_empty() && state.in_flight == 0 {
                    shared.idle.notify_all();
                }
            }
            None => {
                // Head group is filling and nothing else is ripe: wait for
                // another submission (which moves the tick clock), shutdown,
                // or the liveness backstop — then force-dispatch. The force
                // only applies to the head the timeout was armed for: if
                // another worker dispatched it meanwhile, the new head gets
                // its own full delay.
                let armed_head = state.queue.head_tick();
                let (g, timeout) = shared
                    .work
                    .wait_timeout(state, backstop(&shared.config))
                    .unwrap_or_else(|e| e.into_inner());
                state = g;
                force = timeout.timed_out() && state.queue.head_tick() == armed_head;
            }
        }
    }
}

/// Coalesce → shard over the pool → scatter: run one batch through the
/// server's shared per-plan [`WorkspacePool`] and resolve its tickets.
fn execute_batch(
    shared: &Shared,
    batch: &[QueuedRequest],
    caches: &mut HashMap<ModelKey, WorkerScratch>,
) {
    let plan = &batch[0].plan;
    let threads = shared.config.intra_batch_threads.max(1);
    let scope = kstats::scope();
    // `contains_key` + `get_mut` instead of `entry`: the hit path (every
    // steady-state batch) must not clone the key.
    if !caches.contains_key(&batch[0].key) {
        caches.insert(
            batch[0].key.clone(),
            WorkerScratch::new(shared, &batch[0].key, plan),
        );
    }
    let cache = caches.get_mut(&batch[0].key).expect("cache just ensured");
    if batch.len() == 1 {
        plan.infer_batched_into(&batch[0].image, &cache.pool, threads, &mut cache.logits);
    } else {
        // Word-level coalescing into the reused input tensor, its backing
        // store reserved at the plan's full coalescing width once so later
        // batches never reallocate; `next_batch` never hands out more than
        // the compiled batch, and every slot is overwritten by a
        // full-stride image copy (so the reshape skips the zeroing pass).
        let (_, h, w, c) = batch[0].image.shape();
        let bits = batch[0].image.bits();
        let enc = batch[0].image.encoding();
        cache
            .coalesce
            .reserve_images(plan.batch().max(1).max(batch.len()), h, w, c, bits);
        cache
            .coalesce
            .reset_for_overwrite(batch.len(), h, w, c, bits, enc);
        for (i, r) in batch.iter().enumerate() {
            cache.coalesce.copy_image_from(&r.image, 0, i);
        }
        plan.infer_batched_into(&cache.coalesce, &cache.pool, threads, &mut cache.logits);
    }
    // The compiled-plan contract: serving performs zero preparation work.
    debug_assert_eq!(scope.autotune_calls(), 0, "serving re-autotuned");
    debug_assert_eq!(scope.weight_prepares(), 0, "serving re-packed weights");
    debug_assert_eq!(scope.row_sum_builds(), 0, "serving rebuilt row sums");
    let classes = plan.classes();
    let logits = &cache.logits;
    debug_assert_eq!(logits.len(), batch.len() * classes);
    for (i, r) in batch.iter().enumerate() {
        r.ticket
            .deliver(Ok(logits[i * classes..(i + 1) * classes].to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_bitpack::{Encoding, Layout, Tensor4};
    use apnn_nn::NetPrecision;

    fn image(seed: u64) -> BitTensor4 {
        let codes = Tensor4::<u32>::from_fn(1, 3, 32, 32, Layout::Nhwc, |_, c, h, w| {
            ((seed as usize + 3 * c + 5 * h + 7 * w) % 256) as u32
        });
        BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
    }

    fn zoo_server(workers: usize, delay: u64) -> Server {
        zoo_server_threads(workers, delay, 1)
    }

    fn zoo_server_threads(workers: usize, delay: u64, intra: usize) -> Server {
        Server::new(
            PlanRegistry::zoo(4, 99),
            ServeConfig {
                queue_capacity: 16,
                max_batch_delay: delay,
                workers,
                intra_batch_threads: intra,
            },
        )
    }

    #[test]
    fn serves_logits_matching_direct_inference() {
        let server = zoo_server(2, 3);
        let key = ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2());
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                server
                    .submit_request(Request::new(key.clone(), image(i)))
                    .unwrap()
            })
            .collect();
        let plan = server.registry().get(&key).unwrap();
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(t.wait().unwrap(), plan.infer(&image(i as u64)));
        }
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.plan_compiles, 1);
        // The fill histogram accounts for every request exactly once.
        let total: u64 = stats.batch_fill.iter().map(|&(f, c)| f as u64 * c).sum();
        assert_eq!(total, 6);
        // The compat shim lands everything on the default tenant.
        let t = stats.tenant(crate::DEFAULT_TENANT).unwrap();
        assert_eq!(t.submitted, 6);
        assert_eq!(t.completed, 6);
        assert_eq!(t.shed_rate(), 0.0);
    }

    #[test]
    fn intra_batch_sharding_matches_sequential_dispatch_and_pools_warm() {
        // The same traffic at intra_batch_threads ∈ {1, 4} must produce
        // bit-identical logits; the shared pool must warm to a fixed
        // population bounded by workers × intra_batch_threads.
        let key = ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2());
        let mut logits_by_mode = Vec::new();
        for intra in [1usize, 4] {
            let server = zoo_server_threads(2, 4, intra);
            let tickets: Vec<Ticket> = (0..12)
                .map(|i| {
                    server
                        .submit_request(Request::new(key.clone(), image(i)))
                        .unwrap()
                })
                .collect();
            let got: Vec<Vec<i32>> = tickets.iter().map(|t| t.wait().unwrap()).collect();
            server.wait_idle();
            let stats = server.stats();
            assert_eq!(stats.workspace_pools, 1);
            assert!(
                stats.workspace_pool_size <= 2 * intra,
                "pool overgrew: {} workspaces for workers=2 × intra={intra}",
                stats.workspace_pool_size
            );
            assert!(stats.workspace_checkouts >= stats.batches);
            logits_by_mode.push(got);
        }
        assert_eq!(logits_by_mode[0], logits_by_mode[1]);
    }

    #[test]
    fn bad_inputs_and_unknown_models_are_rejected_synchronously() {
        let server = zoo_server(1, 0);
        let key = ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2());
        // Wrong spatial size.
        let codes = Tensor4::<u32>::from_fn(1, 3, 8, 8, Layout::Nhwc, |_, _, _, _| 0);
        let small = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        assert!(matches!(
            server.submit_request(Request::new(key.clone(), small)),
            Err(ServeError::BadInput(_))
        ));
        // Wrong bit width.
        let codes = Tensor4::<u32>::from_fn(1, 3, 32, 32, Layout::Nhwc, |_, _, _, _| 1);
        let narrow = BitTensor4::from_tensor(&codes, 2, Encoding::ZeroOne);
        assert!(matches!(
            server.submit_request(Request::new(key.clone(), narrow)),
            Err(ServeError::BadInput(_))
        ));
        let missing = ModelKey::new("nope", NetPrecision::w1a2());
        assert!(matches!(
            server.submit_request(Request::new(missing, image(0))),
            Err(ServeError::UnknownModel(_))
        ));
        // Pinning an unregistered version is a typed error too.
        assert!(matches!(
            server.submit_request(Request::new(key.clone().at_version(3), image(0))),
            Err(ServeError::UnknownVersion { version: 3, .. })
        ));
    }

    #[test]
    fn multi_model_requests_are_grouped_per_key() {
        let server = zoo_server(2, 8);
        let vgg = ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2());
        let alex = ModelKey::new("AlexNet-Tiny", NetPrecision::Apnn { w: 2, a: 2 });
        let mut tickets = Vec::new();
        for i in 0..4 {
            tickets.push((
                vgg.clone(),
                i,
                server
                    .submit_request(Request::new(vgg.clone(), image(i)))
                    .unwrap(),
            ));
            tickets.push((
                alex.clone(),
                i,
                server
                    .submit_request(Request::new(alex.clone(), image(i)))
                    .unwrap(),
            ));
        }
        for (key, i, t) in &tickets {
            let plan = server.registry().get(key).unwrap();
            assert_eq!(t.wait().unwrap(), plan.infer(&image(*i)));
        }
        // A worker resolves a batch's tickets before it re-takes the state
        // lock to count them completed.
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.plan_compiles, 2, "one compile per distinct key");
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn deadlines_expire_queued_work_before_dispatch() {
        // One worker, huge batch delay: the first (undeadlined) request
        // pins the head group while later deadline-carrying requests age
        // out on the tick clock.
        let server = Server::new(
            PlanRegistry::zoo(4, 99),
            ServeConfig {
                queue_capacity: 64,
                max_batch_delay: 1_000,
                workers: 1,
                intra_batch_threads: 1,
            },
        );
        let key = ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2());
        let vgg = ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2());
        // Pre-warm both plans: an inline compile inside a submit would
        // stall the clock long enough for the wall-clock liveness backstop
        // to force-dispatch the doomed group before it expires.
        server.registry().get(&key).unwrap();
        server.registry().get(&vgg).unwrap();
        let doomed: Vec<Ticket> = (0..3)
            .map(|i| {
                server
                    .submit_request(Request::new(key.clone(), image(i)).tenant("t").deadline(2))
                    .unwrap()
            })
            .collect();
        // Push the clock past every deadline with traffic that fills its
        // own batches (a different model so it does not rescue the group).
        let fillers: Vec<Ticket> = (0..8)
            .map(|i| {
                server
                    .submit_request(Request::new(vgg.clone(), image(i)))
                    .unwrap()
            })
            .collect();
        for t in &fillers {
            t.wait().unwrap();
        }
        for t in &doomed {
            assert!(matches!(
                t.wait(),
                Err(ServeError::Expired {
                    deadline_ticks: 2,
                    ..
                })
            ));
        }
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.expired, 3);
        assert_eq!(stats.tenant("t").unwrap().expired, 3);
        // Expired requests are dropped pre-dispatch: the batch-fill
        // histogram accounts only the fillers.
        let total: u64 = stats.batch_fill.iter().map(|&(f, c)| f as u64 * c).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn cancel_resolves_ticket_and_sweeps_queued_work() {
        let server = Server::new(
            PlanRegistry::zoo(4, 99),
            ServeConfig {
                queue_capacity: 64,
                max_batch_delay: 1_000,
                workers: 1,
                intra_batch_threads: 1,
            },
        );
        let key = ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2());
        let t = server
            .submit_request(Request::new(key.clone(), image(0)).tenant("c"))
            .unwrap();
        assert!(t.cancel(), "cancel wins while queued");
        assert!(matches!(t.wait(), Err(ServeError::Cancelled)));
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.tenant("c").unwrap().cancelled, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn shedding_bounds_tenant_lanes_and_prefers_older_lower_priority() {
        // No workers consuming: queue_capacity is irrelevant in shed mode;
        // the lane bound is 2. (workers=1 still spawns a worker — block it
        // with max_batch_delay and a never-full head group.)
        let server = Server::with_policy(
            PlanRegistry::zoo(4, 99),
            ServeConfig {
                queue_capacity: 4,
                max_batch_delay: 1_000,
                workers: 1,
                intra_batch_threads: 1,
            },
            QueuePolicy::shedding(2),
        );
        let key = ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2());
        let req = |i: u64, prio: i32| {
            Request::new(key.clone(), image(i))
                .tenant("s")
                .priority(prio)
        };
        let t0 = server.submit_request(req(0, 0)).unwrap();
        let t1 = server.submit_request(req(1, 0)).unwrap();
        // Lane full: the next arrival sheds the *oldest* equal-priority
        // request (t0).
        let t2 = server.submit_request(req(2, 0)).unwrap();
        assert!(matches!(t0.try_get(), Some(Err(ServeError::Shed { .. }))));
        assert!(t1.try_get().is_none(), "t1 still queued");
        // A high-priority arrival sheds the oldest ≤-priority one (t1).
        let t3 = server.submit_request(req(3, 5)).unwrap();
        assert!(matches!(t1.try_get(), Some(Err(ServeError::Shed { .. }))));
        // A low-priority arrival outranked by everything queued sheds
        // itself, synchronously.
        assert!(matches!(
            server.submit_request(req(4, -1)),
            Err(ServeError::Shed { .. })
        ));
        drop((t2, t3));
        let stats = server.stats();
        assert_eq!(stats.shed, 3);
        let t = stats.tenant("s").unwrap();
        assert_eq!(t.submitted, 5, "offered load counts the refused arrival");
        assert_eq!(t.shed, 3);
        assert!((t.shed_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn weighted_fairness_interleaves_backlogged_tenants() {
        // Two backlogged tenants at weights 3:1 on one model with batch 1
        // (registry batch 1 → every dispatch is one request): the dispatch
        // order must favour the heavy tenant ~3:1.
        let server = Server::with_policy(
            PlanRegistry::zoo(1, 99),
            ServeConfig {
                queue_capacity: 64,
                max_batch_delay: 1_000,
                workers: 1,
                intra_batch_threads: 1,
            },
            QueuePolicy::shedding(32)
                .weight("heavy", 3)
                .weight("light", 1),
        );
        let key = ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2());
        // Warm the plan first so admission is cheap and the backlog builds
        // before the worker starts draining.
        server.registry().get(&key).unwrap();
        let mut tickets = Vec::new();
        for i in 0..12 {
            for tenant in ["heavy", "light"] {
                tickets.push((
                    tenant,
                    server
                        .submit_request(Request::new(key.clone(), image(i)).tenant(tenant))
                        .unwrap(),
                ));
            }
        }
        for (_, t) in &tickets {
            t.wait().unwrap();
        }
        server.wait_idle();
        let stats = server.stats();
        let heavy = stats.tenant("heavy").unwrap();
        let light = stats.tenant("light").unwrap();
        assert_eq!(heavy.completed, 12);
        assert_eq!(light.completed, 12);
        // WFQ evidence: the heavy lane never waits meaningfully longer.
        // The exact 3:1 dispatch order is pinned by the queue-level unit
        // test; end-to-end, the submission-tick clock freezes once the
        // last request is admitted, so if the worker only gets scheduled
        // after the whole backlog is queued (common on a loaded
        // single-core runner), every latency collapses to
        // `final_tick - enqueue_tick` no matter who dispatched first —
        // and heavy, submitted before light in each pair, reads exactly
        // one tick higher. Allow that one-tick submission-order artifact;
        // anything beyond it means the heavy lane genuinely queued behind
        // the light one.
        assert!(
            heavy.p50_latency_ticks <= light.p50_latency_ticks + 1,
            "heavy p50 {} > light p50 {} + 1",
            heavy.p50_latency_ticks,
            light.p50_latency_ticks
        );
        assert!(
            heavy.p99_latency_ticks <= light.p99_latency_ticks + 1,
            "heavy p99 {} > light p99 {} + 1",
            heavy.p99_latency_ticks,
            light.p99_latency_ticks
        );
    }

    #[test]
    fn hot_swap_promotes_new_version_and_drains_old() {
        use apnn_nn::models::servable_zoo;
        let server = zoo_server(2, 2);
        let key = ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2());
        // Register v2 on the live server (interior mutability).
        let net = servable_zoo()
            .into_iter()
            .find(|n| n.name == "AlexNet-Tiny")
            .unwrap();
        let v2 = server
            .registry()
            .register("AlexNet-Tiny", move || net.clone());
        assert_eq!(v2, 2);
        // Unpinned traffic still lands on v1 until promotion.
        let before = server
            .submit_request(Request::new(key.clone(), image(0)))
            .unwrap();
        server.registry().promote("AlexNet-Tiny", v2).unwrap();
        let after = server
            .submit_request(Request::new(key.clone(), image(0)))
            .unwrap();
        // Both complete; the v1 plan and v2 plan are separate compiles.
        before.wait().unwrap();
        after.wait().unwrap();
        server.wait_idle();
        let labels = server.registry().compiled_labels();
        assert!(labels.iter().any(|l| l == "AlexNet-Tiny@APNN-w1a2"));
        assert!(labels.iter().any(|l| l == "AlexNet-Tiny@APNN-w1a2#v2"));
        assert_eq!(server.stats().completed, 2);
    }
}
