//! Serving telemetry: a consistent snapshot of queue, batching,
//! plan-cache and per-tenant behaviour.

use std::collections::{BTreeMap, VecDeque};

/// How many recent per-request latencies the percentile window keeps.
/// Bounded so a long-running server's stats stay O(1) in memory and a
/// `stats()` snapshot sorts a few thousand entries, not the full request
/// history, while holding the queue lock.
pub(crate) const LATENCY_WINDOW: usize = 4096;

/// Per-tenant latency window: smaller than the global one because a server
/// may carry many tenants, and the per-tenant percentiles gate fairness,
/// not fine-grained tail analysis.
pub(crate) const TENANT_LATENCY_WINDOW: usize = 1024;

/// Mutable per-tenant counters (under the queue lock, keyed by tenant
/// label in a `BTreeMap` for deterministic snapshot order).
#[derive(Debug, Default)]
pub(crate) struct TenantInner {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) shed: u64,
    pub(crate) expired: u64,
    pub(crate) cancelled: u64,
    pub(crate) poisoned: u64,
    pub(crate) latencies_ticks: VecDeque<u64>,
}

impl TenantInner {
    pub(crate) fn record_latency(&mut self, ticks: u64) {
        if self.latencies_ticks.len() == TENANT_LATENCY_WINDOW {
            self.latencies_ticks.pop_front();
        }
        self.latencies_ticks.push_back(ticks);
    }
}

/// Mutable counters maintained under the server's queue lock.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) rejected: u64,
    pub(crate) failed: u64,
    /// Requests displaced (or refused) by the shed admission policy.
    pub(crate) shed: u64,
    /// Requests whose deadline passed while queued (dropped before
    /// occupying a batch slot).
    pub(crate) expired: u64,
    /// Requests cancelled via [`crate::Ticket::cancel`] while queued.
    pub(crate) cancelled: u64,
    /// Requests quarantined by the batch bisection
    /// ([`crate::ServeError::Poisoned`]).
    pub(crate) poisoned: u64,
    /// Panicked workers restarted by supervision.
    pub(crate) worker_restarts: u64,
    pub(crate) batches: u64,
    /// batch fill (requests coalesced per dispatch) → dispatch count.
    pub(crate) batch_fill: BTreeMap<usize, u64>,
    /// Queueing latency of the most recent [`LATENCY_WINDOW`] completed
    /// requests, in ticks (one tick per submission): dispatch tick −
    /// enqueue tick.
    pub(crate) latencies_ticks: VecDeque<u64>,
    /// Per-tenant counters, keyed by tenant label.
    pub(crate) tenants: BTreeMap<String, TenantInner>,
}

impl StatsInner {
    pub(crate) fn tenant(&mut self, label: &str) -> &mut TenantInner {
        if !self.tenants.contains_key(label) {
            self.tenants
                .insert(label.to_string(), TenantInner::default());
        }
        self.tenants.get_mut(label).expect("tenant just ensured")
    }
}

/// Sort-and-rank percentile over a latency window (nearest-rank method).
fn percentiles(window: &VecDeque<u64>) -> (u64, u64, u64) {
    let mut sorted: Vec<u64> = window.iter().copied().collect();
    sorted.sort_unstable();
    let pct = |p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    (pct(0.50), pct(0.99), sorted.last().copied().unwrap_or(0))
}

/// One tenant's slice of a [`ServeStats`] snapshot.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant label ([`crate::Request::tenant`]; unlabelled requests land
    /// on [`crate::DEFAULT_TENANT`]).
    pub tenant: String,
    /// Requests this tenant **offered** (accepted into the queue or shed
    /// on arrival) — the shed-rate denominator. Once the queue drains,
    /// `submitted == completed + shed + expired + cancelled + poisoned`
    /// per tenant.
    pub submitted: u64,
    /// Requests whose logits were delivered.
    pub completed: u64,
    /// Requests shed under saturation (displaced from a full lane, or
    /// refused on arrival because everything queued outranked them).
    pub shed: u64,
    /// Requests whose deadline expired while queued.
    pub expired: u64,
    /// Requests cancelled while queued.
    pub cancelled: u64,
    /// Requests quarantined as [`crate::ServeError::Poisoned`]: every
    /// batch containing them panicked, down to the singleton.
    pub poisoned: u64,
    /// Median queueing latency in ticks, over the tenant's most recent
    /// `TENANT_LATENCY_WINDOW` (1024) completions.
    pub p50_latency_ticks: u64,
    /// 99th-percentile queueing latency in ticks (same window).
    pub p99_latency_ticks: u64,
}

impl TenantStats {
    /// Shed requests as a fraction of this tenant's offered load;
    /// `0.0` before any traffic.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }
}

/// A point-in-time snapshot of a [`crate::Server`]'s behaviour.
///
/// Latency is measured in **ticks**, not wall time: the server's clock
/// advances by one on every submission, so "p99 latency of 7 ticks" reads
/// as "99% of requests were dispatched before 7 further submissions
/// arrived". This keeps every number in the snapshot deterministic given
/// a submission/dispatch order, which is what the test harness needs.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests accepted into the queue so far.
    pub submitted: u64,
    /// Requests whose logits were delivered.
    pub completed: u64,
    /// Requests refused at submit time (shutdown).
    pub rejected: u64,
    /// Requests that failed without a typed outcome. Always 0: a panicking
    /// batch is bisected, so its culprits resolve as
    /// [`crate::ServeError::Poisoned`] (counted in `poisoned`) and its
    /// batch-mates complete. Kept as the zero-failure witness:
    /// `tests/serve_chaos.rs` asserts it and the benchmark reports it.
    pub failed: u64,
    /// Requests shed by the admission policy
    /// ([`crate::ServeError::Shed`]); counted across every tenant.
    pub shed: u64,
    /// Requests whose deadline expired while queued
    /// ([`crate::ServeError::Expired`]); dropped before dispatch.
    pub expired: u64,
    /// Requests cancelled while queued ([`crate::Ticket::cancel`]).
    pub cancelled: u64,
    /// Requests quarantined as [`crate::ServeError::Poisoned`]: their
    /// batch panicked, bisection convicted exactly them, and their
    /// batch-mates completed normally.
    pub poisoned: u64,
    /// Panicked worker threads restarted by supervision. The restarted
    /// worker's dispatched batch is restored to the queue, so a restart
    /// loses no requests.
    pub worker_restarts: u64,
    /// Blue-green rollbacks: a promoted version failed to compile for
    /// unpinned traffic and the active pointer degraded to the prior
    /// live version ([`crate::PlanRegistry::rollbacks`]).
    pub rollbacks: u64,
    /// Duplicate wire submissions absorbed by the server's idempotency
    /// ledger: a client retried a request ID it had already submitted
    /// (after a timeout or connection drop) and was handed the original
    /// ticket instead of a second execution.
    pub client_retries: u64,
    /// Requests currently queued (not yet dispatched).
    pub queue_depth: usize,
    /// Requests currently executing in a worker.
    pub in_flight: usize,
    /// Batches dispatched.
    pub batches: u64,
    /// Histogram over batch fill: `(requests per dispatched batch, count)`,
    /// ascending fill.
    pub batch_fill: Vec<(usize, u64)>,
    /// Median queueing latency in ticks, over the most recent
    /// `LATENCY_WINDOW` (4096) completions.
    pub p50_latency_ticks: u64,
    /// 99th-percentile queueing latency in ticks (same window).
    pub p99_latency_ticks: u64,
    /// Worst queueing latency in ticks (same window).
    pub max_latency_ticks: u64,
    /// Per-tenant counters and percentiles, sorted by tenant label.
    pub tenants: Vec<TenantStats>,
    /// Plans compiled by the registry (one per distinct resolved key).
    pub plan_compiles: u64,
    /// `model@scheme` labels of every successfully compiled plan, sorted
    /// (mixed-precision plans carry their run-length schedule label;
    /// re-registered versions a `#v{n}` suffix) — what precision each
    /// served model is actually running at.
    pub plan_schemes: Vec<String>,
    /// Plan lookups served from the warm cache.
    pub plan_hits: u64,
    /// Per-plan [`apnn_nn::WorkspacePool`]s the server has materialized
    /// (one per plan that has executed at least one batch).
    pub workspace_pools: usize,
    /// Execution workspaces created across every pool — the warmed
    /// population. Bounded by `workspace_pools × workers ×
    /// intra_batch_threads` and constant once warm (`workspace_creates`
    /// proves it process-wide).
    pub workspace_pool_size: usize,
    /// Workspace checkouts served across every pool (one per executed
    /// shard).
    pub workspace_checkouts: u64,
    /// Checkouts that blocked waiting for a workspace to return — the
    /// pool-contention signal: a persistently high ratio against
    /// `workspace_checkouts` means the pools are undersized for the
    /// configured parallelism.
    pub workspace_contended: u64,
}

impl ServeStats {
    /// Mean requests per dispatched batch (0.0 before any dispatch).
    pub fn mean_fill(&self) -> f64 {
        let (mut reqs, mut batches) = (0u64, 0u64);
        for &(fill, count) in &self.batch_fill {
            reqs += fill as u64 * count;
            batches += count;
        }
        if batches == 0 {
            0.0
        } else {
            reqs as f64 / batches as f64
        }
    }

    /// The snapshot's slice for `tenant`, if it has sent any traffic.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

impl StatsInner {
    pub(crate) fn record_latency(&mut self, ticks: u64) {
        if self.latencies_ticks.len() == LATENCY_WINDOW {
            self.latencies_ticks.pop_front();
        }
        self.latencies_ticks.push_back(ticks);
    }

    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        in_flight: usize,
        // (compiles, hits, schemes) from the plan cache.
        plan_cache: (u64, u64, Vec<String>),
        // (pools, created, checkouts, contended) aggregated over the
        // server's per-plan workspace pools.
        pool_stats: (usize, usize, u64, u64),
        // (registry rollbacks, wire idempotency hits) — recovery counters
        // owned outside the queue lock.
        recovery: (u64, u64),
    ) -> ServeStats {
        let (p50, p99, max) = percentiles(&self.latencies_ticks);
        let tenants = self
            .tenants
            .iter()
            .map(|(label, t)| {
                let (tp50, tp99, _) = percentiles(&t.latencies_ticks);
                TenantStats {
                    tenant: label.clone(),
                    submitted: t.submitted,
                    completed: t.completed,
                    shed: t.shed,
                    expired: t.expired,
                    cancelled: t.cancelled,
                    poisoned: t.poisoned,
                    p50_latency_ticks: tp50,
                    p99_latency_ticks: tp99,
                }
            })
            .collect();
        ServeStats {
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            failed: self.failed,
            shed: self.shed,
            expired: self.expired,
            cancelled: self.cancelled,
            poisoned: self.poisoned,
            worker_restarts: self.worker_restarts,
            rollbacks: recovery.0,
            client_retries: recovery.1,
            queue_depth,
            in_flight,
            batches: self.batches,
            batch_fill: self.batch_fill.iter().map(|(&f, &c)| (f, c)).collect(),
            p50_latency_ticks: p50,
            p99_latency_ticks: p99,
            max_latency_ticks: max,
            tenants,
            plan_compiles: plan_cache.0,
            plan_hits: plan_cache.1,
            plan_schemes: plan_cache.2,
            workspace_pools: pool_stats.0,
            workspace_pool_size: pool_stats.1,
            workspace_checkouts: pool_stats.2,
            workspace_contended: pool_stats.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_mean_fill() {
        let mut inner = StatsInner {
            latencies_ticks: (1..=100).collect(),
            batches: 8,
            ..Default::default()
        };
        inner.batch_fill.insert(1, 2);
        inner.batch_fill.insert(4, 6);
        inner.poisoned = 2;
        inner.worker_restarts = 1;
        let snap = inner.snapshot(
            3,
            1,
            (
                2,
                9,
                vec!["M@APNN-w1a2".to_string(), "M@APNN-w2a2".to_string()],
            ),
            (2, 5, 40, 3),
            (4, 6),
        );
        assert_eq!(snap.poisoned, 2);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.rollbacks, 4);
        assert_eq!(snap.client_retries, 6);
        assert_eq!(snap.p50_latency_ticks, 50);
        assert_eq!(snap.p99_latency_ticks, 99);
        assert_eq!(snap.max_latency_ticks, 100);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.plan_compiles, 2);
        assert_eq!(snap.plan_hits, 9);
        assert_eq!(snap.plan_schemes.len(), 2);
        assert_eq!(snap.workspace_pools, 2);
        assert_eq!(snap.workspace_pool_size, 5);
        assert_eq!(snap.workspace_checkouts, 40);
        assert_eq!(snap.workspace_contended, 3);
        let mean = snap.mean_fill();
        assert!((mean - 26.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn latency_window_is_bounded() {
        let mut inner = StatsInner::default();
        for i in 0..(LATENCY_WINDOW as u64 + 10) {
            inner.record_latency(i);
        }
        assert_eq!(inner.latencies_ticks.len(), LATENCY_WINDOW);
        // Oldest entries fell out of the window.
        assert_eq!(inner.latencies_ticks.front().copied(), Some(10));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = StatsInner::default().snapshot(0, 0, (0, 0, Vec::new()), (0, 0, 0, 0), (0, 0));
        assert_eq!(snap.p50_latency_ticks, 0);
        assert_eq!(snap.p99_latency_ticks, 0);
        assert_eq!(snap.mean_fill(), 0.0);
        assert!(snap.tenants.is_empty());
        assert_eq!(
            snap.poisoned + snap.worker_restarts + snap.rollbacks + snap.client_retries,
            0
        );
    }

    #[test]
    fn tenant_slices_carry_counters_percentiles_and_shed_rate() {
        let mut inner = StatsInner::default();
        {
            let a = inner.tenant("alpha");
            a.submitted = 40;
            a.completed = 23;
            a.shed = 10;
            a.expired = 4;
            a.cancelled = 2;
            a.poisoned = 1;
            for t in 1..=10 {
                a.record_latency(t);
            }
        }
        inner.tenant("beta").submitted = 1;
        let snap = inner.snapshot(0, 0, (0, 0, Vec::new()), (0, 0, 0, 0), (0, 0));
        assert_eq!(snap.tenants.len(), 2);
        // BTreeMap ordering: deterministic tenant order by label.
        assert_eq!(snap.tenants[0].tenant, "alpha");
        assert_eq!(snap.tenants[1].tenant, "beta");
        let a = snap.tenant("alpha").unwrap();
        assert_eq!(a.submitted, 40);
        assert_eq!(a.completed, 23);
        assert_eq!(a.expired, 4);
        assert_eq!(a.cancelled, 2);
        assert_eq!(a.poisoned, 1);
        // Every offer resolved to exactly one outcome.
        assert_eq!(
            a.completed + a.shed + a.expired + a.cancelled + a.poisoned,
            a.submitted
        );
        assert_eq!(a.p50_latency_ticks, 5);
        assert_eq!(a.p99_latency_ticks, 10);
        assert!((a.shed_rate() - 10.0 / 40.0).abs() < 1e-12);
        assert_eq!(snap.tenant("beta").unwrap().shed_rate(), 0.0);
        assert!(snap.tenant("gamma").is_none());
    }

    #[test]
    fn tenant_latency_window_is_bounded() {
        let mut inner = StatsInner::default();
        let t = inner.tenant("a");
        for i in 0..(TENANT_LATENCY_WINDOW as u64 + 5) {
            t.record_latency(i);
        }
        assert_eq!(t.latencies_ticks.len(), TENANT_LATENCY_WINDOW);
        assert_eq!(t.latencies_ticks.front().copied(), Some(5));
    }
}
