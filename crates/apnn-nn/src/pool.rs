//! [`WorkspacePool`]: a bounded, contention-counted pool of plan-sized
//! [`ExecWorkspace`]s — the piece that lets the zero-allocation arenas of
//! the workspace refactor and the batch parallelism of the serving tier
//! finally compose.
//!
//! One [`ExecWorkspace`] serves one shard at a time; APNN-TC's throughput
//! comes from running many bit-serial tiles concurrently across SMs with
//! batch-based double caching (§4.2(b)). The pool is the reproduction's
//! analogue of that per-SM buffer set: a fixed population of plan-sized
//! arenas, each checked out by whichever thread (serve worker or rayon
//! pool participant) executes the next shard, and returned when the shard
//! completes. The pool *warms* to at most [`WorkspacePool::max`]
//! workspaces — every construction bumps the process-wide
//! `apnn_kernels::stats::workspace_creates` counter, so tests can prove
//! the population stops growing — and steady-state checkout/checkin is a
//! mutex-guarded `Vec` pop/push: **zero heap allocations**.
//!
//! Checkout order is LIFO (most-recently-returned workspace first), which
//! keeps the hottest arena's cache lines in play under low concurrency.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use apnn_bitpack::{BitTensor4, Encoding};

use crate::compile::{CompiledNet, ExecWorkspace};

/// A bounded pool of plan-sized execution workspaces plus per-workspace
/// shard-staging buffers. See the module docs for the checkout protocol.
///
/// The pool is bound to the identity of the plan it was built for (model,
/// scheme, compiled batch); checking out with a different plan panics, the
/// same contract as [`ExecWorkspace`] itself.
pub struct WorkspacePool {
    model: String,
    scheme: String,
    batch: usize,
    max: usize,
    idle: Mutex<Vec<PoolSlot>>,
    available: Condvar,
    /// Workspaces created so far (monotone, ≤ `max`).
    created: AtomicUsize,
    /// Total checkouts served.
    checkouts: AtomicU64,
    /// Checkouts that had to *wait* for a workspace to come back (the pool
    /// was warm to `max` and every workspace was out).
    contended: AtomicU64,
}

/// One pooled unit: the execution arena plus the shard-staging input
/// tensor and nothing else — logits land directly in the caller's output
/// slice, so no per-slot result buffer is needed.
pub(crate) struct PoolSlot {
    pub(crate) ws: ExecWorkspace,
    /// Shard input staging buffer (born empty; grown to the plan's full
    /// batch geometry on first use, then reused for any shard width).
    pub(crate) input: BitTensor4,
}

/// Point-in-time counters of a [`WorkspacePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspacePoolStats {
    /// Upper bound on the workspace population.
    pub max: usize,
    /// Workspaces created so far (the pool's warmed size, ≤ `max`).
    pub created: usize,
    /// Workspaces currently checked in (idle).
    pub idle: usize,
    /// Checkouts served in total.
    pub checkouts: u64,
    /// Checkouts that blocked waiting for a workspace.
    pub contended: u64,
}

impl WorkspacePool {
    /// A pool for `plan` holding at most `max` workspaces. Workspaces are
    /// created lazily on demand (each creation counts one
    /// `workspace_creates`), so a pool sized generously but used gently
    /// stays small.
    pub fn new(plan: &CompiledNet, max: usize) -> Self {
        assert!(max >= 1, "workspace pool must hold at least one workspace");
        WorkspacePool {
            model: plan.model.clone(),
            scheme: plan.scheme.clone(),
            batch: plan.batch(),
            max,
            idle: Mutex::new(Vec::with_capacity(max)),
            available: Condvar::new(),
            created: AtomicUsize::new(0),
            checkouts: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Upper bound on the workspace population.
    pub fn max(&self) -> usize {
        self.max
    }

    /// Snapshot the pool counters.
    pub fn stats(&self) -> WorkspacePoolStats {
        WorkspacePoolStats {
            max: self.max,
            created: self.created.load(Ordering::Relaxed),
            idle: self.lock_idle().len(),
            checkouts: self.checkouts.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }

    /// Check a workspace out for one shard of `plan`. Pops an idle
    /// workspace if one exists, creates one if the population is below
    /// `max`, and otherwise blocks until a shard in flight returns its
    /// workspace (counted in [`WorkspacePoolStats::contended`]). The guard
    /// checks the workspace back in on drop.
    pub fn checkout(&self, plan: &CompiledNet) -> PooledWorkspace<'_> {
        assert!(
            self.model == plan.model && self.scheme == plan.scheme && self.batch == plan.batch(),
            "workspace pool was built for `{}@{}` (batch {}); got `{}@{}` (batch {})",
            self.model,
            self.scheme,
            self.batch,
            plan.model,
            plan.scheme,
            plan.batch(),
        );
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let mut idle = self.lock_idle();
        let mut waited = false;
        loop {
            if let Some(slot) = idle.pop() {
                return PooledWorkspace {
                    pool: self,
                    slot: Some(slot),
                };
            }
            // `created` is only mutated under the `idle` lock, so this
            // check-then-create cannot overshoot `max`.
            if self.created.load(Ordering::Relaxed) < self.max {
                self.created.fetch_add(1, Ordering::Relaxed);
                drop(idle);
                // Size the staging buffer at the plan's full coalescing
                // width up front (map-front plans advertise their input
                // geometry), so a slot first used mid-steady-state never
                // grows it — the parallel zero-allocation property must not
                // depend on which slot a racing checkout happens to win.
                let input = match plan.input_map_spec() {
                    Some((h, w, c, bits, enc)) => {
                        BitTensor4::zeros(self.batch.max(1), h, w, c, bits, enc)
                    }
                    None => BitTensor4::zeros(0, 1, 1, 1, 1, Encoding::ZeroOne),
                };
                return PooledWorkspace {
                    pool: self,
                    slot: Some(PoolSlot {
                        ws: plan.workspace(),
                        input,
                    }),
                };
            }
            if !waited {
                waited = true;
                self.contended.fetch_add(1, Ordering::Relaxed);
            }
            idle = self.available.wait(idle).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn checkin(&self, slot: PoolSlot) {
        let mut idle = self.lock_idle();
        debug_assert!(idle.len() < self.max, "more checkins than checkouts");
        idle.push(slot); // capacity pre-reserved at `max`: no allocation
        drop(idle);
        self.available.notify_one();
    }

    fn lock_idle(&self) -> MutexGuard<'_, Vec<PoolSlot>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspacePool")
            .field("plan", &format_args!("{}@{}", self.model, self.scheme))
            .field("batch", &self.batch)
            .field("stats", &self.stats())
            .finish()
    }
}

/// RAII checkout guard from [`WorkspacePool::checkout`]; returns the
/// workspace to the pool on drop (panic-safe: a shard that unwinds still
/// checks its workspace back in).
pub struct PooledWorkspace<'p> {
    pool: &'p WorkspacePool,
    slot: Option<PoolSlot>,
}

impl PooledWorkspace<'_> {
    /// Split into the workspace and the shard-staging tensor (disjoint
    /// borrows, so a staged shard can be executed against the workspace).
    pub(crate) fn parts_mut(&mut self) -> (&mut ExecWorkspace, &mut BitTensor4) {
        let slot = self.slot.as_mut().expect("slot present until drop");
        (&mut slot.ws, &mut slot.input)
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.pool.checkin(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompileOptions;
    use crate::layer::LayerSpec as L;
    use crate::net::Network;
    use crate::precision::NetPrecision;

    fn tiny_plan() -> CompiledNet {
        let net = Network::new("tiny", 3, 8, 8)
            .push(L::conv("c1", 8, 3, 1, 1))
            .push(L::Relu)
            .push(L::QuantizeActs)
            .push(L::Flatten)
            .push(L::linear("fc", 5));
        CompiledNet::compile(
            &net,
            NetPrecision::w1a2(),
            &CompileOptions::functional(4, 3),
        )
    }

    #[test]
    fn pool_warms_lazily_and_reuses_lifo() {
        let plan = tiny_plan();
        let pool = WorkspacePool::new(&plan, 4);
        assert_eq!(pool.stats().created, 0, "construction creates nothing");
        {
            let _a = pool.checkout(&plan);
            let _b = pool.checkout(&plan);
            assert_eq!(pool.stats().created, 2);
        }
        // Both returned; further checkouts reuse, never grow.
        for _ in 0..10 {
            let _c = pool.checkout(&plan);
        }
        let s = pool.stats();
        assert_eq!(s.created, 2);
        assert_eq!(s.idle, 2);
        assert_eq!(s.checkouts, 12);
        assert_eq!(s.contended, 0);
    }

    #[test]
    fn exhausted_pool_blocks_until_checkin_and_counts_contention() {
        let plan = tiny_plan();
        let pool = std::sync::Arc::new(WorkspacePool::new(&plan, 1));
        let held = pool.checkout(&plan);
        let waiter = {
            let pool = std::sync::Arc::clone(&pool);
            let plan = plan.clone();
            std::thread::spawn(move || {
                let _w = pool.checkout(&plan); // must block until `held` drops
            })
        };
        // Give the waiter time to park, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(held);
        waiter.join().unwrap();
        let s = pool.stats();
        assert_eq!(s.created, 1, "population never exceeds max");
        assert_eq!(s.contended, 1, "the waiter was counted");
        assert_eq!(s.idle, 1);
    }

    #[test]
    #[should_panic(expected = "workspace pool was built for")]
    fn pool_is_bound_to_its_plan() {
        let plan = tiny_plan();
        let other = {
            let net = Network::new("tiny", 3, 8, 8)
                .push(L::conv("c1", 8, 3, 1, 1))
                .push(L::Relu)
                .push(L::QuantizeActs)
                .push(L::Flatten)
                .push(L::linear("fc", 5));
            CompiledNet::compile(
                &net,
                NetPrecision::w1a2(),
                &CompileOptions::functional(2, 3),
            )
        };
        let pool = WorkspacePool::new(&plan, 1);
        let _ = pool.checkout(&other);
    }
}
