//! Counters for compile-time vs. serve-time work.
//!
//! The compiled-plan execution model (see `apnn-nn`'s `compile` module)
//! promises that expensive per-layer preparation — tile autotuning, weight
//! packing, correction-vector precomputation — happens once at compile time
//! and never in the `infer()` hot loop. These counters make that promise
//! testable: snapshot them after compilation, run inference, and assert
//! they did not move.
//!
//! Two views exist:
//!
//! * the historical **process-wide** totals ([`autotune_calls`],
//!   [`weight_prepares`]) — monotone across every thread, useful for
//!   coarse "compiling moves the counters" sanity checks;
//! * a **per-scope** view ([`scope`] → [`StatsScope`]) backed by
//!   thread-local counters, so concurrent test binaries and `apnn-serve`
//!   worker threads can each assert "no preparation happened *here*"
//!   without serializing on a global lock or reading each other's work.
//!
//! Preparation always happens on the thread that calls `compile()` /
//! `prepare()` (the kernels never defer packing to a pool thread), so a
//! scope opened before a compile on the same thread observes exactly that
//! compile's work and nothing else.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static AUTOTUNE_CALLS: AtomicU64 = AtomicU64::new(0);
static WEIGHT_PREPARES: AtomicU64 = AtomicU64::new(0);
static ROW_SUM_BUILDS: AtomicU64 = AtomicU64::new(0);
static WORKSPACE_CREATES: AtomicU64 = AtomicU64::new(0);
static MICRO_TUNES: AtomicU64 = AtomicU64::new(0);
static MICRO_BENCHES: AtomicU64 = AtomicU64::new(0);
static MICRO_MEMO_RESIDENT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_AUTOTUNE: Cell<u64> = const { Cell::new(0) };
    static TL_PREPARES: Cell<u64> = const { Cell::new(0) };
    static TL_ROW_SUMS: Cell<u64> = const { Cell::new(0) };
    static TL_MICRO_TUNES: Cell<u64> = const { Cell::new(0) };
    static TL_MICRO_BENCHES: Cell<u64> = const { Cell::new(0) };
}

/// Total [`crate::autotune::autotune`] invocations in this process.
pub fn autotune_calls() -> u64 {
    AUTOTUNE_CALLS.load(Ordering::Relaxed)
}

/// Total prepared-kernel constructions (weight packing + correction
/// precomputation) in this process.
pub fn weight_prepares() -> u64 {
    WEIGHT_PREPARES.load(Ordering::Relaxed)
}

/// Total weight-side correction-vector (`W·J` row sum, §3.2) builds in
/// this process. Prepared kernels build these once at prepare time; the
/// ad-hoc entry points rebuild them per call — the counter is how tests
/// prove the hoist (exactly one build per plan, zero during inference).
pub fn row_sum_builds() -> u64 {
    ROW_SUM_BUILDS.load(Ordering::Relaxed)
}

/// Total CPU-microkernel tile selections
/// ([`crate::autotune::select_micro`] calls) in this process. Compiled
/// plans pick one row-block tile per layer at compile time and never in
/// the hot loop — the counter is how tests prove the hoist, exactly like
/// [`row_sum_builds`].
pub fn micro_tunes() -> u64 {
    MICRO_TUNES.load(Ordering::Relaxed)
}

/// Total microkernel **measurements** in this process: timed
/// single-candidate probes run by [`crate::autotune::stage_cost`] (the
/// precision autotuner's cost oracle) on a memo miss. Tile selection is a
/// closed form and never measures, so compiling and serving plans leave
/// this at 0.
pub fn micro_benches() -> u64 {
    MICRO_BENCHES.load(Ordering::Relaxed)
}

/// Entries currently resident in the process-global
/// [`crate::autotune::stage_cost`] probe memo. A gauge, not a counter: the
/// map is bounded at [`crate::autotune::MICRO_MEMO_CAP`] entries with FIFO
/// eviction.
pub fn micro_memo_resident() -> u64 {
    MICRO_MEMO_RESIDENT.load(Ordering::Relaxed)
}

pub(crate) fn set_micro_memo_resident(n: u64) {
    MICRO_MEMO_RESIDENT.store(n, Ordering::Relaxed);
}

/// Total execution-workspace constructions in this process (see
/// `apnn_nn::compile::ExecWorkspace`). A long-running server should show
/// one per (worker thread, plan) pair, regardless of how many batches it
/// executes — the counter is how serve tests prove per-worker reuse.
pub fn workspace_creates() -> u64 {
    WORKSPACE_CREATES.load(Ordering::Relaxed)
}

/// Open a counting scope on the **current thread**. Deltas read from the
/// returned [`StatsScope`] cover only work performed by this thread after
/// this call — other threads (parallel tests, serve workers) cannot
/// perturb them.
pub fn scope() -> StatsScope {
    StatsScope {
        autotune0: TL_AUTOTUNE.get(),
        prepares0: TL_PREPARES.get(),
        row_sums0: TL_ROW_SUMS.get(),
        micro0: TL_MICRO_TUNES.get(),
        bench0: TL_MICRO_BENCHES.get(),
        _thread_bound: std::marker::PhantomData,
    }
}

/// A snapshot handle from [`scope`]: reports how much preparation work the
/// current thread performed since the scope was opened. Plain reads — a
/// scope can be consulted repeatedly and scopes may nest freely.
///
/// Deliberately `!Send`/`!Sync` (raw-pointer marker): the baselines are
/// thread-local, so reading a scope from another thread would compare
/// against the wrong counters. The contract is enforced at compile time.
#[derive(Debug, Clone, Copy)]
pub struct StatsScope {
    autotune0: u64,
    prepares0: u64,
    row_sums0: u64,
    micro0: u64,
    bench0: u64,
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl StatsScope {
    /// Autotune invocations on this thread since the scope opened.
    pub fn autotune_calls(&self) -> u64 {
        TL_AUTOTUNE.get() - self.autotune0
    }

    /// Prepared-kernel constructions on this thread since the scope opened.
    pub fn weight_prepares(&self) -> u64 {
        TL_PREPARES.get() - self.prepares0
    }

    /// Weight-side correction-vector builds on this thread since the scope
    /// opened.
    pub fn row_sum_builds(&self) -> u64 {
        TL_ROW_SUMS.get() - self.row_sums0
    }

    /// Microkernel tile selections on this thread since the scope opened.
    pub fn micro_tunes(&self) -> u64 {
        TL_MICRO_TUNES.get() - self.micro0
    }

    /// Microkernel tile measurements (timed candidate sweeps) on this thread
    /// since the scope opened.
    pub fn micro_benches(&self) -> u64 {
        TL_MICRO_BENCHES.get() - self.bench0
    }
}

pub(crate) fn count_autotune() {
    AUTOTUNE_CALLS.fetch_add(1, Ordering::Relaxed);
    TL_AUTOTUNE.set(TL_AUTOTUNE.get() + 1);
}

pub(crate) fn count_weight_prepare() {
    WEIGHT_PREPARES.fetch_add(1, Ordering::Relaxed);
    TL_PREPARES.set(TL_PREPARES.get() + 1);
}

pub(crate) fn count_row_sums_build() {
    ROW_SUM_BUILDS.fetch_add(1, Ordering::Relaxed);
    TL_ROW_SUMS.set(TL_ROW_SUMS.get() + 1);
}

pub(crate) fn count_micro_tune() {
    MICRO_TUNES.fetch_add(1, Ordering::Relaxed);
    TL_MICRO_TUNES.set(TL_MICRO_TUNES.get() + 1);
}

pub(crate) fn count_micro_bench() {
    MICRO_BENCHES.fetch_add(1, Ordering::Relaxed);
    TL_MICRO_BENCHES.set(TL_MICRO_BENCHES.get() + 1);
}

/// Record one execution-workspace construction. Called by the workspace
/// constructors in higher layers (`apnn-nn`); not meant for user code.
#[doc(hidden)]
pub fn record_workspace_create() {
    WORKSPACE_CREATES.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Heap-allocation accounting.
// ---------------------------------------------------------------------------

static HEAP_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A counting [`std::alloc::GlobalAlloc`] wrapper around the system
/// allocator. Register it in a test binary —
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: apnn_kernels::stats::CountingAllocator = CountingAllocator::new();
/// ```
///
/// — and every heap allocation (and growing reallocation) in the process
/// increments a counter readable through [`heap_allocations`] /
/// [`alloc_scope`]. This is the instrument behind the zero-allocation
/// steady-state contract: warm a workspace, open a scope, run inference,
/// assert the delta is zero. Deallocations are not counted (freeing is
/// allowed; *asking the allocator for memory* on the hot path is not).
///
/// The counter is deliberately **process-wide**, not thread-local: the
/// contract covers helper threads too, so an allocation sneaking onto a
/// pool thread still fails the assertion.
pub struct CountingAllocator;

impl CountingAllocator {
    /// A new counting allocator (const, usable in `static` position).
    pub const fn new() -> Self {
        CountingAllocator
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation verbatim to `std::alloc::System`; the
// only addition is a relaxed counter increment, which never unwinds.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        HEAP_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        HEAP_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        HEAP_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}

/// Total heap allocations observed so far. Always 0 unless the binary
/// registered [`CountingAllocator`] as its `#[global_allocator]`.
pub fn heap_allocations() -> u64 {
    HEAP_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Open a process-wide allocation-counting scope (see
/// [`CountingAllocator`] for the registration requirement).
pub fn alloc_scope() -> AllocScope {
    AllocScope {
        start: heap_allocations(),
    }
}

/// Snapshot handle from [`alloc_scope`]: how many heap allocations the
/// whole process performed since the scope opened.
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start: u64,
}

impl AllocScope {
    /// Allocations since the scope opened.
    pub fn allocations(&self) -> u64 {
        heap_allocations() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let a0 = autotune_calls();
        count_autotune();
        assert!(autotune_calls() > a0);
        let w0 = weight_prepares();
        count_weight_prepare();
        assert!(weight_prepares() > w0);
        let r0 = row_sum_builds();
        count_row_sums_build();
        assert!(row_sum_builds() > r0);
        let ws0 = workspace_creates();
        record_workspace_create();
        assert!(workspace_creates() > ws0);
        let m0 = micro_tunes();
        count_micro_tune();
        assert!(micro_tunes() > m0);
        let b0 = micro_benches();
        count_micro_bench();
        assert!(micro_benches() > b0);
    }

    #[test]
    fn row_sum_scope_tracks_thread_deltas() {
        let s = scope();
        assert_eq!(s.row_sum_builds(), 0);
        count_row_sums_build();
        assert_eq!(s.row_sum_builds(), 1);
    }

    #[test]
    fn alloc_scope_is_inert_without_the_global_allocator() {
        // This test binary uses the default allocator, so the counter never
        // moves — the scope API itself must still be well-behaved.
        let s = alloc_scope();
        let _v: Vec<u64> = Vec::with_capacity(1024);
        assert_eq!(s.allocations(), 0);
    }

    #[test]
    fn scopes_see_own_thread_deltas_only() {
        let s = scope();
        count_autotune();
        count_weight_prepare();
        assert_eq!(s.autotune_calls(), 1);
        assert_eq!(s.weight_prepares(), 1);

        // Work on another thread is invisible to this scope.
        std::thread::spawn(|| {
            count_autotune();
            count_weight_prepare();
        })
        .join()
        .unwrap();
        assert_eq!(s.autotune_calls(), 1);
        assert_eq!(s.weight_prepares(), 1);

        // Nested scope starts from zero.
        let inner = scope();
        assert_eq!(inner.autotune_calls(), 0);
        count_autotune();
        assert_eq!(inner.autotune_calls(), 1);
        assert_eq!(s.autotune_calls(), 2);
    }
}
