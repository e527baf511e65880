//! Offline shim for the `rayon` crate.
//!
//! The vendored registry is unavailable in this build environment, so this
//! workspace ships a minimal, dependency-free implementation of the rayon
//! API surface the APNN-TC codebase actually uses:
//!
//! * `slice.par_chunks_mut(n).enumerate().for_each(f)` — the kernel inner
//!   loops (APMM rows, APConv pixels, baseline GEMM rows) and the
//!   batch-shard fan-out of `apnn_nn::CompiledNet::infer_batched_into`;
//! * [`current_num_threads`] — pool sizing for batch sharding.
//!
//! Parallelism is real and, like upstream rayon, runs on a **persistent
//! global worker pool**: `current_num_threads() - 1` workers are spawned
//! lazily on the first parallel call and then reused for every later one.
//! Dispatch is allocation-free — the job is published as a type-erased
//! borrowed closure, participants claim chunks through an atomic counter,
//! and completion is signalled over a condvar — so the steady-state
//! zero-heap-allocation contract of the serving tier (`tests/zero_alloc.rs`)
//! holds *through* parallel sections, not just around them. Semantics match
//! rayon for the supported calls: each chunk is visited exactly once, with
//! its index; a panic in any chunk propagates to the caller after the
//! dispatch drains.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads the shim pool will use (including the calling
/// thread). Like real rayon's global pool, `RAYON_NUM_THREADS` overrides
/// the core count (read once; the CI test matrix pins it to 1 and 4 so
/// threading bugs cannot hide behind one default width).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// The subset of `rayon::prelude` this workspace imports.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// Lazily-built parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

/// [`ParChunksMut`] with chunk indices attached.
pub struct EnumerateParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T> ParChunksMut<'a, T> {
    /// Attach the chunk index, matching `rayon`'s `enumerate()`.
    pub fn enumerate(self) -> EnumerateParChunksMut<'a, T> {
        EnumerateParChunksMut {
            slice: self.slice,
            chunk: self.chunk,
        }
    }

    /// Visit every chunk (without indices) in parallel.
    pub fn for_each<F>(self, f: F)
    where
        T: Send,
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Raw slice base shared with pool workers; chunk claims are disjoint by
/// construction (each index is handed out exactly once by the atomic
/// counter), so concurrent `&mut [T]` reconstruction is sound.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only ever turned back into `&mut [T]` chunks, each
// on exactly one thread (the atomic counter hands every chunk index out
// once), so moving it to another thread moves at most `&mut [T]` access —
// sound exactly when `T: Send`, which the bound requires.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` only shares the address; no participant reads
// or writes through it except via its own disjoint claimed chunk (see the
// `Send` impl), so shared access never aliases a `&mut [T]`.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<'a, T> EnumerateParChunksMut<'a, T> {
    /// Visit every `(index, chunk)` pair in parallel.
    pub fn for_each<F>(self, f: F)
    where
        T: Send,
        F: Fn((usize, &mut [T])) + Sync,
    {
        self.for_each_init(|| (), |(), item| f(item));
    }

    /// Visit every `(index, chunk)` pair in parallel, threading a
    /// per-participant state built by `init` (matching rayon's
    /// `for_each_init`): each participant builds one state and reuses it
    /// across every chunk it claims — the hook the kernels use to hoist a
    /// stack accumulator tile out of the per-chunk work.
    pub fn for_each_init<I, S, F>(self, init: I, f: F)
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, (usize, &mut [T])) + Sync,
    {
        let len = self.slice.len();
        let chunk = self.chunk;
        if len == 0 {
            return;
        }
        let n_chunks = len.div_ceil(chunk);
        if n_chunks <= 1 || current_num_threads() <= 1 || pool::in_pool() {
            let mut state = init();
            for (i, c) in self.slice.chunks_mut(chunk).enumerate() {
                f(&mut state, (i, c));
            }
            return;
        }
        let base = SendPtr(self.slice.as_mut_ptr());
        let next = std::sync::atomic::AtomicUsize::new(0);
        // Work-stealing body run by the caller and every pool worker: claim
        // chunk indices until the counter runs past the end. No allocation
        // beyond whatever `init` itself performs, once per participant.
        let work = move || {
            let mut state = init();
            loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let start = i * chunk;
                let end = (start + chunk).min(len);
                // SAFETY: `i` is claimed exactly once, so `[start, end)`
                // ranges never overlap between participants; `base` outlives
                // the dispatch because `pool::run` joins every participant
                // before returning.
                let s =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                f(&mut state, (i, s));
            }
        };
        pool::run(&work);
    }
}

/// The persistent worker pool behind every parallel dispatch.
mod pool {
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

    thread_local! {
        /// Set on pool worker threads (and on the caller while it executes
        /// a dispatch). Nested parallel calls run inline instead of
        /// deadlocking on the single job slot — real rayon gets the same
        /// effect from its shared work-stealing pool.
        static IN_POOL: Cell<bool> = const { Cell::new(false) };
    }

    /// Is the current thread already inside a pool dispatch?
    pub(crate) fn in_pool() -> bool {
        IN_POOL.get()
    }

    /// Type-erased borrowed job closure. The raw pointer is only
    /// dereferenced between publication and the `running == 0`
    /// acknowledgement, during which the caller keeps the referent alive.
    #[derive(Clone, Copy)]
    struct Job(*const (dyn Fn() + Sync + 'static));
    // SAFETY: a `Job` is only dereferenced as `&(dyn Fn() + Sync)`, and
    // `Sync` makes calling the closure from any thread sound; the pointee
    // outlives every such call because `run` waits for `running == 0`
    // before returning (see the struct docs).
    unsafe impl Send for Job {}

    struct Ctrl {
        /// Incremented once per published job; workers run each epoch once.
        epoch: u64,
        job: Option<Job>,
        /// Workers still executing the current epoch.
        running: usize,
        /// First worker panic of the current epoch (rethrown by the caller).
        panic: Option<Box<dyn std::any::Any + Send>>,
    }

    struct Pool {
        ctrl: Mutex<Ctrl>,
        /// Workers wait here for a new epoch.
        work: Condvar,
        /// The caller waits here for `running` to reach zero.
        done: Condvar,
        /// Serializes dispatches; a busy pool makes callers run inline.
        submit: Mutex<()>,
        workers: usize,
    }

    fn lock(m: &Mutex<Ctrl>) -> MutexGuard<'_, Ctrl> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The global pool: `current_num_threads() - 1` detached workers,
    /// spawned once on first use (`None` when one thread means no pool).
    fn get() -> Option<&'static Pool> {
        static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
        *POOL.get_or_init(|| {
            let workers = crate::current_num_threads().saturating_sub(1);
            if workers == 0 {
                return None;
            }
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                ctrl: Mutex::new(Ctrl {
                    epoch: 0,
                    job: None,
                    running: 0,
                    panic: None,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                submit: Mutex::new(()),
                workers,
            }));
            for i in 0..workers {
                std::thread::Builder::new()
                    .name(format!("apnn-rayon-{i}"))
                    .spawn(move || worker_loop(pool))
                    .expect("spawn shim pool worker");
            }
            Some(pool)
        })
    }

    fn worker_loop(pool: &'static Pool) {
        IN_POOL.set(true);
        let mut seen = 0u64;
        loop {
            let job = {
                let mut c = lock(&pool.ctrl);
                while c.epoch == seen {
                    c = pool.work.wait(c).unwrap_or_else(|e| e.into_inner());
                }
                seen = c.epoch;
                c.job.expect("epoch advanced without a job").0
            };
            // SAFETY: the publishing caller keeps the closure alive until
            // every worker acknowledged this epoch (running == 0) below.
            let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job)() }));
            let mut c = lock(&pool.ctrl);
            if let Err(payload) = result {
                if c.panic.is_none() {
                    c.panic = Some(payload);
                }
            }
            c.running -= 1;
            if c.running == 0 {
                pool.done.notify_all();
            }
        }
    }

    /// Run `work` on the caller plus every pool worker (each participant is
    /// expected to claim work items from a shared atomic counter). Falls
    /// back to running `work` inline — still visiting every item — when the
    /// pool is unavailable, busy with another dispatch, or the caller is
    /// itself a pool worker. Steady-state dispatches perform zero heap
    /// allocations; panics from any participant propagate after the
    /// dispatch drains.
    pub(crate) fn run(work: &(dyn Fn() + Sync)) {
        if in_pool() {
            work();
            return;
        }
        let Some(pool) = get() else {
            work();
            return;
        };
        let Ok(guard) = pool.submit.try_lock() else {
            // Another thread owns the pool right now (e.g. two serve
            // workers dispatching concurrently); degrade to inline rather
            // than queueing — the counter-claim body visits every item
            // either way.
            work();
            return;
        };
        // SAFETY: lifetime erasure only — `run` does not return until every
        // worker finished the epoch, so the borrow outlives all uses.
        let job = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                work as *const (dyn Fn() + Sync),
            )
        });
        {
            let mut c = lock(&pool.ctrl);
            c.job = Some(job);
            c.epoch += 1;
            c.running = pool.workers;
        }
        pool.work.notify_all();
        IN_POOL.set(true);
        let caller_result = panic::catch_unwind(AssertUnwindSafe(work));
        IN_POOL.set(false);
        let worker_panic = {
            let mut c = lock(&pool.ctrl);
            while c.running > 0 {
                c = pool.done.wait(c).unwrap_or_else(|e| e.into_inner());
            }
            c.job = None;
            c.panic.take()
        };
        drop(guard);
        if let Err(payload) = caller_result {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }
}

/// Parallel mutable chunking over slices — the `rayon::prelude` entry point.
pub trait ParallelSliceMut<T> {
    /// Split into chunks of `chunk` elements (last may be shorter), visited
    /// in parallel.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be nonzero");
        ParChunksMut { slice: self, chunk }
    }
}

impl<T> ParallelSliceMut<T> for Vec<T> {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        self.as_mut_slice().par_chunks_mut(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_init_builds_one_state_per_participant() {
        let mut v = vec![0u32; 64];
        let inits = std::sync::atomic::AtomicUsize::new(0);
        v.par_chunks_mut(4).enumerate().for_each_init(
            || {
                inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                [0u32; 8]
            },
            |scratch, (i, chunk)| {
                scratch[0] = i as u32 + 1;
                for c in chunk.iter_mut() {
                    *c = scratch[0];
                }
            },
        );
        for (pos, &x) in v.iter().enumerate() {
            assert_eq!(x, (pos / 4) as u32 + 1);
        }
        // One state per dispatch participant (caller + pool workers), not
        // one per chunk.
        assert!(inits.load(std::sync::atomic::Ordering::Relaxed) <= current_num_threads() + 1);
    }

    #[test]
    fn chunks_visited_exactly_once_with_indices() {
        let mut v = vec![0u32; 1037];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for e in chunk.iter_mut() {
                *e += i as u32 + 1;
            }
        });
        for (pos, e) in v.iter().enumerate() {
            assert_eq!(*e, (pos / 10) as u32 + 1);
        }
    }

    #[test]
    fn small_slices_run_inline() {
        let mut v = vec![1i32; 3];
        v.par_chunks_mut(8)
            .for_each(|c| c.iter_mut().for_each(|e| *e = 2));
        assert_eq!(v, vec![2, 2, 2]);
    }

    #[test]
    fn nested_parallelism_runs_inner_level_inline() {
        // Outer par over 8 chunks, each running an inner par over its 64
        // elements: every element must still be visited exactly once, with
        // the inner level inlined on the worker thread (no cores² spawns).
        let mut v = vec![0u32; 8 * 64];
        v.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| {
            chunk.par_chunks_mut(4).enumerate().for_each(|(j, inner)| {
                for e in inner.iter_mut() {
                    *e += (i * 100 + j) as u32 + 1;
                }
            });
        });
        for (pos, e) in v.iter().enumerate() {
            let (i, j) = (pos / 64, (pos % 64) / 4);
            assert_eq!(*e, (i * 100 + j) as u32 + 1, "element {pos}");
        }
    }

    #[test]
    fn repeated_dispatches_reuse_the_pool() {
        // Many rounds through the persistent pool: every round must visit
        // every chunk exactly once (exercises epoch/wakeup bookkeeping).
        for round in 0..200u32 {
            let mut v = vec![0u32; 64];
            v.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
                for e in chunk.iter_mut() {
                    *e = round * 100 + i as u32;
                }
            });
            for (pos, e) in v.iter().enumerate() {
                assert_eq!(*e, round * 100 + (pos / 4) as u32, "round {round}");
            }
        }
    }

    #[test]
    fn concurrent_dispatchers_all_complete() {
        // Several threads fighting over the single job slot: losers of the
        // try_lock degrade to inline execution; all must finish with every
        // chunk visited exactly once.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut v = vec![0u64; 512];
                    v.par_chunks_mut(16).enumerate().for_each(|(i, chunk)| {
                        for e in chunk.iter_mut() {
                            *e += (t * 1000 + i) as u64 + 1;
                        }
                    });
                    for (pos, e) in v.iter().enumerate() {
                        assert_eq!(*e, (t * 1000 + pos / 16) as u64 + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn panics_propagate_to_the_dispatching_caller() {
        let caught = std::panic::catch_unwind(|| {
            let mut v = vec![0u32; 128];
            v.par_chunks_mut(8).enumerate().for_each(|(i, _)| {
                if i == 7 {
                    panic!("chunk 7 exploded");
                }
            });
        });
        assert!(caught.is_err(), "panic must cross the dispatch");
        // The pool survives a panicking job.
        let mut v = vec![0u32; 64];
        v.par_chunks_mut(4)
            .for_each(|c| c.iter_mut().for_each(|e| *e = 1));
        assert!(v.iter().all(|&e| e == 1));
    }
}
