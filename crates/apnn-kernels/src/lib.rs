#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # apnn-kernels
//!
//! The core contribution of APNN-TC (SC'21), reimplemented in Rust on top of
//! the `apnn-sim` tensor-core substrate:
//!
//! * [`select`] — data-adaptive operator selection (§3.2): picks `XOR` or
//!   `AND` and the linear-transform correction for the three input-encoding
//!   cases.
//! * [`emulate`] — the AP-Bit operation template (§3.1): arbitrary `p×q`-bit
//!   products from `p·q` one-bit `bmma` calls plus shift-add combination.
//! * [`apmm`] — arbitrary-precision matrix multiplication (§4.1) with
//!   batch-based double caching and memory-efficient bit combination;
//!   functional multi-threaded CPU execution plus simulated-GPU latency.
//! * [`apconv`] — arbitrary-precision convolution (§4.2) with channel-major
//!   NPHWC data organization and input-aware padding.
//! * [`mod@autotune`] — the TLP/CI performance model and tile-size search
//!   heuristic (§4.3), plus the CPU microkernel's row-block selection.
//! * [`micro`] — the lane-per-output popcount microkernel over interleaved
//!   weight panels: the one inner loop every functional kernel path runs on
//!   (the CPU analogue of the paper's AP-BMMA accumulator fragment).
//! * [`fusion`] — fusable epilogues (BN / ReLU / pool / quantize, §5.2).
//! * [`baselines`] — cutlass/cublas-like fixed-tile kernels at int1, int4,
//!   int8, fp16 and fp32, used by every speedup figure in the paper.
//! * [`mod@reference`] — naive i32 oracles used throughout the test suite.

pub mod apconv;
pub mod apmm;
pub mod autotune;
pub mod baselines;
pub mod emulate;
pub mod fusion;
pub mod micro;
pub mod reference;
pub mod select;
pub mod stats;

pub use apconv::{ApConv, ConvDesc, PreparedConv};
pub use apmm::{Apmm, ApmmDesc, PreparedApmm, TileConfig};
pub use autotune::{
    autotune, compute_intensity, stage_cost, thread_level_parallelism, MicroTile, StageShape,
    MICRO_MEMO_CAP,
};
pub use emulate::ap_bit_mm;
pub use fusion::{Epilogue, EpilogueOp};
pub use select::{plan, EmulationCase, EmulationPlan};
