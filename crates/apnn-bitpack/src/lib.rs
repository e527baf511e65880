#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # apnn-bitpack
//!
//! Bit-level data substrate for arbitrary-precision neural-network kernels.
//!
//! The APNN-TC algorithm (Feng et al., SC'21) decomposes a `p`-bit matrix into
//! `p` one-bit *planes* and computes with 1-bit tensor-core primitives. This
//! crate provides everything below the kernel level:
//!
//! * [`BitMatrix`] — a row-major bit-packed matrix whose row length is padded
//!   to the 128-bit granularity of the `bmma.8x8x128` tensor-core primitive.
//! * [`planes`] — bit-plane decomposition (`x⁽ᵗ⁾ = (x >> t) & 1`, Eq. 2 of the
//!   paper) and its inverse, plus the [`planes::BitPlanes`] bundle consumed by
//!   the APMM/APConv kernels.
//! * [`LanePanel`] — the weight operand interleaved eight rows per cache
//!   line, and [`popcnt`] — the lane-per-output popcount kernel that consumes
//!   it, with its runtime-dispatched arms ([`PopcntArm`]).
//! * [`Encoding`] — the value semantics of a stored bit (`{0,1}` vs `{−1,+1}`),
//!   which drives the paper's *data-adaptive operator selection* (§3.2).
//! * [`Tensor4`] — dense 4-D tensors with NCHW/NHWC layouts, and
//!   [`BitTensor4`] — the paper's channel-major **NPHWC** packed activation
//!   layout (§4.2(a), Fig. 4).
//! * [`ballot`] — an emulation of the `__ballot_sync` inter-thread packing
//!   routine used by the memory-efficient bit combination (§4.1(b)).
//!
//! Everything here is deterministic, pure CPU code; the tensor-core execution
//! and cost model live in the `apnn-sim` crate, and the kernels in
//! `apnn-kernels`.

pub mod ballot;
pub mod bitmatrix;
pub mod bittensor;
pub mod buf;
pub mod encoding;
pub mod panel;
pub mod planes;
pub mod popcnt;
pub mod tensor;
pub mod word;

pub use bitmatrix::BitMatrix;
pub use bittensor::BitTensor4;
pub use buf::resize_for_overwrite;
pub use encoding::Encoding;
pub use panel::{LanePanel, LANES};
pub use planes::BitPlanes;
pub use popcnt::PopcntArm;
pub use tensor::{Layout, Tensor4};
