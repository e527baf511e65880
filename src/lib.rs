#![warn(missing_docs)]

//! # apnn-tc
//!
//! Arbitrary-precision neural-network acceleration on (simulated) Ampere
//! tensor cores — a Rust reproduction of *APNN-TC: Accelerating Arbitrary
//! Precision Neural Networks on Ampere GPU Tensor Cores* (Feng et al.,
//! SC'21).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`bitpack`] — bit-packed matrices, bit-plane decomposition, NPHWC
//!   tensors.
//! * [`sim`] — the functional + cost-model Ampere tensor-core simulator.
//! * [`kernels`] — APMM, APConv, autotuning, kernel fusion, and the
//!   cutlass/cublas-like baselines.
//! * [`nn`] — the layer/network framework with minimal-traffic dataflow and
//!   semantic-aware kernel fusion, plus the AlexNet / VGG-Variant /
//!   ResNet-18 model zoo.
//! * [`quant`] — DoReFa quantizers and quantization-aware training on
//!   synthetic data, exported onto the packed engine.
//! * [`serve`] — the dynamic-batching multi-model inference server over
//!   compiled plans (request coalescing, plan cache, per-tenant weighted
//!   fair queueing with deadlines and load shedding, blue-green plan
//!   versioning, and a length-prefixed TCP wire protocol).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map and
//! the paper-substitution rationale.

pub use apnn_bitpack as bitpack;
pub use apnn_kernels as kernels;
pub use apnn_nn as nn;
pub use apnn_quant as quant;
pub use apnn_serve as serve;
pub use apnn_sim as sim;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use apnn_bitpack::{BitMatrix, BitPlanes, BitTensor4, Encoding, Layout, Tensor4};
    pub use apnn_kernels::{
        ApConv, Apmm, ApmmDesc, ConvDesc, Epilogue, EpilogueOp, PreparedApmm, PreparedConv,
        TileConfig,
    };
    pub use apnn_nn::{CompileOptions, CompiledNet, Materialize, NetPrecision, Network};
    pub use apnn_serve::{
        serve_tcp, Admission, ModelKey, PlanRegistry, PlanSpec, QueuePolicy, Request, ServeConfig,
        ServeStats, Server, TcpServeHandle, TenantStats, Ticket, WireClient,
    };
    pub use apnn_sim::{GpuSpec, KernelReport, Precision};
}
