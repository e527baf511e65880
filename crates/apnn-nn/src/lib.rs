#![warn(missing_docs)]

//! # apnn-nn
//!
//! The network-level half of APNN-TC (paper §5): a layer IR, the
//! minimal-traffic dataflow that keeps inter-layer activations packed at
//! `q` bits (§5.1), the semantic-aware kernel-fusion pass (§5.2), a
//! simulator-backed executor producing per-layer latency breakdowns, and a
//! functional engine for end-to-end quantized inference on the CPU.
//!
//! The model zoo ([`models`]) provides the three networks the paper
//! evaluates — AlexNet, VGG-Variant and ResNet-18 at ImageNet shapes — each
//! instantiable at fp32 / fp16 / int8 / BNN / arbitrary `wPaQ` precision
//! ([`NetPrecision`]).
//!
//! Both halves consume the *same* executable plan:
//! [`compile::CompiledNet`] lowers a network once (fusion, tile
//! autotuning, weight packing, correction vectors) — a pure function of
//! `(network, precision, seed)` — and the plan is then either priced
//! ([`CompiledNet::report`], in [`exec`]) or actually run
//! ([`CompiledNet::infer`] and its `_into` / `_batched` forms).

pub mod compile;
pub mod exec;
pub mod fuse;
pub mod layer;
pub mod models;
pub mod net;
pub mod pool;
pub mod precision;

pub use compile::{ActInput, CompileError, CompileOptions, CompiledNet, Materialize};
pub use exec::{simulate, simulate_with, NetworkReport, StageReport};
pub use fuse::{fuse_network, identity_join_groups, MainOp, ResidualSrc, Stage, StageSrc};
pub use layer::{LayerSpec, ShapeCursor};
pub use net::Network;
pub use pool::{PooledWorkspace, WorkspacePool, WorkspacePoolStats};
pub use precision::{LayerPrecision, NetPrecision, PrecisionSchedule};
