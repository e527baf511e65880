//! The compilation layer: one executable plan for simulation *and* real
//! inference — a pure function of `(network, precision, seed)`.
//!
//! [`CompiledNet::compile`] lowers a [`crate::Network`] +
//! [`crate::NetPrecision`] through the §5.2 fusion pass into a list of
//! [`PlanStage`]s, materializing every per-call invariant once:
//!
//! * emulation-plan selection (§3.2) and autotuned tiles (§4.3) per main
//!   stage — both closed forms of the stage's shape;
//! * packed weights, padding patterns and correction vectors (via the
//!   prepared kernels of `apnn-kernels`);
//! * parameterized epilogues (BN/ReLU/quantize chains with concrete
//!   scales).
//!
//! One file per job:
//!
//! * `plan` — the data model ([`CompiledNet`], [`PlanStage`],
//!   [`MainStage`], …) and the checked builder for hand-assembled plans
//!   ([`CompiledNet::hand_built`] + `push_conv` / `push_linear`);
//! * `lower` — [`CompiledNet::compile`] / `compile_scheduled`: fusion,
//!   seeded weight synthesis, compile-time range calibration;
//! * `run` — functional execution over bit-packed activations (the §5.1
//!   minimal-traffic dataflow): [`CompiledNet::infer`] / `infer_into` /
//!   `infer_batched` / `infer_batched_into`; repeated calls reuse the
//!   compiled artifacts — no weight re-packing, no re-autotuning;
//! * `workspace` — the plan-sized [`ExecWorkspace`] arena and its
//!   [`WorkspaceSpec`] sizing report.
//!
//! Pricing the same plan on the `apnn-sim` cost model
//! ([`CompiledNet::report`], behind Tables 2/3 and Fig. 9) lives in
//! [`crate::exec`].

mod lower;
mod plan;
mod run;
mod workspace;

#[cfg(test)]
mod tests;

pub use plan::{
    CompileError, CompileOptions, CompiledNet, MainInit, MainKernel, MainStage, Materialize,
    PlanStage,
};
pub use run::ActInput;
pub use workspace::{ExecWorkspace, StageWorkspace, WorkspaceSpec};
