#![warn(missing_docs)]

//! # apnn-serve
//!
//! A dynamic-batching, multi-model inference server over
//! [`apnn_nn::CompiledNet`] execution plans — the serving tier the paper's
//! end-to-end claim points at: arbitrary-precision kernels pay off when a
//! *network* serves many concurrent requests through one compiled plan.
//!
//! The crate is split along its serving pipeline:
//!
//! * [`mod@api`] — the request/response surface: the [`Request`] builder
//!   (tenant, deadline-in-ticks, priority), cancellable [`Ticket`]s
//!   (`cancel`, `wait_deadline`, non-consuming `try_get`), and the
//!   [`QueuePolicy`]/[`Admission`] knobs for shedding and fair-queueing.
//! * `queue` *(internal)* — per-tenant weighted fair queueing:
//!   virtual-finish-time scheduling across bounded tenant lanes,
//!   oldest-sheddable-first load shedding, and tick-deadline expiry that
//!   drops dead work *before* it occupies a batch slot.
//! * [`mod@wire`] — the network boundary: a length-prefixed binary
//!   protocol over `std::net` TCP ([`serve_tcp`]), with typed
//!   [`WireError`]s for malformed frames (never a panic, never a desync).
//! * [`registry`](PlanRegistry) — maps a [`ModelKey`]
//!   `(model, precision scheme, version)` to a cached
//!   [`apnn_nn::CompiledNet`], compiled **lazily exactly once** and shared
//!   (`Arc`) between every worker. Models and versions register on a
//!   *live* server (interior mutability); blue-green rollouts pin,
//!   [`promote`](PlanRegistry::promote) and drain versions.
//! * [`server`](Server) — the dynamic batcher. Workers **coalesce**
//!   pending same-key requests word-level into a reused per-worker tensor
//!   ([`apnn_bitpack::BitTensor4::copy_image_from`]), then dispatch the
//!   coalesced batch through a server-wide per-plan
//!   [`apnn_nn::WorkspacePool`] via
//!   [`apnn_nn::CompiledNet::infer_batched_into`] — the steady-state hot
//!   path performs **zero heap allocations** — and per-request logits
//!   scatter back through [`Ticket`]s.
//! * [`stats`](ServeStats) — a consistent snapshot: global and
//!   **per-tenant** counters (completed/shed/expired/cancelled, p50/p99
//!   queueing latency in *ticks* — submissions are the clock, so the
//!   numbers are load-dependent but wall-clock-free), the batch-fill
//!   histogram, plan-cache counters, and workspace-pool dimensions.
//!
//! The serving invariant the differential test harness enforces
//! (`tests/serve_differential.rs` / `tests/serve_boundary.rs` at the
//! workspace root): **any** grouping of requests into batches — any
//! partition, any interleaving, any worker count, any mix of deadlines,
//! cancellations and tenants — produces, for every request that is not
//! shed/expired/cancelled, logits bit-identical to one-at-a-time
//! [`apnn_nn::CompiledNet::infer`]. Integer-exact kernels make this a
//! hard equality, not a tolerance.

pub mod api;
pub mod fault;
mod queue;
mod registry;
mod server;
mod stats;
pub mod wire;

pub use api::{Admission, QueuePolicy, Request, Ticket, DEFAULT_TENANT};
pub use fault::{FaultPlan, FaultSite};
pub use registry::{ModelKey, PlanRegistry, PlanSpec};
pub use server::{ServeConfig, Server};
pub use stats::{ServeStats, TenantStats};
pub use wire::{
    serve_tcp, RetryClient, RetryPolicy, TcpServeHandle, WireClient, WireError, WireTimeouts,
};

/// Why a submission, plan lookup, or queued request failed.
///
/// Marked `#[non_exhaustive]`: the serve tier may grow failure modes
/// (match with a wildcard arm). Every variant's `Display` names the
/// offending key/tenant/deadline, so an error string alone localizes the
/// failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// No builder registered under this model name.
    UnknownModel(String),
    /// The model compiled, but the plan cannot run functionally (baseline
    /// precision, or element-wise stages survived fusion).
    NotServable(String),
    /// The request tensor does not match what the plan's first stage
    /// consumes.
    BadInput(String),
    /// The server is shutting down; the request was not queued.
    ShuttingDown,
    /// The model exists but has no such registered version.
    UnknownVersion {
        /// Model name.
        model: String,
        /// The version the request pinned.
        version: u32,
    },
    /// Dropped by the load-shedding admission policy: the tenant's bounded
    /// queue overflowed and this request was the oldest sheddable one (or
    /// arrived outranked by everything queued).
    Shed {
        /// Resolved `model@scheme[#v]` label of the shed request.
        key: String,
        /// Tenant whose lane overflowed.
        tenant: String,
    },
    /// The request's deadline passed while it was queued; it was dropped
    /// before occupying a batch slot.
    Expired {
        /// Resolved `model@scheme[#v]` label of the expired request.
        key: String,
        /// Tenant the request was accounted under.
        tenant: String,
        /// The deadline the request carried, in ticks.
        deadline_ticks: u64,
        /// How many ticks it actually waited before the sweep caught it.
        waited_ticks: u64,
    },
    /// The caller cancelled the request via [`Ticket::cancel`].
    Cancelled,
    /// The request failed at the network boundary (malformed frame,
    /// protocol violation, transport error).
    Wire(WireError),
    /// Quarantined: every batch containing this request panicked, down to
    /// the singleton. The request fails alone; the bisection re-executed
    /// its innocent batch-mates to completion.
    Poisoned {
        /// Resolved `model@scheme[#v]` label of the poisoned request.
        key: String,
        /// Tenant the request was accounted under.
        tenant: String,
        /// The panic message of the singleton execution.
        why: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(m) => write!(f, "unknown model `{m}`"),
            ServeError::NotServable(why) => write!(f, "plan is not servable: {why}"),
            ServeError::BadInput(why) => write!(f, "bad request input: {why}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::UnknownVersion { model, version } => {
                write!(f, "model `{model}` has no registered version {version}")
            }
            ServeError::Shed { key, tenant } => {
                write!(
                    f,
                    "request for `{key}` shed: tenant `{tenant}`'s queue is full"
                )
            }
            ServeError::Expired {
                key,
                tenant,
                deadline_ticks,
                waited_ticks,
            } => write!(
                f,
                "request for `{key}` (tenant `{tenant}`) expired: \
                 deadline {deadline_ticks} ticks, waited {waited_ticks}"
            ),
            ServeError::Cancelled => write!(f, "request cancelled by caller"),
            ServeError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ServeError::Poisoned { key, tenant, why } => write!(
                f,
                "request for `{key}` (tenant `{tenant}`) poisoned its batch \
                 and was quarantined: {why}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}
