//! The plan data model: what a lowered network *is* — options, stages,
//! the [`CompiledNet`] container with its read-only accessors, and the
//! checked builder for hand-assembled plans.

use apnn_bitpack::Encoding;
use apnn_kernels::apconv::{ConvDesc, Pool2, PreparedConv};
use apnn_kernels::apmm::{ApmmDesc, PreparedApmm, TileConfig};
use apnn_kernels::fusion::{Epilogue, Steps};

use crate::fuse::{EwKind, MainOp, ResidualSrc, StageSrc};
use crate::precision::{NetPrecision, PrecisionSchedule};

/// How much of the plan to materialize at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialize {
    /// Shapes, tiles and cost-shaped epilogues only — enough to price the
    /// plan ([`CompiledNet::report`]). No weights are packed (an
    /// ImageNet-scale zoo model compiles in microseconds).
    SimOnly,
    /// Additionally synthesize, pack and prepare weights + epilogue
    /// parameters (seeded, reproducible), so the plan also runs
    /// ([`CompiledNet::infer`]).
    Functional {
        /// Seed for the synthetic weights/parameters.
        seed: u64,
    },
}

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Batch size baked into the plan (sharding granularity for serving).
    pub batch: usize,
    /// Apply the §5.2 semantic-aware fusion pass.
    pub fuse: bool,
    /// Materialization level.
    pub materialize: Materialize,
}

impl CompileOptions {
    /// Simulation-only plan at `batch` with the fusion pass applied.
    /// Fusion defaults belong to the caller that knows the precision —
    /// [`crate::exec::simulate`] derives them from the scheme (emulated
    /// APNN schemes fuse; baselines and BNN do not).
    pub fn sim(batch: usize) -> Self {
        CompileOptions {
            batch,
            fuse: true,
            materialize: Materialize::SimOnly,
        }
    }

    /// Functional plan at `batch` with seeded synthetic parameters.
    pub fn functional(batch: usize, seed: u64) -> Self {
        CompileOptions {
            batch,
            fuse: true,
            materialize: Materialize::Functional { seed },
        }
    }
}

/// Decoded synthetic initialization kept alongside a functional stage so
/// oracle tests can rebuild the layer-by-layer naive reference.
#[derive(Debug, Clone)]
pub struct MainInit {
    /// Decoded weight values in `(cout, kh·kw·cin)` / `(out, in)` order
    /// (±1 for sign-encoded weights, unsigned code values otherwise).
    pub w_vals: Vec<i32>,
}

/// The compiled kernel of a main stage.
#[derive(Debug, Clone)]
pub enum MainKernel {
    /// Emulated arbitrary-precision convolution.
    Conv {
        /// Shape + precision (batch = compiled batch).
        desc: ConvDesc,
        /// Tile chosen at compile time (§4.3.2).
        tile: TileConfig,
        /// Packed weights + padding plan (functional plans only). Also
        /// the one home of the CPU microkernel row-block tile and
        /// popcount arm bound at compile time (`prepared.micro()` /
        /// `.arm()`, visible in the plan's `Debug` output).
        prepared: Option<PreparedConv>,
    },
    /// Emulated arbitrary-precision GEMM.
    Linear {
        /// Shape + precision (n = compiled batch).
        desc: ApmmDesc,
        /// Tile chosen at compile time.
        tile: TileConfig,
        /// Packed weights + correction vectors (functional plans only),
        /// carrying the microkernel tile and popcount arm like
        /// [`MainKernel::Conv`]'s.
        prepared: Option<PreparedApmm>,
    },
    /// Library baseline kernel (fp32/fp16/int8) — priced, never executed
    /// functionally.
    Baseline,
}

/// One compiled main (tensor-core) stage.
#[derive(Debug, Clone)]
pub struct MainStage {
    /// Display name (layer name).
    pub name: String,
    /// The op with resolved shapes.
    pub op: MainOp,
    /// Fused 2×2 pooling.
    pub pool: Option<Pool2>,
    /// Fused element-wise epilogue (parameterized when functional) — the
    /// scalar spec of the stage's codes, and what the simulator prices.
    pub epi: Epilogue,
    /// `epi` compiled into per-channel integer steps — what the kernels
    /// run in its place ([`MainStage::tail`]). Present on every quantizing
    /// stage of an executable plan: a chain that admits no table
    /// ([`Steps::build`]) makes the plan [`CompileError::UnmonotoneTail`].
    pub steps: Option<Steps>,
    /// The compiled kernel.
    pub kernel: MainKernel,
    /// Synthetic init for oracle cross-checks (functional plans only).
    pub init: Option<MainInit>,
    /// Where the stage reads its input: the chain (previous stage's
    /// output) or the saved residual branch (skip-path projections).
    pub input: StageSrc,
    /// Capture this stage's packed output as the residual branch.
    pub save_branch: bool,
    /// Residual added into the raw i32 accumulators *before* the fused
    /// epilogue — the exact-i32 requantization contract
    /// (`quantize(bn_relu(acc + residual))`, no intermediate rounding).
    pub residual: Option<ResidualSrc>,
}

impl MainStage {
    /// What the runner hands this stage's kernel to finish its
    /// accumulators with: the chain's step table. Panics on a stage that
    /// has none (the output layer, a skip projection, or a chain
    /// [`CompiledNet::executable_error`] rejects).
    pub fn tail(&self) -> &Steps {
        self.steps
            .as_ref()
            .unwrap_or_else(|| panic!("stage `{}` has no step table", self.name))
    }
}

/// Why a compiled plan cannot run functionally — the typed form of
/// [`CompiledNet::is_executable`], naming the offending stage.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// An element-wise stage survived lowering (big pools, bare residual
    /// adds, …); the functional engine only runs fully-fused plans.
    UnfusedStage {
        /// Offending stage (layer) name.
        name: String,
        /// The element-wise kind that failed to fuse.
        kind: EwKind,
    },
    /// The stage was lowered to a library-baseline kernel (fp32 / fp16 /
    /// int8) — priced by the simulator, never executed.
    BaselineStage {
        /// Offending stage name.
        name: String,
    },
    /// The stage carries no packed weights (sim-only materialization).
    MissingWeights {
        /// Offending stage name.
        name: String,
    },
    /// The stage's quantizing chain is not provably monotone (non-finite
    /// parameters, a denominator ≤ 0), so it has no step table and no
    /// kernel can run it.
    UnmonotoneTail {
        /// Offending stage name.
        name: String,
    },
    /// The plan has no main stage at all.
    NoMainStage,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnfusedStage { name, kind } => write!(
                f,
                "stage `{name}` ({kind:?}) did not fuse into a main stage"
            ),
            CompileError::BaselineStage { name } => write!(
                f,
                "stage `{name}` compiled to a library baseline kernel (priced, never executed)"
            ),
            CompileError::MissingWeights { name } => write!(
                f,
                "stage `{name}` has no materialized weights (sim-only plan)"
            ),
            CompileError::UnmonotoneTail { name } => write!(
                f,
                "stage `{name}`: the quantizing chain is not provably monotone (no step table)"
            ),
            CompileError::NoMainStage => write!(f, "the plan has no main stage"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One stage of a compiled plan.
// Plans hold a handful of stages; boxing `MainStage` would only add
// indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PlanStage {
    /// Quantize + pack the 8-bit input image (emulated schemes; priced by
    /// the simulator, a no-op functionally since inputs arrive packed).
    InputPack {
        /// Elements per image.
        elements: usize,
    },
    /// A tensor-core stage.
    Main(MainStage),
    /// An element-wise stage that did not fuse (big pools, residual adds,
    /// …). Priced by the simulator; not executable functionally.
    Elementwise {
        /// Display name.
        name: String,
        /// Kind.
        kind: EwKind,
        /// Elements per image in.
        in_elements: usize,
        /// Elements per image out.
        out_elements: usize,
    },
}

/// A network lowered into an executable plan: the tentpole artifact shared
/// by the simulator and the functional CPU engine.
#[derive(Debug, Clone)]
pub struct CompiledNet {
    /// Model name (reports).
    pub model: String,
    /// Scheme label (reports).
    pub scheme: String,
    pub(super) precision: Option<NetPrecision>,
    pub(super) schedule: Option<PrecisionSchedule>,
    pub(super) batch: usize,
    pub(super) stages: Vec<PlanStage>,
}

impl CompiledNet {
    /// An empty hand-built plan serving `batch`-wide shards — the front
    /// door for callers that bring their own prepared kernels (trained
    /// model export, benches). Append stages with
    /// [`CompiledNet::push_conv`] / [`CompiledNet::push_linear`].
    pub fn hand_built(model: &str, scheme: &str, batch: usize) -> Self {
        CompiledNet {
            model: model.to_string(),
            scheme: scheme.to_string(),
            precision: None,
            schedule: None,
            batch,
            stages: Vec::new(),
        }
    }

    /// Append a prepared convolution (+ optional fused 2×2 pool) with its
    /// fused element-wise tail, reading the previous stage's output. The
    /// tail must end in quantization (only the last linear emits i32).
    /// Panics if the kernel was prepared for a different batch.
    pub fn push_conv(&mut self, prepared: PreparedConv, pool: Option<Pool2>, epi: Epilogue) {
        let desc = prepared.desc;
        self.check_stage_batch(desc.batch);
        let op = MainOp::Conv {
            cin: desc.cin,
            h: desc.h,
            w: desc.w,
            cout: desc.cout,
            k: desc.kh,
            stride: desc.stride,
            pad: desc.pad,
        };
        let kernel = MainKernel::Conv {
            desc,
            tile: prepared.tile,
            prepared: Some(prepared),
        };
        self.push_chain_stage(op, pool, epi, kernel);
    }

    /// Append a prepared fully-connected layer with its fused element-wise
    /// tail: quantizing for hidden layers, non-quantizing for the output
    /// layer (whose raw i32 accumulators are the logits). Panics if the
    /// kernel was prepared for a different batch.
    pub fn push_linear(&mut self, prepared: PreparedApmm, epi: Epilogue) {
        let desc = prepared.desc;
        self.check_stage_batch(desc.n);
        let op = MainOp::Linear {
            in_features: desc.k,
            out_features: desc.m,
        };
        let kernel = MainKernel::Linear {
            desc,
            tile: prepared.tile,
            prepared: Some(prepared),
        };
        self.push_chain_stage(op, None, epi, kernel);
    }

    fn check_stage_batch(&self, stage_batch: usize) {
        assert_eq!(
            stage_batch,
            self.batch,
            "stage {} of `{}@{}` was prepared for batch {stage_batch}, the plan serves batch {}",
            self.stages.len(),
            self.model,
            self.scheme,
            self.batch,
        );
    }

    fn push_chain_stage(
        &mut self,
        op: MainOp,
        pool: Option<Pool2>,
        epi: Epilogue,
        kernel: MainKernel,
    ) {
        let steps = super::lower::compile_steps(&kernel, &epi);
        self.stages.push(PlanStage::Main(MainStage {
            name: format!("stage{}", self.stages.len()),
            op,
            pool,
            epi,
            steps,
            kernel,
            init: None,
            input: StageSrc::Chain,
            save_branch: false,
            residual: None,
        }));
    }

    /// Compiled batch size (sharding granularity).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The precision scheme this plan was lowered at (`None` for hand-built
    /// stage lists and genuinely mixed schedules — uniform schedules report
    /// their equivalent whole-network scheme).
    pub fn precision(&self) -> Option<NetPrecision> {
        self.precision
    }

    /// The per-layer schedule this plan was lowered with (`None` for
    /// uniform-scheme and hand-built plans).
    pub fn schedule(&self) -> Option<&PrecisionSchedule> {
        self.schedule.as_ref()
    }

    /// The packed feature map the first main stage consumes, as
    /// `(h, w, c, bits, encoding)` — `None` for linear-front plans, which
    /// take feature vectors. Servers validate request tensors against this
    /// before queueing them.
    pub fn input_map_spec(&self) -> Option<(usize, usize, usize, u32, Encoding)> {
        self.main_stages().next().and_then(|m| match &m.kernel {
            MainKernel::Conv { desc, .. } => {
                Some((desc.h, desc.w, desc.cin, desc.x_bits, desc.x_enc))
            }
            _ => None,
        })
    }

    /// Partition `n` requests into compiled-batch shards: every shard is
    /// `batch()` wide except the last, which carries the remainder (any
    /// size down to 1). This is the *widest-legal-shard* contract the
    /// differential tests exercise; [`CompiledNet::infer_batched_into`]
    /// may cut narrower shards (`⌈n/threads⌉`) to fill the thread pool —
    /// any such partition is bit-identical (partition invariance), which
    /// is exactly what the differential harness proves.
    pub fn shards(&self, n: usize) -> Vec<Shard> {
        let width = self.batch.max(1);
        let mut out = Vec::with_capacity(n.div_ceil(width));
        let mut start = 0;
        while start < n {
            let len = (n - start).min(width);
            out.push(Shard { start, len });
            start += len;
        }
        out
    }

    /// The compiled stages.
    pub fn stages(&self) -> &[PlanStage] {
        &self.stages
    }

    /// The main stages, in execution order.
    pub fn main_stages(&self) -> impl Iterator<Item = &MainStage> {
        self.stages.iter().filter_map(|s| match s {
            PlanStage::Main(m) => Some(m),
            _ => None,
        })
    }

    /// Output classes (from the last main stage).
    pub fn classes(&self) -> usize {
        self.main_stages()
            .last()
            .map(|m| m.op.out_channels())
            .expect("plan has no main stage")
    }

    /// Can this plan run functionally (fully fused + weights materialized)?
    pub fn is_executable(&self) -> bool {
        self.executable_error().is_ok()
    }

    /// [`CompiledNet::is_executable`] with the reason: `Err` names the
    /// first stage that blocks functional execution — a structural reason
    /// (unfused, baseline, unmaterialized) before a chain without a table.
    pub fn executable_error(&self) -> Result<(), CompileError> {
        let mut any_main = false;
        let mut unmonotone = None;
        for s in &self.stages {
            match s {
                PlanStage::InputPack { .. } => {}
                PlanStage::Elementwise { name, kind, .. } => {
                    return Err(CompileError::UnfusedStage {
                        name: name.clone(),
                        kind: *kind,
                    })
                }
                PlanStage::Main(m) => {
                    any_main = true;
                    let missing = match &m.kernel {
                        MainKernel::Conv { prepared, .. } => prepared.is_none(),
                        MainKernel::Linear { prepared, .. } => prepared.is_none(),
                        MainKernel::Baseline => {
                            return Err(CompileError::BaselineStage {
                                name: m.name.clone(),
                            })
                        }
                    };
                    if missing {
                        return Err(CompileError::MissingWeights {
                            name: m.name.clone(),
                        });
                    }
                    if m.epi.output_bits().is_some() && m.steps.is_none() {
                        unmonotone.get_or_insert_with(|| m.name.clone());
                    }
                }
            }
        }
        if !any_main {
            return Err(CompileError::NoMainStage);
        }
        unmonotone.map_or(Ok(()), |name| Err(CompileError::UnmonotoneTail { name }))
    }
}

/// One contiguous slice of a request batch, at most one compiled batch
/// wide — the unit a serving worker hands to [`CompiledNet::infer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First request index in the shard.
    pub start: usize,
    /// Number of requests (`1..=plan.batch()`).
    pub len: usize,
}
