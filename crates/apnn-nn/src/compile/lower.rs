//! Lowering: [`Network`] + precision (+ seed) → [`CompiledNet`]. The §5.2
//! fusion pass, per-stage emulation/tile selection, seeded weight
//! synthesis, compile-time range calibration and the compilation of each
//! calibrated chain into its integer step table ([`compile_steps`]) all
//! live here; nothing in this file runs after `compile` returns.

use apnn_bitpack::{BitPlanes, BitTensor4, Encoding};
use apnn_kernels::apconv::cpu::pool2_i32;
use apnn_kernels::apconv::{ApConv, ConvDesc, ConvWeights, Pool2};
use apnn_kernels::apmm::{Apmm, ApmmDesc, TileConfig};
use apnn_kernels::autotune::autotune;
use apnn_kernels::fusion::{Epilogue, EpilogueOp, Steps};

use super::plan::{
    CompileOptions, CompiledNet, MainInit, MainKernel, MainStage, Materialize, PlanStage,
};
use super::run::flatten_map;
use crate::fuse::{fuse_network, FusedTail, MainOp, ResidualSrc, Stage, StageSrc};
use crate::net::Network;
use crate::precision::{NetPrecision, PrecisionSchedule};

impl CompiledNet {
    /// Lower `net` at `precision` into a plan.
    pub fn compile(net: &Network, precision: NetPrecision, opts: &CompileOptions) -> Self {
        Self::compile_impl(net, Some(precision), None, opts)
    }

    /// Lower `net` under a per-layer mixed-precision [`PrecisionSchedule`].
    ///
    /// Schedules require the §5.2 fusion pass and a fully-fused (no
    /// surviving element-wise stage) lowering; identity residual joins must
    /// agree on activation bits between the branch producer and the joining
    /// layer. A uniform schedule produces a plan bit-identical to the
    /// whole-network [`NetPrecision::Apnn`] compile.
    pub fn compile_scheduled(
        net: &Network,
        schedule: &PrecisionSchedule,
        opts: &CompileOptions,
    ) -> Self {
        Self::compile_impl(net, None, Some(schedule), opts)
    }

    /// Shared lowering core. Exactly one of `precision` / `schedule` is
    /// `Some`; the uniform path computes per-stage bit parameters through
    /// the same [`NetPrecision`] calls as before schedules existed, so its
    /// RNG draw order — and therefore every golden — is unchanged.
    fn compile_impl(
        net: &Network,
        precision: Option<NetPrecision>,
        schedule: Option<&PrecisionSchedule>,
        opts: &CompileOptions,
    ) -> Self {
        let fused = fuse_network(net, opts.fuse);
        if let Some(sched) = schedule {
            validate_schedule(net, &fused, sched, opts);
        }
        let emulated = precision.is_none_or(|p| p.is_emulated());
        let mut stages = Vec::with_capacity(fused.len() + 1);
        let mut rng = SynthRng::new(match opts.materialize {
            Materialize::Functional { seed } => seed,
            Materialize::SimOnly => 0,
        });

        if emulated {
            stages.push(PlanStage::InputPack {
                elements: net.input_c * net.input_h * net.input_w,
            });
        }

        // Functional plans over fully-fused emulated networks get their
        // quantization ranges *calibrated*: a seeded batch flows through
        // each stage as it is lowered, and the observed accumulator range
        // fixes the epilogue constants. This is per-call work (range
        // estimation) hoisted into compilation.
        let fully_fused = fused.iter().all(Stage::is_main);
        let mut calib: Option<CalibState> = match opts.materialize {
            Materialize::Functional { .. } if fully_fused && emulated => {
                // The first main layer always consumes the 8-bit quantized
                // input (§5.1) regardless of schedule.
                let bits = precision.map_or(8, |p| p.activation_bits(true));
                let enc = precision.map_or(Encoding::ZeroOne, |p| p.activation_encoding(true));
                let mut t =
                    BitTensor4::zeros(opts.batch, net.input_h, net.input_w, net.input_c, bits, enc);
                // Row by row in `(b, y, x, c)` draw order: calibration depends on it.
                let mut row = vec![0u32; net.input_w * net.input_c];
                for i in 0..opts.batch * net.input_h {
                    row.fill_with(|| rng.next() as u32 & ((1 << bits) - 1));
                    t.pack_row(i / net.input_h, i % net.input_h, &row);
                }
                Some(CalibState {
                    chain: Act::Map(t),
                    branch: None,
                    res: None,
                })
            }
            _ => None,
        };

        // Scheduled plans thread activation bits from producer to consumer:
        // a chain stage consumes the previous chain stage's output bits, a
        // skip-projection stage the saved branch producer's.
        let mut chain_bits = 8u32;
        let mut branch_bits = 8u32;

        for stage in &fused {
            match stage {
                Stage::Main {
                    name,
                    op,
                    main_index,
                    tail,
                    input,
                    save_branch,
                    residual,
                    ..
                } => {
                    let first = *main_index == 0;
                    let (stage_precision, prec) = match (precision, schedule) {
                        (Some(p), _) => (
                            p,
                            StagePrec {
                                w_bits: p.weight_bits(),
                                x_bits: p.activation_bits(first),
                                w_enc: p.weight_encoding(),
                                x_enc: p.activation_encoding(first),
                                out_bits: p.activation_bits(false),
                                next_enc: p.activation_encoding(false),
                            },
                        ),
                        (None, Some(sched)) => {
                            let lp = sched.layer(*main_index);
                            let x_bits = match input {
                                StageSrc::Branch => branch_bits,
                                StageSrc::Chain => chain_bits,
                            };
                            (
                                lp.as_uniform(),
                                StagePrec {
                                    w_bits: lp.w,
                                    x_bits,
                                    w_enc: lp.weight_encoding(),
                                    x_enc: Encoding::ZeroOne,
                                    out_bits: lp.a,
                                    next_enc: Encoding::ZeroOne,
                                },
                            )
                        }
                        (None, None) => unreachable!("compile_impl needs a precision or schedule"),
                    };
                    if schedule.is_some() && *input == StageSrc::Chain && tail.quantize {
                        chain_bits = prec.out_bits;
                        if *save_branch {
                            branch_bits = prec.out_bits;
                        }
                    }
                    stages.push(PlanStage::Main(compile_main(
                        name,
                        op,
                        tail,
                        *input,
                        *save_branch,
                        *residual,
                        stage_precision,
                        prec,
                        opts,
                        &mut rng,
                        &mut calib,
                    )));
                }
                Stage::Elementwise {
                    name,
                    kind,
                    in_elements,
                    out_elements,
                    ..
                } => stages.push(PlanStage::Elementwise {
                    name: name.clone(),
                    kind: *kind,
                    in_elements: *in_elements,
                    out_elements: *out_elements,
                }),
            }
        }

        CompiledNet {
            model: net.name.clone(),
            scheme: match schedule {
                Some(s) => s.label(),
                None => precision.unwrap().label(),
            },
            precision: match schedule {
                Some(s) => s.as_uniform(),
                None => precision,
            },
            batch: opts.batch,
            stages,
        }
    }
}

/// Owned activations chained through compile-time calibration.
#[derive(Clone)]
enum Act {
    Map(BitTensor4),
    Vector(BitPlanes),
}

/// Calibration state threaded through compilation: the chain activation,
/// plus — inside an open residual block — the activation saved at the last
/// `BranchSave` and the raw accumulators parked by a skip-projection
/// stage for the consuming conv.
struct CalibState {
    chain: Act,
    branch: Option<Act>,
    res: Option<Vec<i32>>,
}

/// The resolved per-stage bit parameters of one main stage — computed by
/// the caller (from the whole-network scheme or a per-layer schedule entry)
/// and threaded through lowering, so `compile_main` itself is
/// schedule-agnostic.
#[derive(Debug, Clone, Copy)]
struct StagePrec {
    /// Weight bits.
    w_bits: u32,
    /// Input activation bits (what the producer emitted; 8 for the first
    /// main layer).
    x_bits: u32,
    /// Weight encoding.
    w_enc: Encoding,
    /// Input activation encoding.
    x_enc: Encoding,
    /// Output activation bits (the fused quantize width).
    out_bits: u32,
    /// Encoding the *next* stage consumes (calibrated packing).
    next_enc: Encoding,
}

/// Panic unless `sched` legally covers `net`'s fused form: fusion on,
/// fully fused, one entry per main layer, and identity residual joins
/// agreeing on activation bits between branch producer and joining layer.
fn validate_schedule(
    net: &Network,
    fused: &[Stage],
    sched: &PrecisionSchedule,
    opts: &CompileOptions,
) {
    assert!(
        opts.fuse,
        "mixed-precision schedules require the fusion pass (opts.fuse)"
    );
    if let Some(ew) = fused.iter().find(|s| !s.is_main()) {
        panic!(
            "mixed-precision schedules require a fully-fused plan; stage `{}` of `{}` did not fuse",
            ew.name(),
            net.name
        );
    }
    let n_mains = fused.len();
    assert_eq!(
        sched.len(),
        n_mains,
        "schedule covers {} layers but `{}` has {} main layers",
        sched.len(),
        net.name,
        n_mains
    );
    let mut branch_producer: Option<usize> = None;
    for stage in fused {
        let Stage::Main {
            main_index,
            save_branch,
            residual,
            ..
        } = stage
        else {
            unreachable!("fully-fused was just checked")
        };
        if matches!(residual, Some(ResidualSrc::Identity)) {
            let bp = branch_producer.expect("identity residual without a saved branch");
            assert_eq!(
                sched.layer(bp).a,
                sched.layer(*main_index).a,
                "identity residual join at main layer {main_index}: the branch producer \
                 (layer {bp}, a{}) and the joining layer (a{}) must agree on activation bits",
                sched.layer(bp).a,
                sched.layer(*main_index).a,
            );
        }
        if *save_branch {
            branch_producer = Some(*main_index);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn compile_main(
    name: &str,
    op: &MainOp,
    tail: &FusedTail,
    src: StageSrc,
    save_branch: bool,
    residual: Option<ResidualSrc>,
    precision: NetPrecision,
    prec: StagePrec,
    opts: &CompileOptions,
    rng: &mut SynthRng,
    calib: &mut Option<CalibState>,
) -> MainStage {
    let channels = op.out_channels();

    if precision.baseline_kind().is_some() {
        return MainStage {
            name: name.to_string(),
            op: op.clone(),
            pool: None,
            epi: Epilogue::none(),
            steps: None,
            kernel: MainKernel::Baseline,
            init: None,
            input: src,
            save_branch,
            residual,
        };
    }

    // Emulated schemes.
    let StagePrec {
        w_bits,
        x_bits,
        w_enc,
        x_enc,
        out_bits,
        next_enc,
    } = prec;
    let pool = if tail.pool2 { Some(Pool2::Max) } else { None };

    let fixed_tile = match precision {
        NetPrecision::Bnn => Some(TileConfig::new(32, 32)),
        _ => None,
    };

    let (kernel, init) = match *op {
        MainOp::Conv {
            cin,
            h,
            w,
            cout,
            k,
            stride,
            pad,
        } => {
            let desc = ConvDesc {
                batch: opts.batch,
                cin,
                h,
                w,
                cout,
                kh: k,
                kw: k,
                stride,
                pad,
                w_bits,
                x_bits,
                w_enc,
                x_enc,
            };
            let g = desc.as_gemm();
            let tile = fixed_tile.unwrap_or_else(|| autotune(g.m, g.n, g.k, g.w_bits, g.x_bits));
            let (prepared, init) = match opts.materialize {
                Materialize::SimOnly => (None, None),
                Materialize::Functional { .. } => {
                    let n_w = cout * k * k * cin;
                    let (weights, w_vals) = if w_enc == Encoding::PlusMinusOne {
                        let vals = rng.signs(n_w);
                        (ConvWeights::from_signed(&desc, &vals), vals)
                    } else {
                        let codes = rng.codes(n_w, w_bits);
                        let vals = codes.iter().map(|&c| c as i32).collect();
                        (ConvWeights::from_codes(&desc, &codes), vals)
                    };
                    (
                        Some(ApConv::with_tile(desc, tile).prepare(weights)),
                        Some(MainInit { w_vals }),
                    )
                }
            };
            (
                MainKernel::Conv {
                    desc,
                    tile,
                    prepared,
                },
                init,
            )
        }
        MainOp::Linear {
            in_features,
            out_features,
        } => {
            let desc = ApmmDesc {
                m: out_features,
                n: opts.batch,
                k: in_features,
                w_bits,
                x_bits,
                w_enc,
                x_enc,
            };
            let tile =
                fixed_tile.unwrap_or_else(|| autotune(desc.m, desc.n, desc.k, w_bits, x_bits));
            let (prepared, init) = match opts.materialize {
                Materialize::SimOnly => (None, None),
                Materialize::Functional { .. } => {
                    let n_w = out_features * in_features;
                    let (weights, w_vals) = if w_enc == Encoding::PlusMinusOne {
                        let vals = rng.signs(n_w);
                        (
                            BitPlanes::from_signed_binary(&vals, out_features, in_features),
                            vals,
                        )
                    } else {
                        let codes = rng.codes(n_w, w_bits);
                        let vals = codes.iter().map(|&c| c as i32).collect();
                        (
                            BitPlanes::from_codes(&codes, out_features, in_features, w_bits, w_enc),
                            vals,
                        )
                    };
                    (
                        Some(Apmm::with_tile(desc, tile).prepare(weights)),
                        Some(MainInit { w_vals }),
                    )
                }
            };
            (
                MainKernel::Linear {
                    desc,
                    tile,
                    prepared,
                },
                init,
            )
        }
    };

    // Only calibrated lowerings (functional, fully fused, emulated) fix
    // real quantize constants — and compile them into the step table the
    // kernels run; every other plan is priced, never run, and keeps the
    // cost-shaped tail.
    let (epi, steps) = match calib.take() {
        Some(mut st) => {
            if src == StageSrc::Branch {
                // Skip projection: run the prepared conv over the saved
                // branch activation and park the raw accumulators for
                // the consuming conv. The chain activation is untouched
                // and the stage carries no epilogue.
                let MainKernel::Conv {
                    prepared: Some(p), ..
                } = &kernel
                else {
                    unreachable!("skip stages are materialized convs")
                };
                let Some(Act::Map(bmap)) = &st.branch else {
                    unreachable!("skip stage before any saved branch activation")
                };
                st.res = Some(p.execute(bmap));
                *calib = Some(st);
                (Epilogue::none(), None)
            } else {
                // The residual as accumulators.
                let residual_accs: Option<Vec<i32>> = match residual {
                    None => None,
                    Some(ResidualSrc::Projection) => Some(
                        st.res
                            .take()
                            .expect("projection residual needs a preceding skip stage"),
                    ),
                    Some(ResidualSrc::Identity) => {
                        let Some(Act::Map(bmap)) = &st.branch else {
                            unreachable!("identity residual before any saved branch")
                        };
                        let mut v = Vec::new();
                        decode_codes_into(bmap, &mut v);
                        Some(v)
                    }
                };
                let (epi, next) = calibrate_stage(
                    &kernel,
                    pool,
                    tail,
                    channels,
                    out_bits,
                    next_enc,
                    st.chain,
                    residual_accs.as_deref(),
                    rng,
                );
                if let Some(next) = next {
                    if save_branch {
                        st.branch = Some(next.clone());
                    }
                    st.chain = next;
                    *calib = Some(st);
                }
                let steps = compile_steps(&kernel, &epi);
                (epi, steps)
            }
        }
        None => (tail_epilogue(tail, channels, out_bits), None),
    };

    MainStage {
        name: name.to_string(),
        op: op.clone(),
        pool,
        epi,
        steps,
        kernel,
        init,
        input: src,
        save_branch,
        residual,
    }
}

/// Compile a stage's chain into the integer steps its kernel runs in place
/// of the f32 arithmetic — `None` for a chain that does not quantize (the
/// output layer) or admits no table ([`Steps::build`]), which
/// [`CompiledNet::executable_error`] then reports.
pub(super) fn compile_steps(kernel: &MainKernel, epi: &Epilogue) -> Option<Steps> {
    let channels = match kernel {
        MainKernel::Conv { desc, .. } => desc.cout,
        MainKernel::Linear { desc, .. } => desc.m,
        MainKernel::Baseline => return None,
    };
    Steps::build(epi, channels)
}

/// Decode a packed map's activation codes as NHWC i32 — the identity-skip
/// form of the exact-i32 residual contract (quantized codes *are* the
/// integer activations the block adds back), in the accumulator layout
/// calibration adds residuals in. The runner never decodes: its fused tail
/// reads the packed branch in place.
fn decode_codes_into(map: &BitTensor4, res: &mut Vec<i32>) {
    debug_assert_eq!(
        map.encoding(),
        Encoding::ZeroOne,
        "identity residuals read unsigned activation codes"
    );
    let (n, h, w, c) = map.shape();
    apnn_bitpack::resize_for_overwrite(res, n * h * w * c);
    map.unpack(res);
}

/// Flow the calibration batch through a freshly-prepared stage: observe the
/// accumulator range after the synthetic BN/ReLU prefix, fix the quantize
/// scale/zero-point from it, and hand the resulting packed activations to
/// the next stage's calibration. Returns `(finalized epilogue, next act)`.
/// `residual` is added into the raw accumulators before the prefix — the
/// same pre-epilogue ordering the kernels execute.
#[allow(clippy::too_many_arguments)]
fn calibrate_stage(
    kernel: &MainKernel,
    pool: Option<Pool2>,
    tail: &FusedTail,
    channels: usize,
    out_bits: u32,
    next_enc: Encoding,
    act: Act,
    residual: Option<&[i32]>,
    rng: &mut SynthRng,
) -> (Epilogue, Option<Act>) {
    // Raw i32 accumulators (+ pooled geometry).
    enum OutShape {
        Map { n: usize, oh: usize, ow: usize },
        Vector { n: usize },
    }
    let (accs, shape): (Vec<i32>, OutShape) = match (kernel, act) {
        (
            MainKernel::Conv {
                desc,
                prepared: Some(p),
                ..
            },
            Act::Map(map),
        ) => {
            let n = map.shape().0;
            let mut y = p.execute(&map);
            if let Some(res) = residual {
                assert_eq!(res.len(), y.len(), "residual must match the accumulators");
                for (a, r) in y.iter_mut().zip(res) {
                    *a += r;
                }
            }
            let (mut oh, mut ow) = (desc.out_h(), desc.out_w());
            if let Some(kind) = pool {
                y = pool2_i32(&y, n, oh, ow, desc.cout, kind);
                oh /= 2;
                ow /= 2;
            }
            (y, OutShape::Map { n, oh, ow })
        }
        (
            MainKernel::Linear {
                prepared: Some(p), ..
            },
            act @ (Act::Map(_) | Act::Vector(_)),
        ) => {
            let v = match act {
                Act::Map(m) => flatten_map(&m),
                Act::Vector(v) => v,
            };
            let n = v.rows();
            (p.execute(&v), OutShape::Vector { n })
        }
        _ => unreachable!(
            "calibration reached an invalid kernel/activation combination \
             (calibration only runs on fully-fused, materialized plans)"
        ),
    };

    // A chain applied to every accumulator, in accumulator order: row-wise
    // over a map (channel innermost), per element over a linear stage's
    // features×batch product.
    let apply_all = |epi: &Epilogue| -> Vec<f32> {
        match shape {
            OutShape::Map { .. } => {
                let mut vals: Vec<f32> = accs.iter().map(|&a| a as f32).collect();
                epi.rows(channels).apply(&mut vals);
                vals
            }
            OutShape::Vector { n } => {
                let vals = accs.iter().enumerate();
                vals.map(|(idx, &a)| epi.apply(a, idx / n.max(1))).collect()
            }
        }
    };

    // BN/ReLU prefix with synthetic parameters.
    let mut epi = bn_relu_prefix(tail, channels, rng);

    if !tail.quantize {
        // Output stage: raw i32 logits, calibration ends here.
        return (epi, None);
    }

    // Observe the post-prefix value range and fix the quantize constants so
    // codes spread across the full width.
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for v in apply_all(&epi) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        (lo, hi) = (0.0, 1.0);
    }
    let levels = ((1u32 << out_bits) - 1) as f32;
    let scale = ((hi - lo) / (levels + 1.0)).max(1e-3);
    epi = epi.then(EpilogueOp::Quantize {
        scale,
        zero_point: lo,
        bits: out_bits,
    });

    // Pack the calibrated activations for the next stage.
    let codes: Vec<u32> = apply_all(&epi).into_iter().map(|v| v as u32).collect();
    let next = match shape {
        OutShape::Map { n, oh, ow } => {
            let mut t = BitTensor4::zeros(n, oh, ow, channels, out_bits, next_enc);
            for (i, row) in codes.chunks_exact((ow * channels).max(1)).enumerate() {
                t.pack_row(i / oh, i % oh, row);
            }
            Act::Map(t)
        }
        OutShape::Vector { n } => {
            // accs are features×batch; the next layer consumes rows=batch.
            let mut rows = vec![0u32; n * channels];
            for f in 0..channels {
                for b in 0..n {
                    rows[b * channels + f] = codes[f * n + b];
                }
            }
            Act::Vector(BitPlanes::from_codes(
                &rows, n, channels, out_bits, next_enc,
            ))
        }
    };
    (epi, Some(next))
}

/// The synthetic BatchNorm/ReLU prefix calibration observes ranges
/// through (seeded, so the same seed produces the same parameters).
fn bn_relu_prefix(tail: &FusedTail, channels: usize, rng: &mut SynthRng) -> Epilogue {
    let mut epi = Epilogue::none();
    if tail.bn {
        let gamma: Vec<f32> = (0..channels).map(|_| 0.75 + 0.5 * rng.unit()).collect();
        let beta: Vec<f32> = (0..channels).map(|_| 0.5 - rng.unit()).collect();
        epi = epi.then(EpilogueOp::BatchNorm {
            gamma,
            beta,
            mean: vec![0.0; channels],
            var: vec![1.0; channels],
            eps: 1e-5,
        });
    }
    if tail.relu {
        epi = epi.then(EpilogueOp::Relu);
    }
    epi
}

/// Build a cost-shaped epilogue from a fused tail (parameter values don't
/// affect pricing, only the op mix does) — what sim-only plans carry.
fn tail_epilogue(tail: &FusedTail, channels: usize, out_bits: u32) -> Epilogue {
    let mut epi = Epilogue::none();
    if tail.bn {
        epi = epi.then(EpilogueOp::BatchNorm {
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            mean: vec![0.0; channels],
            var: vec![1.0; channels],
            eps: 1e-5,
        });
    }
    if tail.relu {
        epi = epi.then(EpilogueOp::Relu);
    }
    if tail.quantize {
        epi = epi.then(EpilogueOp::Quantize {
            scale: 1.0,
            zero_point: 0.0,
            bits: out_bits,
        });
    }
    epi
}
/// Small deterministic generator for synthetic weights/parameters
/// (splitmix64; dependency-free).
struct SynthRng {
    state: u64,
}

impl SynthRng {
    fn new(seed: u64) -> Self {
        SynthRng {
            state: seed ^ 0x5851F42D4C957F2D,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn signs(&mut self, n: usize) -> Vec<i32> {
        (0..n)
            .map(|_| if self.next() & 1 == 0 { -1 } else { 1 })
            .collect()
    }

    fn codes(&mut self, n: usize, bits: u32) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next() as u32) & ((1 << bits) - 1))
            .collect()
    }
}
