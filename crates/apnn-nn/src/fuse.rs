//! Semantic-aware kernel fusion pass (paper §5.2).
//!
//! Groups each main (conv/linear) layer with the element-wise layers that
//! follow it — BatchNorm, ReLU, fusable 2×2 pooling, activation
//! quantization — into a single execution stage, so the fused kernel applies
//! the whole chain in registers and stores only the final (packed) result.
//! Non-fusable pools (e.g. AlexNet's 3×3/2) stay as element-wise stages but
//! still absorb a following quantization so the packed §5.1 dataflow holds.

use crate::layer::{LayerSpec, ShapeCursor};
use crate::net::Network;

/// The tensor-core op at the heart of a fused stage.
#[derive(Debug, Clone, PartialEq)]
pub enum MainOp {
    /// Convolution with resolved input shape.
    Conv {
        /// Input channels.
        cin: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Output channels.
        cout: usize,
        /// Kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Fully connected with resolved input width.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

impl MainOp {
    /// Output elements per image (before any fused pooling).
    pub fn out_elements(&self) -> usize {
        match *self {
            MainOp::Conv {
                h,
                w,
                cout,
                k,
                stride,
                pad,
                ..
            } => {
                let oh = (h + 2 * pad - k) / stride + 1;
                let ow = (w + 2 * pad - k) / stride + 1;
                cout * oh * ow
            }
            MainOp::Linear { out_features, .. } => out_features,
        }
    }

    /// MACs per image: `out_elements() · cin · k²` for a conv, `in · out`
    /// for a linear.
    pub fn macs(&self) -> u64 {
        let per_output = match *self {
            MainOp::Conv { cin, k, .. } => cin * k * k,
            MainOp::Linear { in_features, .. } => in_features,
        };
        (self.out_elements() * per_output) as u64
    }

    /// Output channels/features (the epilogue channel dimension).
    pub fn out_channels(&self) -> usize {
        match *self {
            MainOp::Conv { cout, .. } => cout,
            MainOp::Linear { out_features, .. } => out_features,
        }
    }
}

/// Element-wise work that did not fuse into a main stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EwKind {
    /// Pooling `k×k`/`stride` with symmetric padding `pad`; `quantize` =
    /// absorbed a following QuantizeActs (writes packed codes instead of
    /// i32).
    Pool {
        /// Window.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// Max (true) or average (false).
        max: bool,
        /// Fused quantizing store.
        quantize: bool,
    },
    /// Global average pool.
    GlobalAvgPool,
    /// Batch normalization.
    BatchNorm,
    /// ReLU.
    Relu,
    /// Standalone activation quantization (i32 in, packed out).
    Quantize,
    /// Residual skip add.
    ResidualAdd,
    /// Pack the 8-bit input image into bit planes (emulated schemes only).
    InputPack,
}

/// Where a main stage reads its input from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StageSrc {
    /// The previous chain stage's output (the default sequential dataflow).
    #[default]
    Chain,
    /// The saved residual branch (skip-path projection convs).
    Branch,
}

/// What a residual-consuming stage adds into its raw i32 accumulators
/// *before* the fused epilogue runs (the exact-i32 requantization contract:
/// `quantize(bn_relu(acc + residual))`, no intermediate rounding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualSrc {
    /// The saved branch itself, decoded from its packed codes.
    Identity,
    /// The immediately preceding skip-projection stage's raw accumulators.
    Projection,
}

/// Epilogue shape fused into a main stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedTail {
    /// Batch norm fused.
    pub bn: bool,
    /// ReLU fused.
    pub relu: bool,
    /// 2×2/2 max pooling fused.
    pub pool2: bool,
    /// Quantizing store fused.
    pub quantize: bool,
}

/// One execution stage after fusion.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// A tensor-core kernel (+ fused tail).
    Main {
        /// Display name (from the conv/linear layer).
        name: String,
        /// The op with resolved shapes.
        op: MainOp,
        /// Position among main layers (0 = first, consumes 8-bit input).
        main_index: usize,
        /// Fused element-wise tail.
        tail: FusedTail,
        /// Chain or branch input.
        input: StageSrc,
        /// Capture this stage's packed output as the residual branch.
        save_branch: bool,
        /// Residual added into the raw accumulators before the tail.
        residual: Option<ResidualSrc>,
        /// Elements per image *entering* the stage.
        in_elements: usize,
        /// Elements per image *leaving* the stage (after fused pool).
        out_elements: usize,
    },
    /// An element-wise kernel.
    Elementwise {
        /// Display name.
        name: String,
        /// Kind.
        kind: EwKind,
        /// Elements per image in.
        in_elements: usize,
        /// Elements per image out.
        out_elements: usize,
        /// Channel count at this point (BN parameter dimension).
        channels: usize,
    },
}

impl Stage {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            Stage::Main { name, .. } | Stage::Elementwise { name, .. } => name,
        }
    }

    /// Is this a main (tensor-core) stage?
    pub fn is_main(&self) -> bool {
        matches!(self, Stage::Main { .. })
    }
}

fn channels_of(shape: ShapeCursor) -> usize {
    match shape {
        ShapeCursor::Map { c, .. } => c,
        ShapeCursor::Vector { features } => features,
    }
}

/// Run the fusion pass.
///
/// `fuse = true` applies the §5.2 grouping; `fuse = false` leaves every
/// layer as its own stage (the BNN baseline and the Fig. 10 "w/o fusion"
/// configuration).
pub fn fuse_network(net: &Network, fuse: bool) -> Vec<Stage> {
    let shapes = net.shapes();
    let mut stages = Vec::new();
    let mut main_index = 0usize;
    let mut i = 0usize;
    // Shape cursor captured at the last `BranchSave` — what the skip path
    // (projection or identity) reads.
    let mut branch_shape: Option<ShapeCursor> = None;

    while i < net.layers.len() {
        let layer = &net.layers[i];
        let in_shape = shapes[i];
        match layer {
            LayerSpec::Conv {
                name,
                cout,
                k,
                stride,
                pad,
            } => {
                let ShapeCursor::Map { c, h, w } = in_shape else {
                    panic!("conv on vector input")
                };
                let op = MainOp::Conv {
                    cin: c,
                    h,
                    w,
                    cout: *cout,
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                };
                let (tail, residual, consumed) = if fuse {
                    absorb_conv_tail(&net.layers[i + 1..], true)
                } else {
                    (FusedTail::default(), None, 0)
                };
                let mut out_elements = op.out_elements();
                if tail.pool2 {
                    out_elements /= 4;
                }
                let residual = residual.map(|skip| {
                    let oh = (h + 2 * pad - k) / stride + 1;
                    let ow = (w + 2 * pad - k) / stride + 1;
                    let src = branch_shape
                        .expect("ResidualAdd fused into a conv requires a preceding BranchSave");
                    match skip {
                        Some(spec) => {
                            // Lower the projection as its own main stage
                            // reading the *branch*; it runs right before the
                            // consuming conv and leaves raw i32 accumulators
                            // for the residual add.
                            let ShapeCursor::Map {
                                c: bc,
                                h: bh,
                                w: bw,
                            } = src
                            else {
                                panic!("skip projection on a non-map branch")
                            };
                            let skip_op = MainOp::Conv {
                                cin: bc,
                                h: bh,
                                w: bw,
                                cout: spec.cout,
                                k: spec.k,
                                stride: spec.stride,
                                pad: spec.pad,
                            };
                            let skip_out = ShapeCursor::Map {
                                c: spec.cout,
                                h: (bh + 2 * spec.pad - spec.k) / spec.stride + 1,
                                w: (bw + 2 * spec.pad - spec.k) / spec.stride + 1,
                            };
                            assert_eq!(
                                skip_out,
                                ShapeCursor::Map {
                                    c: *cout,
                                    h: oh,
                                    w: ow
                                },
                                "skip projection `{}` does not match the main path at `{name}`",
                                spec.name,
                            );
                            let skip_out_elements = skip_op.out_elements();
                            stages.push(Stage::Main {
                                name: spec.name,
                                op: skip_op,
                                main_index,
                                tail: FusedTail::default(),
                                input: StageSrc::Branch,
                                save_branch: false,
                                residual: None,
                                in_elements: src.elements(),
                                out_elements: skip_out_elements,
                            });
                            main_index += 1;
                            ResidualSrc::Projection
                        }
                        None => {
                            assert_eq!(
                                src,
                                ShapeCursor::Map {
                                    c: *cout,
                                    h: oh,
                                    w: ow
                                },
                                "identity skip shape does not match the main path at `{name}`",
                            );
                            ResidualSrc::Identity
                        }
                    }
                });
                stages.push(Stage::Main {
                    name: name.clone(),
                    op,
                    main_index,
                    tail,
                    input: StageSrc::Chain,
                    save_branch: false,
                    residual,
                    in_elements: in_shape.elements(),
                    out_elements,
                });
                main_index += 1;
                i += 1 + consumed;
            }
            LayerSpec::Linear { name, out_features } => {
                let ShapeCursor::Vector { features } = in_shape else {
                    panic!("linear on map input")
                };
                let op = MainOp::Linear {
                    in_features: features,
                    out_features: *out_features,
                };
                let (tail, consumed) = if fuse {
                    // Pooling never follows a linear layer in our zoo.
                    absorb_tail(&net.layers[i + 1..], false)
                } else {
                    (FusedTail::default(), 0)
                };
                stages.push(Stage::Main {
                    name: name.clone(),
                    op,
                    main_index,
                    tail,
                    input: StageSrc::Chain,
                    save_branch: false,
                    residual: None,
                    in_elements: features,
                    out_elements: *out_features,
                });
                main_index += 1;
                i += 1 + consumed;
            }
            LayerSpec::Flatten => {
                i += 1; // free
            }
            LayerSpec::BranchSave => {
                branch_shape = Some(in_shape);
                // The branch *is* the previous main stage's packed output —
                // a second reader, not a copy; mark the producer so the
                // executor pins its slot until the residual consumes it.
                if let Some(Stage::Main { save_branch, .. }) = stages.last_mut() {
                    *save_branch = true;
                }
                i += 1;
            }
            LayerSpec::SkipConv {
                name,
                cout,
                k,
                stride,
                pad,
            } => {
                // A skip projection that did not fuse into a residual conv
                // (fusion off, or a non-residual tail shape): lower it as a
                // standalone branch-reading main stage so the cost model
                // still prices the projection against the branch shape.
                let src = branch_shape.expect("SkipConv requires a preceding BranchSave");
                let ShapeCursor::Map { c, h, w } = src else {
                    panic!("skip projection on a non-map branch")
                };
                let op = MainOp::Conv {
                    cin: c,
                    h,
                    w,
                    cout: *cout,
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                };
                let out_elements = op.out_elements();
                stages.push(Stage::Main {
                    name: name.clone(),
                    op,
                    main_index,
                    tail: FusedTail::default(),
                    input: StageSrc::Branch,
                    save_branch: false,
                    residual: None,
                    in_elements: src.elements(),
                    out_elements,
                });
                main_index += 1;
                i += 1;
            }
            other => {
                let out_shape = shapes[i + 1];
                let kind = match other {
                    LayerSpec::MaxPool { k, stride, pad }
                    | LayerSpec::AvgPool { k, stride, pad } => {
                        // A pool stage can still absorb a following quantize
                        // (packed store) when fusion is on.
                        let quantize =
                            fuse && matches!(net.layers.get(i + 1), Some(LayerSpec::QuantizeActs));
                        if quantize {
                            i += 1;
                        }
                        EwKind::Pool {
                            k: *k,
                            stride: *stride,
                            pad: *pad,
                            max: matches!(other, LayerSpec::MaxPool { .. }),
                            quantize,
                        }
                    }
                    LayerSpec::GlobalAvgPool => EwKind::GlobalAvgPool,
                    LayerSpec::BatchNorm => EwKind::BatchNorm,
                    LayerSpec::Relu => EwKind::Relu,
                    LayerSpec::QuantizeActs => EwKind::Quantize,
                    LayerSpec::ResidualAdd => EwKind::ResidualAdd,
                    _ => unreachable!(),
                };
                stages.push(Stage::Elementwise {
                    name: other.name(),
                    kind,
                    in_elements: in_shape.elements(),
                    out_elements: out_shape.elements(),
                    channels: channels_of(out_shape),
                });
                i += 1;
            }
        }
    }
    stages
}

/// Groups of fused main-layer indices whose *output* activation bits must
/// agree under a mixed-precision schedule: every identity residual join
/// unions the branch producer with the joining layer (projection joins
/// impose no constraint, which makes downsample blocks natural schedule
/// segment boundaries). Groups are disjoint, each sorted ascending, and
/// only layers participating in at least one identity join appear.
pub fn identity_join_groups(net: &Network) -> Vec<Vec<usize>> {
    let stages = fuse_network(net, true);
    let n = stages.iter().filter(|s| s.is_main()).count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut constrained = vec![false; n];
    let mut branch: Option<usize> = None;
    for s in &stages {
        let Stage::Main {
            main_index,
            save_branch,
            residual,
            ..
        } = s
        else {
            continue;
        };
        if matches!(residual, Some(ResidualSrc::Identity)) {
            let b = branch.expect("identity residual without a saved branch");
            constrained[b] = true;
            constrained[*main_index] = true;
            let (rb, ri) = (find(&mut parent, b), find(&mut parent, *main_index));
            parent[rb] = ri;
        }
        if *save_branch {
            branch = Some(*main_index);
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &is_joined) in constrained.iter().enumerate() {
        if is_joined {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(i);
        }
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Skip-projection spec captured during residual tail absorption.
struct SkipSpec {
    name: String,
    cout: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

/// Absorb a conv tail, extended with the residual pattern
/// `[SkipConv?] ResidualAdd [Relu?] [QuantizeActs?]`: the residual add
/// happens on the conv's raw i32 accumulators (before BN/ReLU/quantize run
/// in registers), so the whole block tail fuses into the producing kernel.
/// Returns `(tail, residual, consumed)` where `residual` is
/// `Some(Some(spec))` for a projection skip, `Some(None)` for identity.
fn absorb_conv_tail(
    rest: &[LayerSpec],
    allow_pool: bool,
) -> (FusedTail, Option<Option<SkipSpec>>, usize) {
    let (mut tail, mut consumed) = absorb_tail(rest, allow_pool);
    let mut residual = None;
    if !tail.quantize && !tail.pool2 {
        let mut j = consumed;
        let skip = match rest.get(j) {
            Some(LayerSpec::SkipConv {
                name,
                cout,
                k,
                stride,
                pad,
            }) => {
                j += 1;
                Some(SkipSpec {
                    name: name.clone(),
                    cout: *cout,
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                })
            }
            _ => None,
        };
        if matches!(rest.get(j), Some(LayerSpec::ResidualAdd)) {
            j += 1;
            if matches!(rest.get(j), Some(LayerSpec::Relu)) {
                tail.relu = true;
                j += 1;
            }
            if matches!(rest.get(j), Some(LayerSpec::QuantizeActs)) {
                tail.quantize = true;
                j += 1;
            }
            residual = Some(skip);
            consumed = j;
        }
        // A SkipConv *without* a following ResidualAdd is left for the main
        // walk (standalone branch stage).
    }
    (tail, residual, consumed)
}

/// Absorb a BN/ReLU/(2×2 pool)/Quantize tail; returns the tail and how many
/// layers it consumed.
fn absorb_tail(rest: &[LayerSpec], allow_pool: bool) -> (FusedTail, usize) {
    let mut tail = FusedTail::default();
    let mut consumed = 0usize;
    for l in rest {
        match l {
            LayerSpec::BatchNorm if !tail.pool2 && !tail.quantize => tail.bn = true,
            LayerSpec::Relu if !tail.quantize => tail.relu = true,
            LayerSpec::MaxPool {
                k: 2,
                stride: 2,
                pad: 0,
            } if allow_pool && !tail.quantize => tail.pool2 = true,
            LayerSpec::QuantizeActs => {
                tail.quantize = true;
                consumed += 1;
                break;
            }
            _ => break,
        }
        consumed += 1;
    }
    (tail, consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerSpec as L;

    fn vggish() -> Network {
        Network::new("t", 3, 8, 8)
            .push(L::conv("c1", 16, 3, 1, 1))
            .push(L::BatchNorm)
            .push(L::Relu)
            .push(L::MaxPool {
                k: 2,
                stride: 2,
                pad: 0,
            })
            .push(L::QuantizeActs)
            .push(L::conv("c2", 32, 3, 1, 1))
            .push(L::Relu)
            .push(L::QuantizeActs)
            .push(L::Flatten)
            .push(L::linear("fc", 10))
    }

    #[test]
    fn fused_stages_collapse_tails() {
        let stages = fuse_network(&vggish(), true);
        // c1(+bn+relu+pool+quant), c2(+relu+quant), fc → 3 stages.
        assert_eq!(stages.len(), 3);
        let Stage::Main {
            tail, out_elements, ..
        } = &stages[0]
        else {
            panic!()
        };
        assert!(tail.bn && tail.relu && tail.pool2 && tail.quantize);
        assert_eq!(*out_elements, 16 * 4 * 4);
        let Stage::Main { tail, .. } = &stages[1] else {
            panic!()
        };
        assert!(!tail.bn && tail.relu && !tail.pool2 && tail.quantize);
        assert!(stages[2].is_main());
    }

    #[test]
    fn unfused_keeps_every_layer() {
        let stages = fuse_network(&vggish(), false);
        // conv, bn, relu, pool, quant, conv, relu, quant, fc (flatten free).
        assert_eq!(stages.len(), 9);
        assert_eq!(stages.iter().filter(|s| s.is_main()).count(), 3);
    }

    #[test]
    fn big_pool_stays_elementwise_but_absorbs_quantize() {
        let net = Network::new("t", 3, 31, 31)
            .push(L::conv("c1", 8, 3, 1, 1))
            .push(L::Relu)
            .push(L::MaxPool {
                k: 3,
                stride: 2,
                pad: 0,
            })
            .push(L::QuantizeActs);
        let stages = fuse_network(&net, true);
        assert_eq!(stages.len(), 2);
        let Stage::Elementwise { kind, .. } = &stages[1] else {
            panic!()
        };
        assert_eq!(
            *kind,
            EwKind::Pool {
                k: 3,
                stride: 2,
                pad: 0,
                max: true,
                quantize: true
            }
        );
    }

    fn residual_block(downsample: bool) -> Network {
        let (cout, stride) = if downsample { (32, 2) } else { (16, 1) };
        let mut net = Network::new("res", 3, 8, 8)
            .push(L::conv("stem", 16, 3, 1, 1))
            .push(L::Relu)
            .push(L::QuantizeActs)
            .push(L::BranchSave)
            .push(L::conv("a", cout, 3, stride, 1))
            .push(L::BatchNorm)
            .push(L::Relu)
            .push(L::QuantizeActs)
            .push(L::conv("b", cout, 3, 1, 1))
            .push(L::BatchNorm);
        if downsample {
            net = net.push(L::skip_conv("ds", cout, 1, stride, 0));
        }
        net.push(L::ResidualAdd)
            .push(L::Relu)
            .push(L::QuantizeActs)
            .push(L::Flatten)
            .push(L::linear("fc", 10))
    }

    #[test]
    fn identity_residual_fuses_into_the_consuming_conv() {
        let stages = fuse_network(&residual_block(false), true);
        // stem(+relu+quant), a(+bn+relu+quant), b(+bn+residual+relu+quant), fc.
        assert_eq!(stages.len(), 4);
        let Stage::Main {
            save_branch,
            residual,
            tail,
            ..
        } = &stages[0]
        else {
            panic!()
        };
        assert!(*save_branch, "the branch producer is marked");
        assert_eq!(*residual, None);
        assert!(tail.quantize);
        let Stage::Main {
            residual,
            tail,
            input,
            ..
        } = &stages[2]
        else {
            panic!()
        };
        assert_eq!(*residual, Some(ResidualSrc::Identity));
        assert_eq!(*input, StageSrc::Chain);
        assert!(tail.bn && tail.relu && tail.quantize && !tail.pool2);
    }

    #[test]
    fn projection_residual_emits_a_branch_stage_before_the_consumer() {
        let stages = fuse_network(&residual_block(true), true);
        // stem, a, ds (branch), b (residual=Projection), fc.
        assert_eq!(stages.len(), 5);
        let Stage::Main {
            name, op, input, ..
        } = &stages[2]
        else {
            panic!()
        };
        assert_eq!(name, "ds");
        assert_eq!(*input, StageSrc::Branch);
        // The projection reads the *branch* (16ch 8×8), not the chain.
        assert_eq!(
            *op,
            MainOp::Conv {
                cin: 16,
                h: 8,
                w: 8,
                cout: 32,
                k: 1,
                stride: 2,
                pad: 0
            }
        );
        let Stage::Main { residual, .. } = &stages[3] else {
            panic!()
        };
        assert_eq!(*residual, Some(ResidualSrc::Projection));
        // Main indices stay dense over the reordered stages.
        let idx: Vec<usize> = stages
            .iter()
            .filter_map(|s| match s {
                Stage::Main { main_index, .. } => Some(*main_index),
                _ => None,
            })
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unfused_residual_stays_elementwise() {
        let stages = fuse_network(&residual_block(true), false);
        // Every layer its own stage; ResidualAdd stays a marker and the
        // skip projection is priced against the branch shape.
        assert!(stages
            .iter()
            .any(|s| matches!(s, Stage::Elementwise { kind, .. } if *kind == EwKind::ResidualAdd)));
        let ds = stages
            .iter()
            .find(|s| s.name() == "ds")
            .expect("projection stage present");
        let Stage::Main { op, input, .. } = ds else {
            panic!()
        };
        assert_eq!(*input, StageSrc::Branch);
        assert!(matches!(
            op,
            MainOp::Conv {
                cin: 16,
                h: 8,
                w: 8,
                ..
            }
        ));
    }

    #[test]
    fn main_indices_count_only_main_layers() {
        let stages = fuse_network(&vggish(), true);
        let idx: Vec<usize> = stages
            .iter()
            .filter_map(|s| match s {
                Stage::Main { main_index, .. } => Some(*main_index),
                _ => None,
            })
            .collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }
}
