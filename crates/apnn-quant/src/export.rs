//! Lowering trained QAT models onto the packed integer engine.
//!
//! A w1aQ MLP trained with the symmetric hard-tanh activation grid is
//! exactly representable on the APNN-TC machinery:
//!
//! * 1-bit weights become ±1 planes (Case III operands);
//! * a symmetric activation `a = code·s_a − 1` (`s_a = 2/(2^q−1)`) is an
//!   *unsigned* code plus an affine: the GEMM becomes
//!   `z = s_w·s_a·(signs·codes) + (bias + s_w·z₀·Σ signs)` — the zero-point
//!   term is a per-output-row constant that folds into the fused
//!   [`EpilogueOp::Affine`] bias;
//! * re-quantization to the next layer's codes is the paper's `⌊(v−z)/s⌋`
//!   epilogue with `s = s_a`, `z = −1 − s_a/2` (flooring the +½ makes it a
//!   round).
//!
//! The final layer's positive affine is applied outside the engine, so the
//! class ranking is exact integer arithmetic end to end.

use apnn_bitpack::BitPlanes;
use apnn_bitpack::Encoding;
use apnn_kernels::apmm::{Apmm, ApmmDesc};
use apnn_kernels::fusion::{Epilogue, EpilogueOp};
use apnn_nn::CompiledNet;

use crate::mlp::{argmax, Mlp, QuantScheme};

/// One exported layer: packed ±1 weights + the affine fold.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedLayer {
    /// +1/−1 weight signs, `out × in`.
    pub(crate) signs: Vec<i32>,
    /// Weight scale `s_w = E[|w|]`.
    pub(crate) s_w: f32,
    /// Bias (already including the activation zero-point fold).
    pub(crate) bias_folded: Vec<f32>,
    /// In width.
    pub(crate) fan_in: usize,
    /// Out width.
    pub(crate) fan_out: usize,
}

/// A trained model lowered to packed integer form.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedNet {
    pub(crate) layers: Vec<ExportedLayer>,
    /// Activation bits `q` for hidden layers.
    pub a_bits: u32,
    /// Input code width — 8 bits, following the paper's §5.1 dataflow (the
    /// first layer always consumes the 8-bit quantized input).
    pub input_bits: u32,
    /// Input feature width.
    pub dim: usize,
    /// Classes.
    pub classes: usize,
}

/// Export a trained MLP. Requires
/// `QuantScheme::Quantized { w_bits: 1, quantize_output: true, .. }`.
pub fn export_mlp(mlp: &Mlp) -> ExportedNet {
    let QuantScheme::Quantized {
        w_bits,
        a_bits,
        quantize_output,
    } = mlp.scheme
    else {
        panic!("only quantized models can be exported")
    };
    assert_eq!(w_bits, 1, "export supports 1-bit weights (±1 planes)");
    assert!(
        quantize_output,
        "the classifier layer must be quantized for integer lowering"
    );

    let layers = mlp
        .layers
        .iter()
        .map(|l| {
            let s_w = l.w.iter().map(|w| w.abs()).sum::<f32>() / l.w.len().max(1) as f32;
            let signs: Vec<i32> = l.w.iter().map(|&w| if w >= 0.0 { 1 } else { -1 }).collect();
            // Fold the activation zero-point z₀ = −1: z = … + s_w·z₀·Σsigns.
            let bias_folded: Vec<f32> = (0..l.fan_out)
                .map(|o| {
                    let row_sum: i32 = signs[o * l.fan_in..(o + 1) * l.fan_in].iter().sum();
                    l.b[o] + -s_w * row_sum as f32
                })
                .collect();
            ExportedLayer {
                signs,
                s_w,
                bias_folded,
                fan_in: l.fan_in,
                fan_out: l.fan_out,
            }
        })
        .collect();

    ExportedNet {
        layers,
        a_bits,
        input_bits: 8,
        dim: mlp.layers[0].fan_in,
        classes: mlp.layers.last().unwrap().fan_out,
    }
}

impl ExportedNet {
    /// Code levels of layer `li`'s *input* operand (`2^bits − 1`).
    fn in_levels(&self, li: usize) -> f32 {
        let bits = if li == 0 {
            self.input_bits
        } else {
            self.a_bits
        };
        ((1u32 << bits) - 1) as f32
    }

    /// Input activation scale of layer `li`: `s_a = 2/(2^bits − 1)`.
    fn in_s_a(&self, li: usize) -> f32 {
        2.0 / self.in_levels(li)
    }

    /// Hidden activation scale `2/(2^q − 1)`.
    fn hidden_s_a(&self) -> f32 {
        2.0 / ((1u32 << self.a_bits) - 1) as f32
    }

    /// Quantize raw inputs (hard-tanh clipped) to 8-bit input codes (§5.1).
    pub fn quantize_input(&self, x: &[f32]) -> Vec<u32> {
        let levels = self.in_levels(0);
        x.iter()
            .map(|&v| ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * levels).round() as u32)
            .collect()
    }

    /// Lower the trained model straight into a [`CompiledNet`]
    /// plan for a given batch size — weights packed, emulation plans and
    /// correction vectors materialized once, ready for repeated
    /// `infer` / `infer_batched` serving.
    pub fn build_compiled(&self, batch: usize) -> CompiledNet {
        let mut plan = CompiledNet::hand_built("exported-mlp", "hand-built", batch);
        let n_layers = self.layers.len();
        for (li, l) in self.layers.iter().enumerate() {
            let weights = BitPlanes::from_signed_binary(&l.signs, l.fan_out, l.fan_in);
            let x_bits = if li == 0 {
                self.input_bits
            } else {
                self.a_bits
            };
            let desc = ApmmDesc {
                m: l.fan_out,
                n: batch,
                k: l.fan_in,
                w_bits: 1,
                x_bits,
                w_enc: Encoding::PlusMinusOne,
                x_enc: Encoding::ZeroOne,
            };
            let last = li + 1 == n_layers;
            let epi = if last {
                Epilogue::none() // final affine applied outside the engine
            } else {
                let out_s = self.hidden_s_a();
                Epilogue::none()
                    .then(EpilogueOp::Affine {
                        mul: l.s_w * self.in_s_a(li),
                        add: l.bias_folded.clone(),
                    })
                    .then(EpilogueOp::Quantize {
                        // floor((v + 1 + s/2)/s) clamped
                        //   = round((v+1)/2 · levels) clamped.
                        scale: out_s,
                        zero_point: -1.0 - out_s / 2.0,
                        bits: self.a_bits,
                    })
            };
            plan.push_linear(Apmm::new(desc).prepare(weights), epi);
        }
        plan
    }

    /// Integer logits through an already-compiled plan (from
    /// [`Self::build_compiled`]) — the serving path: lower once, call this
    /// per request batch with no weight re-packing.
    pub fn logits_int_with(&self, plan: &CompiledNet, xs: &[f32], batch: usize) -> Vec<i32> {
        assert_eq!(xs.len(), batch * self.dim);
        let codes: Vec<u32> = self.quantize_input(xs);
        let input =
            BitPlanes::from_codes(&codes, batch, self.dim, self.input_bits, Encoding::ZeroOne);
        plan.infer(&input)
    }

    /// Integer logits for a batch of raw inputs (row-major `batch × dim`),
    /// before the final affine.
    ///
    /// One-shot convenience: this lowers the model on every call. For
    /// serving loops, [`Self::build_compiled`] once and use
    /// [`Self::logits_int_with`].
    pub fn logits_int(&self, xs: &[f32], batch: usize) -> Vec<i32> {
        self.logits_int_with(&self.build_compiled(batch), xs, batch)
    }

    /// Predicted classes for a batch of raw inputs.
    pub fn predict(&self, xs: &[f32], batch: usize) -> Vec<usize> {
        let ints = self.logits_int(xs, batch);
        let last_li = self.layers.len() - 1;
        let last = &self.layers[last_li];
        let mul = last.s_w * self.in_s_a(last_li);
        (0..batch)
            .map(|b| {
                let logits: Vec<f32> = (0..self.classes)
                    .map(|c| ints[b * self.classes + c] as f32 * mul + last.bias_folded[c])
                    .collect();
                argmax(&logits)
            })
            .collect()
    }

    /// Classification accuracy of the packed engine on `(xs, ys)`.
    pub fn accuracy(&self, xs: &[f32], ys: &[usize], dim: usize) -> f32 {
        assert_eq!(dim, self.dim);
        let preds = self.predict(xs, ys.len());
        preds.iter().zip(ys).filter(|(p, y)| p == y).count() as f32 / ys.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;
    use crate::train::{train, TrainConfig};

    fn trained_exportable() -> (SyntheticDataset, Mlp) {
        let data = SyntheticDataset::generate(4, 24, 40, 24, 0.35, 77);
        let mut cfg = TrainConfig::new(
            vec![32],
            QuantScheme::Quantized {
                w_bits: 1,
                a_bits: 2,
                quantize_output: true,
            },
        );
        cfg.epochs = 12;
        let r = train(&data, &cfg);
        (data, r.mlp)
    }

    /// Pure-loop reference of the exported integer pipeline, using exactly
    /// the engine's formulas — predictions must match bit-for-bit.
    #[allow(clippy::needless_range_loop)]
    fn reference_predict(net: &ExportedNet, xs: &[f32], batch: usize) -> Vec<usize> {
        let hid_levels = ((1u32 << net.a_bits) - 1) as f32;
        let in_levels = ((1u32 << net.input_bits) - 1) as f32;
        let hid_s = 2.0 / hid_levels;
        let mut preds = Vec::with_capacity(batch);
        for b in 0..batch {
            let x = &xs[b * net.dim..(b + 1) * net.dim];
            let mut codes: Vec<i32> = x
                .iter()
                .map(|&v| ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * in_levels).round() as i32)
                .collect();
            let n_layers = net.layers.len();
            let mut logits = Vec::new();
            for (li, l) in net.layers.iter().enumerate() {
                let in_s = if li == 0 { 2.0 / in_levels } else { hid_s };
                let mut next = Vec::with_capacity(l.fan_out);
                for o in 0..l.fan_out {
                    let mut acc = 0i32;
                    for i in 0..l.fan_in {
                        acc += l.signs[o * l.fan_in + i] * codes[i];
                    }
                    if li + 1 == n_layers {
                        next.push(acc);
                    } else {
                        // Mirror Epilogue: Affine then Quantize.
                        let v = acc as f32 * (l.s_w * in_s) + l.bias_folded[o];
                        let q = ((v - (-1.0 - hid_s / 2.0)) / hid_s).floor();
                        next.push(q.clamp(0.0, hid_levels) as i32);
                    }
                }
                if li + 1 == n_layers {
                    let mul = l.s_w * in_s;
                    logits = next
                        .iter()
                        .enumerate()
                        .map(|(c, &v)| v as f32 * mul + l.bias_folded[c])
                        .collect();
                } else {
                    codes = next;
                }
            }
            preds.push(argmax(&logits));
        }
        preds
    }

    #[test]
    fn engine_matches_pure_integer_reference_exactly() {
        let (data, mlp) = trained_exportable();
        let net = export_mlp(&mlp);
        let batch = data.test_len();
        let engine = net.predict(&data.test_x, batch);
        let reference = reference_predict(&net, &data.test_x, batch);
        assert_eq!(engine, reference);
    }

    #[test]
    fn exported_accuracy_close_to_fake_quant() {
        let (data, mlp) = trained_exportable();
        let net = export_mlp(&mlp);
        let fake = mlp.accuracy(&data.test_x, &data.test_y, data.dim);
        let packed = net.accuracy(&data.test_x, &data.test_y, data.dim);
        // The packed path also quantizes the *input* (the fake path trains
        // on raw floats), so allow a modest gap.
        assert!(
            (fake - packed).abs() <= 0.15,
            "fake {fake} vs packed {packed}"
        );
        // And it should still clearly beat chance.
        assert!(packed > 1.2 / data.num_classes as f32);
    }

    #[test]
    fn zero_point_fold_matches_decomposed_math() {
        // One layer, hand-checkable: w = [+1, −1]·s_w, 2-bit input codes.
        let net = ExportedNet {
            layers: vec![ExportedLayer {
                signs: vec![1, -1],
                s_w: 0.5,
                bias_folded: vec![0.25 + -0.5 * 0.0], // Σsigns = 0
                fan_in: 2,
                fan_out: 1,
            }],
            a_bits: 2,
            input_bits: 2,
            dim: 2,
            classes: 1,
        };
        // x = [1.0, −1.0] → codes [3, 0]; acc = 1·3 + (−1)·0 = 3.
        let ints = net.logits_int(&[1.0, -1.0], 1);
        assert_eq!(ints, vec![3]);
        // Arithmetic check: z = s_w·(1·1 + (−1)(−1)) + b = 0.5·2 + 0.25;
        // engine: acc·s_w·s_a + bias_folded = 3·0.5·(2/3) + 0.25 = 1.25. ✓
        let v = ints[0] as f32 * (0.5 * 2.0 / 3.0) + 0.25;
        assert!((v - 1.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "quantized")]
    fn float_models_cannot_export() {
        let mlp = Mlp::new(&[4, 8, 2], QuantScheme::Float, 1);
        let _ = export_mlp(&mlp);
    }
}
