//! Fusable element-wise epilogues (paper §5.2).
//!
//! Quantization, batch normalization, and ReLU are all element-wise over the
//! i32 accumulators a GEMM/conv produces, so the paper fuses them into the
//! producing kernel: the values are transformed while still in registers and
//! only the final (possibly `q`-bit packed) result touches global memory.
//! The fused composition for a BN + ReLU + quantize chain is
//! `⌊max(bn(x) − z, 0) / s⌋` — reproduced verbatim by [`Epilogue::apply`].
//!
//! The kernels run the chain over a whole accumulator row at a time
//! ([`Epilogue::rows`]): one pass per op with the channel innermost, so each
//! pass is a straight-line loop over per-channel parameter slices that
//! vectorizes, instead of an op-list interpretation per element. Every
//! element still sees the same f32 operations in the same order, so both
//! forms produce the same bits.

/// One element-wise operation applied to a kernel's i32 accumulator.
#[derive(Debug, Clone)]
pub enum EpilogueOp {
    /// Batch normalization (Eq. 5): `(x − E[x]) / √(Var[x] + ε) · γ + β`,
    /// with per-output-channel statistics and learned parameters.
    BatchNorm {
        /// Learned scale γ per channel.
        gamma: Vec<f32>,
        /// Learned shift β per channel.
        beta: Vec<f32>,
        /// Running mean per channel.
        mean: Vec<f32>,
        /// Running variance per channel.
        var: Vec<f32>,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Per-channel affine transform `x·mul + add[channel]` — the
    /// dequantization-scale + bias fold used when lowering trained
    /// floating-point models onto the integer engine.
    Affine {
        /// Uniform multiplier (e.g. `s_w · s_x`).
        mul: f32,
        /// Per-channel additive term (bias).
        add: Vec<f32>,
    },
    /// `max(x, 0)`.
    Relu,
    /// Affine quantization to `bits`-wide unsigned codes:
    /// `⌊(x − z) / s⌋` clamped to `[0, 2^bits − 1]` (§5.2).
    Quantize {
        /// Scale `s` (must be > 0).
        scale: f32,
        /// Zero point `z`.
        zero_point: f32,
        /// Output code width.
        bits: u32,
    },
}

impl EpilogueOp {
    /// `(cuda_int_ops, cuda_flops)` cost of this op per element — fed to the
    /// simulator's CUDA-core counters.
    pub fn cost_per_element(&self) -> (u64, u64) {
        match self {
            EpilogueOp::BatchNorm { .. } => (0, 4), // sub, mul(rsqrt·γ folded), mul, add
            EpilogueOp::Affine { .. } => (0, 2),    // mul, add
            EpilogueOp::Relu => (1, 0),
            EpilogueOp::Quantize { .. } => (2, 2), // sub+mul, floor+clamp
        }
    }
}

/// Eq. 5 on one value, `den = √(Var[x] + ε)` — the one copy of the
/// arithmetic both application forms run.
#[inline(always)]
fn batch_norm(v: f32, mean: f32, den: f32, gamma: f32, beta: f32) -> f32 {
    (v - mean) / den * gamma + beta
}

/// §5.2 quantization of one value to a `bits`-wide code (as `f32`).
#[inline(always)]
fn quantize(v: f32, scale: f32, zero_point: f32, bits: u32) -> f32 {
    debug_assert!(scale > 0.0);
    ((v - zero_point) / scale)
        .floor()
        .clamp(0.0, ((1u32 << bits) - 1) as f32)
}

/// `v as u32` for what a quantizing chain leaves in a row — an
/// integer-valued code in `0.0..=255.0`, or NaN — in a form that vectorizes
/// (the saturating float→int `as` casts compile to scalar code). NaN fails
/// the first comparison and becomes 0, as the cast makes it; adding 2²³
/// leaves an integer below 2²³ in the low mantissa bits.
#[inline(always)]
fn code_bits(v: f32) -> u32 {
    let code = if v >= 0.0 { v.min(255.0) } else { 0.0 };
    (code + 8_388_608.0).to_bits() & 0xFF
}

/// An ordered chain of epilogue ops fused into a kernel.
#[derive(Debug, Clone, Default)]
pub struct Epilogue {
    ops: Vec<EpilogueOp>,
}

impl Epilogue {
    /// Empty epilogue: the kernel stores raw i32 accumulators.
    pub fn none() -> Self {
        Epilogue { ops: Vec::new() }
    }

    /// Append an op (builder style).
    pub fn then(mut self, op: EpilogueOp) -> Self {
        self.ops.push(op);
        self
    }

    /// The fused ops in application order.
    pub fn ops(&self) -> &[EpilogueOp] {
        &self.ops
    }

    /// `Some(bits)` when the chain ends in quantization — the producing
    /// kernel then emits packed `bits`-wide codes instead of i32.
    pub fn output_bits(&self) -> Option<u32> {
        match self.ops.last() {
            Some(EpilogueOp::Quantize { bits, .. }) => Some(*bits),
            _ => None,
        }
    }

    /// Apply the chain to accumulator `acc` of output channel `channel`.
    ///
    /// Returns the final value: for quantizing chains this is the unsigned
    /// code (as f32, exactly representable); otherwise the transformed value.
    pub fn apply(&self, acc: i32, channel: usize) -> f32 {
        let mut v = acc as f32;
        for op in &self.ops {
            v = match op {
                EpilogueOp::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                    eps,
                } => batch_norm(
                    v,
                    mean[channel],
                    (var[channel] + eps).sqrt(),
                    gamma[channel],
                    beta[channel],
                ),
                EpilogueOp::Affine { mul, add } => v * mul + add[channel],
                EpilogueOp::Relu => v.max(0.0),
                EpilogueOp::Quantize {
                    scale,
                    zero_point,
                    bits,
                } => quantize(v, *scale, *zero_point, *bits),
            };
        }
        v
    }

    /// Apply and return the quantized code. Panics if the chain does not end
    /// in [`EpilogueOp::Quantize`].
    pub fn apply_to_code(&self, acc: i32, channel: usize) -> u32 {
        assert!(
            self.output_bits().is_some(),
            "epilogue does not end in quantization"
        );
        self.apply(acc, channel) as u32
    }

    /// `f32` scratch elements [`Epilogue::rows`] fills for `channels`
    /// output channels (one BatchNorm denominator per op and channel).
    pub fn row_scratch_len(&self, channels: usize) -> usize {
        let bn = |op: &&EpilogueOp| matches!(op, EpilogueOp::BatchNorm { .. });
        self.ops.iter().filter(bn).count() * channels
    }

    /// Bind the chain to `channels` output channels for row-wise
    /// application, taking every BatchNorm's `√(var + ε)` once, into
    /// `scratch` (cleared; allocation-free at
    /// [`Epilogue::row_scratch_len`] capacity).
    pub fn rows<'a>(&'a self, channels: usize, scratch: &'a mut Vec<f32>) -> RowEpilogue<'a> {
        scratch.clear();
        for op in &self.ops {
            if let EpilogueOp::BatchNorm { var, eps, .. } = op {
                scratch.extend(var[..channels].iter().map(|v| (v + eps).sqrt()));
            }
        }
        RowEpilogue {
            ops: &self.ops,
            channels,
            bn_den: scratch,
        }
    }

    /// Total `(cuda_int_ops, cuda_flops)` per element.
    pub fn cost_per_element(&self) -> (u64, u64) {
        self.ops
            .iter()
            .map(EpilogueOp::cost_per_element)
            .fold((0, 0), |(ai, af), (bi, bf)| (ai + bi, af + bf))
    }

    /// Convenience: BN + ReLU + quantize — the canonical intermediate-layer
    /// chain of §5.2.
    #[allow(clippy::too_many_arguments)]
    pub fn bn_relu_quant(
        gamma: Vec<f32>,
        beta: Vec<f32>,
        mean: Vec<f32>,
        var: Vec<f32>,
        eps: f32,
        scale: f32,
        zero_point: f32,
        bits: u32,
    ) -> Self {
        Epilogue::none()
            .then(EpilogueOp::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                eps,
            })
            .then(EpilogueOp::Relu)
            .then(EpilogueOp::Quantize {
                scale,
                zero_point,
                bits,
            })
    }

    /// Convenience: bare quantization.
    pub fn quantize(scale: f32, zero_point: f32, bits: u32) -> Self {
        Epilogue::none().then(EpilogueOp::Quantize {
            scale,
            zero_point,
            bits,
        })
    }
}

/// An [`Epilogue`] bound to a channel count ([`Epilogue::rows`]): the
/// row-at-a-time form the fused kernels run.
#[derive(Debug, Clone, Copy)]
pub struct RowEpilogue<'a> {
    ops: &'a [EpilogueOp],
    channels: usize,
    /// `√(var + ε)` per BatchNorm op (in chain order) and channel.
    bn_den: &'a [f32],
}

impl RowEpilogue<'_> {
    /// [`RowEpilogue::apply`], then each value as its quantized code —
    /// `codes[i]` is exactly [`Epilogue::apply_to_code`]'s result. Panics
    /// if the chain does not end in an [`EpilogueOp::Quantize`] of at most
    /// 8 bits (what a packed activation holds).
    pub fn apply_to_codes(&self, vals: &mut [f32], codes: &mut [u32]) {
        assert!(
            matches!(self.ops.last(), Some(EpilogueOp::Quantize { bits, .. }) if *bits <= 8),
            "epilogue does not end in a packable quantization"
        );
        assert_eq!(vals.len(), codes.len());
        self.apply(vals);
        for (code, &v) in codes.iter_mut().zip(vals.iter()) {
            *code = code_bits(v);
        }
    }

    /// Apply the chain in place to NHWC values (`vals[x·channels + ch]`,
    /// accumulators converted to `f32`): afterwards `vals[i]` holds exactly
    /// [`Epilogue::apply`]'s result for that accumulator and channel.
    pub fn apply(&self, vals: &mut [f32]) {
        let c = self.channels;
        assert_eq!(vals.len() % c.max(1), 0, "whole pixels only");
        let mut bn_den = self.bn_den;
        for op in self.ops {
            match op {
                EpilogueOp::BatchNorm {
                    gamma, beta, mean, ..
                } => {
                    let (den, rest) = bn_den.split_at(c);
                    bn_den = rest;
                    let (gamma, beta, mean) = (&gamma[..c], &beta[..c], &mean[..c]);
                    for px in vals.chunks_exact_mut(c.max(1)) {
                        for i in 0..c {
                            px[i] = batch_norm(px[i], mean[i], den[i], gamma[i], beta[i]);
                        }
                    }
                }
                EpilogueOp::Affine { mul, add } => {
                    let add = &add[..c];
                    for px in vals.chunks_exact_mut(c.max(1)) {
                        for i in 0..c {
                            px[i] = px[i] * mul + add[i];
                        }
                    }
                }
                EpilogueOp::Relu => {
                    for v in vals.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                EpilogueOp::Quantize {
                    scale,
                    zero_point,
                    bits,
                } => {
                    for v in vals.iter_mut() {
                        *v = quantize(*v, *scale, *zero_point, *bits);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_epilogue_is_identity() {
        let e = Epilogue::none();
        assert_eq!(e.apply(-42, 0), -42.0);
        assert_eq!(e.output_bits(), None);
    }

    #[test]
    fn relu_clamps_negative() {
        let e = Epilogue::none().then(EpilogueOp::Relu);
        assert_eq!(e.apply(-5, 0), 0.0);
        assert_eq!(e.apply(7, 0), 7.0);
    }

    #[test]
    fn quantize_floors_and_clamps() {
        let e = Epilogue::quantize(2.0, 1.0, 2);
        // (7-1)/2 = 3 -> code 3 (max for 2 bits).
        assert_eq!(e.apply_to_code(7, 0), 3);
        // (20-1)/2 = 9.5 -> clamp to 3.
        assert_eq!(e.apply_to_code(20, 0), 3);
        // Below zero-point clamps to 0.
        assert_eq!(e.apply_to_code(-10, 0), 0);
        assert_eq!(e.output_bits(), Some(2));
    }

    #[test]
    fn fused_formula_matches_paper() {
        // ⌊max(bn(x) − z, 0)/s⌋ with bn(x) = (x−mean)/√(var+eps)·γ + β.
        let (gamma, beta, mean, var, eps) = (2.0f32, 1.0f32, 10.0f32, 4.0f32, 0.0f32);
        let (scale, z, bits) = (3.0f32, 0.5f32, 4u32);
        let e = Epilogue::bn_relu_quant(
            vec![gamma],
            vec![beta],
            vec![mean],
            vec![var],
            eps,
            scale,
            z,
            bits,
        );
        let x = 16i32;
        let bn = (x as f32 - mean) / (var + eps).sqrt() * gamma + beta; // 7.0
        let expected = ((bn - z).max(0.0) / scale).floor(); // ⌊6.5/3⌋ = 2
        assert_eq!(e.apply(x, 0), expected);
        assert_eq!(e.apply_to_code(x, 0), 2);
    }

    #[test]
    fn row_form_is_bit_identical_to_the_scalar_chain() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 40) as f32 / (1u64 << 24) as f32
        };
        let channels = 11;
        let mut per_channel = |lo: f32, hi: f32| -> Vec<f32> {
            (0..channels).map(|_| lo + (hi - lo) * unit()).collect()
        };
        let bn = EpilogueOp::BatchNorm {
            gamma: per_channel(-1.5, 1.5),
            beta: per_channel(-40.0, 40.0),
            mean: per_channel(-300.0, 300.0),
            var: per_channel(0.01, 9.0),
            eps: 1e-5,
        };
        let nan_bn = EpilogueOp::BatchNorm {
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            mean: vec![0.0; channels],
            var: vec![-4.0; channels],
            eps: 0.0,
        };
        let affine = EpilogueOp::Affine {
            mul: 0.037,
            add: per_channel(-3.0, 3.0),
        };
        let quant = |scale, zero_point, bits| EpilogueOp::Quantize {
            scale,
            zero_point,
            bits,
        };
        // Accumulators: the extremes, negatives (ReLU), and a sweep.
        let mut accs = vec![i32::MIN, i32::MAX, i32::MIN + 1, -1, 0, 1, -70_000, 70_000];
        accs.extend((0..channels as i32 * 40).map(|i| i * 37 % 4001 - 2000));
        accs.truncate(accs.len() / channels * channels);
        for bits in [1u32, 2, 3, 8] {
            // Every op order the plan compiler and the QAT exporter build,
            // plus a chain with two BatchNorms (two denominator sets).
            let chains = [
                vec![quant(3.0, -2.5, bits)],
                vec![EpilogueOp::Relu, quant(0.5, 0.0, bits)],
                vec![bn.clone(), quant(1.7, -20.0, bits)],
                vec![bn.clone(), EpilogueOp::Relu, quant(2.1, 0.25, bits)],
                vec![affine.clone(), quant(0.3, -1.0, bits)],
                vec![affine.clone(), EpilogueOp::Relu, quant(0.3, 0.0, bits)],
                vec![
                    affine.clone(),
                    bn.clone(),
                    EpilogueOp::Relu,
                    bn.clone(),
                    quant(9.0, -90.0, bits),
                ],
                vec![bn.clone(), EpilogueOp::Relu],
                // A negative variance: every value is NaN, every code 0.
                vec![nan_bn.clone(), quant(1.0, 0.0, bits)],
            ];
            for ops in chains {
                let epi = ops.into_iter().fold(Epilogue::none(), Epilogue::then);
                let mut scratch = Vec::new();
                assert_eq!(epi.row_scratch_len(channels) % channels, 0);
                let mut vals: Vec<f32> = accs.iter().map(|&a| a as f32).collect();
                let mut codes = vec![u32::MAX; vals.len()];
                let rows = epi.rows(channels, &mut scratch);
                if epi.output_bits().is_some() {
                    rows.apply_to_codes(&mut vals, &mut codes);
                } else {
                    rows.apply(&mut vals);
                }
                for (i, (&a, &v)) in accs.iter().zip(&vals).enumerate() {
                    let want = epi.apply(a, i % channels);
                    assert!(
                        v.to_bits() == want.to_bits() || (v.is_nan() && want.is_nan()),
                        "{epi:?} acc {a} ch {}: {v} vs {want}",
                        i % channels
                    );
                    if epi.output_bits().is_some() {
                        assert_eq!(
                            codes[i],
                            epi.apply_to_code(a, i % channels),
                            "{epi:?} acc {a}"
                        );
                    }
                }
                assert_eq!(scratch.len(), epi.row_scratch_len(channels));
            }
        }
    }

    #[test]
    fn per_channel_bn() {
        let e = Epilogue::none().then(EpilogueOp::BatchNorm {
            gamma: vec![1.0, 2.0],
            beta: vec![0.0, 0.0],
            mean: vec![0.0, 0.0],
            var: vec![1.0, 1.0],
            eps: 0.0,
        });
        assert_eq!(e.apply(3, 0), 3.0);
        assert_eq!(e.apply(3, 1), 6.0);
    }

    #[test]
    fn cost_accumulates() {
        let e = Epilogue::bn_relu_quant(
            vec![1.0],
            vec![0.0],
            vec![0.0],
            vec![1.0],
            1e-5,
            1.0,
            0.0,
            2,
        );
        let (ints, flops) = e.cost_per_element();
        assert_eq!(ints, 3);
        assert_eq!(flops, 6);
    }
}
