//! Fusable element-wise epilogues (paper §5.2).
//!
//! Quantization, batch normalization, and ReLU are all element-wise over the
//! i32 accumulators a GEMM/conv produces, so the paper fuses them into the
//! producing kernel: the values are transformed while still in registers and
//! only the final (possibly `q`-bit packed) result touches global memory.
//! The fused composition for a BN + ReLU + quantize chain is
//! `⌊max(bn(x) − z, 0) / s⌋` — reproduced verbatim by [`Epilogue::apply`].
//!
//! [`Epilogue::apply_to_code`] is the scalar spec of a quantizing chain —
//! the only definition of a code — and the hot path never runs it. A chain
//! ending in `Quantize { bits }` is, per channel, a *monotone step function*
//! of the i32 accumulator: `as f32`, `− mean`, `/ den` (`den > 0`), `· γ`,
//! `+ β`, `· mul + add`, `max 0`, `− z`, `/ s` (`s > 0`), `floor` and
//! `clamp` are each monotone under IEEE round-to-nearest, and a composition
//! of monotone maps is monotone. So lowering compiles the chain once into
//! [`Steps`] — per channel, the `2^bits − 1` accumulator values at which
//! the code steps, found by search against the spec — and a kernel's
//! tail is integer compares on the accumulator while it is a register,
//! ending in the packed bits (the CPU form of §5.2's register-resident
//! epilogue feeding `__ballot_sync`). Every packable width has its table
//! (1 to [`MAX_PLANES`] bits), and a kernel is handed nothing else. A chain
//! gets one exactly when it is *provably* monotone (every parameter finite,
//! every denominator positive, every op's result finite at both ends of the
//! i32 domain — which rules out the `∞ − ∞` and `0 · ∞` NaNs everywhere in
//! between); a chain that is not has no form a kernel runs, so plan
//! compilation rejects it and [`Steps::build`] returns `None`.
//!
//! [`Epilogue::rows`] applies a chain to a whole accumulator row at a time:
//! one pass per op with the channel innermost, so each pass is a
//! straight-line loop over per-channel parameter slices, and every element
//! sees the same f32 operations in the same order as the scalar chain. It
//! is how compile-time calibration observes value ranges, not a tail.

use crate::micro::MAX_PLANES;

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
        self.trace(acc, channel, |_| {})
    }

    /// [`Epilogue::apply`], reporting every op's result to `each` — the one
    /// copy of the scalar chain.
    fn trace(&self, acc: i32, channel: usize, mut each: impl FnMut(f32)) -> f32 {
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
            each(v);
        }
        v
    }

    /// Whether channel `channel` of the chain is *provably* a monotone,
    /// NaN-free function of the accumulator (see the module docs): finite
    /// parameters, positive denominators, and every op's result finite at
    /// both ends of the i32 domain. An overflow or `0 · ∞` inside an op
    /// surfaces as a non-finite result of that op, so the per-op check
    /// covers the steps within it.
    fn is_monotone(&self, channel: usize) -> bool {
        let params_ok = self.ops.iter().all(|op| match op {
            EpilogueOp::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                eps,
            } => {
                let den = (var[channel] + eps).sqrt();
                [gamma[channel], beta[channel], mean[channel], den]
                    .iter()
                    .all(|v| v.is_finite())
                    && den > 0.0
            }
            EpilogueOp::Affine { mul, add } => mul.is_finite() && add[channel].is_finite(),
            EpilogueOp::Relu => true,
            EpilogueOp::Quantize {
                scale, zero_point, ..
            } => scale.is_finite() && *scale > 0.0 && zero_point.is_finite(),
        });
        params_ok
            && [i32::MIN, i32::MAX].into_iter().all(|end| {
                let mut finite = true;
                self.trace(end, channel, |v| finite &= v.is_finite());
                finite
            })
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

    /// Bind the chain to `channels` output channels for row-wise
    /// application, taking every BatchNorm's `√(var + ε)` once.
    pub fn rows(&self, channels: usize) -> RowEpilogue<'_> {
        let mut bn_den = Vec::new();
        for op in &self.ops {
            if let EpilogueOp::BatchNorm { var, eps, .. } = op {
                bn_den.extend(var[..channels].iter().map(|v| (v + eps).sqrt()));
            }
        }
        RowEpilogue {
            ops: &self.ops,
            channels,
            bn_den,
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

/// Channels per [`Steps`] chunk: the sixteen i32 lanes of one 512-bit
/// vector.
pub const STEP_LANES: usize = 16;

/// A quantizing [`Epilogue`] compiled into per-channel integer steps (see
/// the module docs): with `L = 2^bits − 1`,
///
/// `code(acc, ch) = #{k ∈ 1..=L : (acc ^ flip[ch]) > t_k[ch]}`.
///
/// `flip` is 0 for a channel whose code rises with the accumulator and −1
/// for one whose code falls (a negative `γ` or `mul`): `acc ^ −1 = −acc − 1`
/// reverses the order of every i32 without overflow, so one signed compare
/// serves both. The thresholds of a channel nest (`t_1 ≤ … ≤ t_L`), a level
/// the chain never reaches has `t = i32::MAX`, and so do the pad channels
/// that round the count up to whole [`STEP_LANES`] chunks — their codes are
/// 0 for any input, which keeps a packed map's padding bits zero. Because
/// the thresholds nest, the code is also the last level `acc ^ flip`
/// passes, which `bits` rounds of bisection find ([`Steps::code`]).
///
/// The table is laid out per chunk of sixteen channels as `L + 1` rows of
/// sixteen i32 — `flip`, then `t_1 … t_L` — so a vector tail loads each row
/// once ([`Steps::rows`]). Every threshold is found by search against
/// [`Epilogue::apply_to_code`], so codes are bit-identical to the spec by
/// construction for every accumulator but one: where a level is reached by
/// *every* i32, `t = i32::MIN` still excludes `i32::MIN` itself
/// (`i32::MAX` for a falling channel) — sums no kernel can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Steps {
    bits: u32,
    channels: usize,
    table: Vec<[i32; STEP_LANES]>,
}

impl Steps {
    /// Compile `epi` for `channels` output channels, or `None` when the
    /// chain does not end in a quantization to at most [`MAX_PLANES`] bits
    /// (what a packed activation holds) or some channel is not provably
    /// monotone — a chain no kernel runs.
    pub fn build(epi: &Epilogue, channels: usize) -> Option<Steps> {
        let bits = epi
            .output_bits()
            .filter(|&bits| bits as usize <= MAX_PLANES)?;
        if !(0..channels).all(|ch| epi.is_monotone(ch)) {
            return None;
        }
        let rows = 1usize << bits;
        let mut table = vec![[i32::MAX; STEP_LANES]; channels.div_ceil(STEP_LANES) * rows];
        for chunk in table.chunks_exact_mut(rows) {
            chunk[0] = [0; STEP_LANES];
        }
        // `t[k]`: the largest `x` below level `k`, with the two ends of the
        // domain as sentinels — nothing is known below level 0 (one under
        // the domain) and everything is below level `L + 1` (`i32::MAX`).
        let mut t = vec![i64::from(i32::MIN) - 1; rows + 1];
        t[rows] = i64::from(i32::MAX);
        for ch in 0..channels {
            let (chunk, lane) = (ch / STEP_LANES * rows, ch % STEP_LANES);
            let falls = epi.apply_to_code(i32::MIN, ch) > epi.apply_to_code(i32::MAX, ch);
            let flip = if falls { -1 } else { 0 };
            table[chunk][lane] = flip;
            // `below(x, k)`: the code at `x` — rising in `x` — has not
            // reached level `k`.
            let below = |x: i64, k: usize| (epi.apply_to_code(x as i32 ^ flip, ch) as usize) < k;
            // Middle levels first, each bracketed by the two levels already
            // found around it: `t[k − step]` is below level `k` and
            // `t[k + step] + 1` is not. The chain is close to affine, so a
            // threshold sits near the line through two found ones (through
            // the boundaries `t + ½`): the pair around it, or — next to an
            // end of the domain — the next pair on the inner side. A level
            // with no line yet starts from zero.
            let found = |i: usize| (1..rows).contains(&i);
            let mut step = rows / 2;
            while step > 0 {
                for k in (step..rows).step_by(2 * step) {
                    let line = [
                        (k - step, k + step),
                        (k + step, k + 3 * step),
                        (k.wrapping_sub(3 * step), k - step),
                    ];
                    let guess =
                        line.into_iter()
                            .find(|&(i, j)| found(i) && found(j))
                            .map(|(i, j)| {
                                let (ti, tj) = (t[i], t[j]);
                                let (di, dj) = (k as i64 - i as i64, (j - i) as i64);
                                ti + ((tj - ti) * 2 * di + dj).div_euclid(2 * dj)
                            });
                    let bracket = (t[k - step], t[k + step] + 1);
                    t[k] = last_below(|x| below(x, k), bracket, guess.unwrap_or(0));
                }
                step /= 2;
            }
            for k in 1..rows {
                table[chunk + k][lane] = t[k].max(i64::from(i32::MIN)) as i32;
            }
        }
        Some(Steps {
            bits,
            channels,
            table,
        })
    }

    /// Width of the codes.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Output channels the table was built for.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The whole table: per chunk of sixteen channels (`16·chunk ..`), the
    /// `2^bits` rows `flip`, `t_1 … t_L`.
    #[inline]
    pub fn rows(&self) -> &[[i32; STEP_LANES]] {
        &self.table
    }

    /// The code of accumulator `acc` on output channel `channel` — the
    /// scalar lookup (hidden linear stages): the last level passed, by
    /// bisection. A round looks `2^r` levels past the code so far, so the
    /// row it reads is at most `L`.
    #[inline]
    pub fn code(&self, acc: i32, channel: usize) -> u32 {
        assert!(channel < self.channels, "channel out of range");
        let lane = channel % STEP_LANES;
        let rows = &self.table[(channel / STEP_LANES) << self.bits..][..1 << self.bits];
        let x = acc ^ rows[0][lane];
        let mut code = 0;
        for r in (0..self.bits).rev() {
            let step = 1 << r;
            if x > rows[code + step][lane] {
                code += step;
            }
        }
        code as u32
    }
}

/// The largest `x` in `lo..hi` that is `below` (`lo` when none is), for a
/// `below` that holds at `lo` (or `lo` is one under the domain), fails at
/// `hi` and is monotone between: probe `guess`, gallop away from it until
/// the answer is bracketed — two probes when the guess is exact — then
/// bisect.
fn last_below(below: impl Fn(i64) -> bool, (mut lo, mut hi): (i64, i64), guess: i64) -> i64 {
    let (mut p, mut width, mut first) = (guess.max(lo + 1).min(hi - 1), 0, None);
    while lo < p && p < hi {
        let b = below(p);
        if b {
            lo = p;
        } else {
            hi = p;
        }
        if *first.get_or_insert(b) != b {
            break;
        }
        width = (2 * width).max(1);
        p = if b { lo + width } else { hi - width };
    }
    while hi - lo > 1 {
        let mid = (lo + hi).div_euclid(2);
        if below(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// An [`Epilogue`] bound to a channel count ([`Epilogue::rows`]): the
/// row-at-a-time form calibration observes ranges through.
#[derive(Debug, Clone)]
pub struct RowEpilogue<'a> {
    ops: &'a [EpilogueOp],
    channels: usize,
    /// `√(var + ε)` per BatchNorm op (in chain order) and channel.
    bn_den: Vec<f32>,
}

impl RowEpilogue<'_> {
    /// Apply the chain in place to NHWC values (`vals[x·channels + ch]`,
    /// accumulators converted to `f32`): afterwards `vals[i]` holds exactly
    /// [`Epilogue::apply`]'s result for that accumulator and channel.
    pub fn apply(&self, vals: &mut [f32]) {
        let c = self.channels;
        assert_eq!(vals.len() % c.max(1), 0, "whole pixels only");
        let mut bn_den = &self.bn_den[..];
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

    fn quant(scale: f32, zero_point: f32, bits: u32) -> EpilogueOp {
        EpilogueOp::Quantize {
            scale,
            zero_point,
            bits,
        }
    }

    fn chain(ops: Vec<EpilogueOp>) -> Epilogue {
        ops.into_iter().fold(Epilogue::none(), Epilogue::then)
    }

    /// Every op order the plan compiler and the QAT exporter build, over
    /// `channels` channels of seeded parameters (`γ` of both signs), plus a
    /// chain with two BatchNorms (two denominator sets), one that does not
    /// quantize, and — last — one whose negative variance makes every value
    /// NaN and every code 0.
    fn chains(channels: usize, bits: u32) -> Vec<Epilogue> {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 40) as f32 / (1u64 << 24) as f32
        };
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
        [
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
            vec![nan_bn, quant(1.0, 0.0, bits)],
        ]
        .map(chain)
        .into()
    }

    #[test]
    fn row_form_is_bit_identical_to_the_scalar_chain() {
        let channels = 11;
        // Accumulators: the extremes, negatives (ReLU), and a sweep.
        let mut accs = vec![i32::MIN, i32::MAX, i32::MIN + 1, -1, 0, 1, -70_000, 70_000];
        accs.extend((0..channels as i32 * 40).map(|i| i * 37 % 4001 - 2000));
        accs.truncate(accs.len() / channels * channels);
        for bits in [1u32, 2, 3, 8] {
            for epi in chains(channels, bits) {
                let mut vals: Vec<f32> = accs.iter().map(|&a| a as f32).collect();
                epi.rows(channels).apply(&mut vals);
                for (i, (&a, &v)) in accs.iter().zip(&vals).enumerate() {
                    let want = epi.apply(a, i % channels);
                    assert!(
                        v.to_bits() == want.to_bits() || (v.is_nan() && want.is_nan()),
                        "{epi:?} acc {a} ch {}: {v} vs {want}",
                        i % channels
                    );
                }
            }
        }
    }

    /// `steps` against the scalar chain on `ch`: around every threshold, at
    /// a sweep through the middle of the domain and at both of its ends —
    /// everywhere but the one extreme a level every i32 reaches cannot
    /// exclude.
    fn check_steps_channel(epi: &Epilogue, steps: &Steps, ch: usize) {
        let rows = &steps.rows()[(ch / STEP_LANES) << steps.bits()..][..1 << steps.bits()];
        let (flip, lane) = (rows[0][ch % STEP_LANES], ch % STEP_LANES);
        assert!(flip == 0 || flip == -1);
        assert!(
            rows[1..].windows(2).all(|t| t[0][lane] <= t[1][lane]),
            "thresholds nest"
        );
        let excluded = if flip == 0 { i32::MIN } else { i32::MAX };
        let mut accs: Vec<i32> = (-2000..2000).map(|i| i * 997).collect();
        for end in [i32::MIN, i32::MAX] {
            accs.extend((0..300).map(|i| end.wrapping_add(if end < 0 { i } else { -i })));
        }
        for t in &rows[1..] {
            accs.extend((-2i32..=2).map(|d| t[lane].saturating_add(d) ^ flip));
        }
        for acc in accs.into_iter().filter(|&acc| acc != excluded) {
            assert_eq!(
                steps.code(acc, ch),
                epi.apply_to_code(acc, ch),
                "{epi:?} ch {ch} acc {acc}"
            );
        }
    }

    #[test]
    fn steps_match_every_chain_shape() {
        for bits in 1..=MAX_PLANES as u32 {
            for channels in [1usize, 11, 16, 24, 65, 130] {
                let chains = chains(channels, bits);
                let (nan, monotone) = chains.split_last().unwrap();
                for epi in monotone {
                    let steps = Steps::build(epi, channels);
                    if epi.output_bits().is_none() {
                        assert!(steps.is_none(), "no quantization, no table: {epi:?}");
                        continue;
                    }
                    let steps = steps.unwrap_or_else(|| panic!("{epi:?} is monotone"));
                    assert_eq!((steps.bits(), steps.channels()), (bits, channels));
                    // Whole chunks, and pad channels that never set a bit.
                    assert_eq!(steps.rows().len(), channels.div_ceil(STEP_LANES) << bits);
                    for (i, row) in steps.rows().iter().enumerate() {
                        let live = (channels - (i >> bits) * STEP_LANES).min(STEP_LANES);
                        let want = if i % (1 << bits) == 0 { 0 } else { i32::MAX };
                        assert!(
                            row[live..].iter().all(|&v| v == want),
                            "pad lanes of row {i}"
                        );
                    }
                    for ch in 0..channels {
                        check_steps_channel(epi, &steps, ch);
                    }
                }
                // A chain that is NaN everywhere has no table.
                assert_eq!(Steps::build(nan, channels), None);
            }
        }
    }

    #[test]
    fn steps_cover_falling_constant_and_far_flung_channels() {
        let bn = |gamma: Vec<f32>| EpilogueOp::BatchNorm {
            beta: vec![0.5; gamma.len()],
            mean: vec![3.0; gamma.len()],
            var: vec![4.0; gamma.len()],
            gamma,
            eps: 0.0,
        };
        let affine = |mul: f32| EpilogueOp::Affine {
            mul,
            add: vec![1.0, -1.0, 0.0],
        };
        for bits in 1..=MAX_PLANES as u32 {
            let top = ((1u32 << bits) - 1) as f32;
            let cases = [
                // Rising, falling and constant channels side by side, with
                // and without a ReLU between the sign flip and the steps.
                chain(vec![bn(vec![2.0, -2.0, 0.0]), quant(1.5, -4.0, bits)]),
                chain(vec![
                    bn(vec![-0.5, 0.0, 0.5]),
                    EpilogueOp::Relu,
                    quant(0.25, 0.0, bits),
                ]),
                chain(vec![affine(-0.01), quant(0.5, -3.0, bits)]),
                chain(vec![affine(0.0), quant(0.5, -3.0, bits)]),
                // Two sign flips make a rising channel again.
                chain(vec![
                    affine(-1.0),
                    bn(vec![-1.0, 1.0, -3.0]),
                    quant(2.0, 0.0, bits),
                ]),
                // Steps at the far ends of the domain, where `as f32`
                // rounds 128 accumulators together.
                chain(vec![quant(128.0, 2_147_483_000.0 - 128.0 * top, bits)]),
                chain(vec![quant(128.0, -2_147_483_000.0, bits)]),
                chain(vec![
                    affine(-1.0),
                    quant(128.0, 2_147_483_000.0 - 128.0 * top, bits),
                ]),
                // Every code reached by every accumulator but a few.
                chain(vec![quant(1e-3, -3e9, bits)]),
                chain(vec![quant(1e-3, 3e9, bits)]),
            ];
            for epi in &cases {
                let steps = Steps::build(epi, 3).unwrap_or_else(|| panic!("{epi:?}"));
                for ch in 0..3 {
                    check_steps_channel(epi, &steps, ch);
                }
            }
            // The first case really does hold one channel of each kind.
            let rows = Steps::build(&cases[0], 3).unwrap();
            assert_eq!(rows.rows()[0][..3], [0, -1, 0]);
        }
    }

    #[test]
    fn chains_that_are_not_provably_monotone_get_no_table() {
        let bn = |gamma: f32, var: f32, mean: f32| EpilogueOp::BatchNorm {
            gamma: vec![1.0, gamma],
            beta: vec![0.0; 2],
            mean: vec![0.0, mean],
            var: vec![1.0, var],
            eps: 0.0,
        };
        let affine = |mul: f32, add: f32| EpilogueOp::Affine {
            mul,
            add: vec![0.0, add],
        };
        let no_table = [
            // Non-finite parameters, in every position that holds one.
            chain(vec![bn(f32::INFINITY, 1.0, 0.0), quant(1.0, 0.0, 2)]),
            chain(vec![bn(1.0, f32::NAN, 0.0), quant(1.0, 0.0, 2)]),
            chain(vec![bn(1.0, 1.0, f32::NEG_INFINITY), quant(1.0, 0.0, 2)]),
            chain(vec![affine(f32::NAN, 0.0), quant(1.0, 0.0, 2)]),
            chain(vec![affine(1.0, f32::INFINITY), quant(1.0, 0.0, 2)]),
            chain(vec![quant(1.0, f32::NAN, 2)]),
            chain(vec![quant(f32::INFINITY, 0.0, 2)]),
            // A zero or negative denominator.
            chain(vec![bn(1.0, 0.0, 0.0), quant(1.0, 0.0, 2)]),
            chain(vec![bn(1.0, -4.0, 0.0), quant(1.0, 0.0, 2)]),
            // Finite parameters whose product overflows inside the chain:
            // `∞ · 0` further down would be a NaN.
            chain(vec![
                affine(3e38, 0.0),
                affine(0.0, 0.0),
                quant(1.0, 0.0, 2),
            ]),
            // Wider than a packed activation.
            chain(vec![quant(1.0, 0.0, MAX_PLANES as u32 + 1)]),
        ];
        for epi in &no_table {
            assert_eq!(Steps::build(epi, 2), None, "{epi:?}");
        }
        // The same chains over their first channel alone are fine.
        let steps = Steps::build(&no_table[0], 1).expect("channel 0 is finite");
        check_steps_channel(&no_table[0], &steps, 0);
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
