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
//! the code steps, found by bisection against the spec — and a kernel's
//! tail is integer compares on the accumulator while it is a register,
//! ending in the packed bits (the CPU form of §5.2's register-resident
//! epilogue feeding `__ballot_sync`). The table exists when the chain is
//! *provably* monotone (every parameter finite, every denominator positive,
//! every op's result finite at both ends of the i32 domain — which rules
//! out the `∞ − ∞` and `0 · ∞` NaNs everywhere in between) and quantizes to
//! at most [`MAX_STEP_BITS`] bits; past that the compares (255 per chunk at
//! 8 bits, 130 KB of table per stage) cost more than the chain.
//!
//! A chain without a table runs over a whole accumulator row at a time
//! ([`Epilogue::rows`]): one pass per op with the channel innermost, so each
//! pass is a straight-line loop over per-channel parameter slices that
//! vectorizes, instead of an op-list interpretation per element. Every
//! element still sees the same f32 operations in the same order, so all
//! three forms produce the same codes. [`Tail`] is what a kernel is handed:
//! the chain plus its table when it has one.

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

/// Channels per [`Steps`] chunk: the sixteen i32 lanes of one 512-bit
/// vector.
pub const STEP_LANES: usize = 16;

/// Widest quantization a [`Steps`] table is built for: 1 / 3 / 7 / 15
/// compares per sixteen channels at 1–4 bits.
pub const MAX_STEP_BITS: u32 = 4;

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
/// 0 for any input, which keeps a packed map's padding bits zero.
///
/// The table is laid out per chunk of sixteen channels as `L + 1` rows of
/// sixteen i32 — `flip`, then `t_1 … t_L` — so a vector tail loads each row
/// once ([`Steps::rows`]). Every threshold is found by bisection against
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
    /// chain does not end in a quantization of at most [`MAX_STEP_BITS`]
    /// bits or some channel is not provably monotone — such a chain keeps
    /// the f32 row form. `reach` is a bound on the accumulators' magnitude
    /// (`|acc| ≤ reach` for every sum the producing kernel can emit): it
    /// only places the first bracket of each bisection (~log₂ `reach`
    /// probes per threshold instead of 32); the table is exact over the
    /// whole domain whatever its value.
    pub fn build(epi: &Epilogue, channels: usize, reach: i32) -> Option<Steps> {
        let bits = epi.output_bits().filter(|&bits| bits <= MAX_STEP_BITS)?;
        if !(0..channels).all(|ch| epi.is_monotone(ch)) {
            return None;
        }
        let rows = 1usize << bits;
        let mut table = vec![[i32::MAX; STEP_LANES]; channels.div_ceil(STEP_LANES) * rows];
        for chunk in table.chunks_exact_mut(rows) {
            chunk[0] = [0; STEP_LANES];
        }
        let reach = i64::from(reach.max(0));
        for ch in 0..channels {
            let (chunk, lane) = (ch / STEP_LANES * rows, ch % STEP_LANES);
            let falls = epi.apply_to_code(i32::MIN, ch) > epi.apply_to_code(i32::MAX, ch);
            let flip = if falls { -1 } else { 0 };
            table[chunk][lane] = flip;
            // `below(x, k)`: the code at `x` — rising in `x` — has not
            // reached level `k`.
            let below = |x: i64, k: usize| (epi.apply_to_code(x as i32 ^ flip, ch) as usize) < k;
            // `t_k` is the largest `x` below level `k`. The bracket is
            // `lo` (below; one under the domain when no `x` is known to be)
            // and `hi` (not below; one over the domain likewise), and a
            // level starts from the previous one's threshold.
            let mut lo = i64::from(i32::MIN) - 1;
            for k in 1..rows {
                let mut hi = i64::from(i32::MAX) + 1;
                for probe in [-reach - 1, reach] {
                    if lo < probe && probe < hi {
                        if below(probe, k) {
                            lo = probe;
                        } else {
                            hi = probe;
                        }
                    }
                }
                while hi - lo > 1 {
                    let mid = (lo + hi).div_euclid(2);
                    if below(mid, k) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                table[chunk + k][lane] = lo.max(i64::from(i32::MIN)) as i32;
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
    /// scalar lookup (hidden linear stages; the reference the vector tail
    /// is tested against).
    #[inline]
    pub fn code(&self, acc: i32, channel: usize) -> u32 {
        assert!(channel < self.channels, "channel out of range");
        let lane = channel % STEP_LANES;
        let rows = &self.table[(channel / STEP_LANES) << self.bits..][..1 << self.bits];
        let x = acc ^ rows[0][lane];
        rows[1..].iter().filter(|t| x > t[lane]).count() as u32
    }
}

/// What a fused kernel is handed to finish its accumulators with: a
/// quantizing chain and, when it has one, its compiled [`Steps`]. Which
/// form runs is decided by the chain itself ([`Steps::build`]), never by an
/// option.
#[derive(Debug, Clone, Copy)]
pub struct Tail<'a> {
    epi: &'a Epilogue,
    steps: Option<&'a Steps>,
}

impl<'a> Tail<'a> {
    /// Pair `epi` with the table compiled from it. Panics if `epi` does
    /// not end in quantization, or `steps` was built at another width.
    pub fn new(epi: &'a Epilogue, steps: Option<&'a Steps>) -> Self {
        let bits = epi
            .output_bits()
            .expect("a fused tail must end in quantization");
        if let Some(steps) = steps {
            assert_eq!(steps.bits(), bits, "steps were compiled from another chain");
        }
        Tail { epi, steps }
    }

    /// Width of the codes the tail emits.
    pub fn bits(&self) -> u32 {
        self.epi.output_bits().expect("checked by `Tail::new`")
    }

    /// The chain — the scalar spec, and the row form of a table-less tail.
    pub fn epi(&self) -> &'a Epilogue {
        self.epi
    }

    /// The chain's step table, when it has one.
    pub fn steps(&self) -> Option<&'a Steps> {
        self.steps
    }

    /// The code of one accumulator: the table's lookup, else the chain.
    #[inline]
    pub fn code(&self, acc: i32, channel: usize) -> u32 {
        match self.steps {
            Some(steps) => steps.code(acc, channel),
            None => self.epi.apply_to_code(acc, channel),
        }
    }
}

/// An [`Epilogue`] bound to a channel count ([`Epilogue::rows`]): the
/// row-at-a-time form calibration observes ranges through and a fused
/// kernel runs when the chain has no [`Steps`].
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
        for bits in 1..=MAX_STEP_BITS {
            for channels in [1usize, 11, 16, 24, 65, 130] {
                let chains = chains(channels, bits);
                let (nan, monotone) = chains.split_last().unwrap();
                for epi in monotone {
                    let steps = Steps::build(epi, channels, 3000);
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
                    // The starting bracket moves probes, never thresholds.
                    for reach in [0, 7, i32::MAX] {
                        assert_eq!(Steps::build(epi, channels, reach).as_ref(), Some(&steps));
                    }
                }
                // A chain that is NaN everywhere keeps the f32 row form,
                // which `row_form_is_bit_identical_to_the_scalar_chain`
                // covers.
                assert_eq!(Steps::build(nan, channels, 3000), None);
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
        for bits in 1..=MAX_STEP_BITS {
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
                let steps = Steps::build(epi, 3, 100).unwrap_or_else(|| panic!("{epi:?}"));
                for ch in 0..3 {
                    check_steps_channel(epi, &steps, ch);
                }
            }
            // The first case really does hold one channel of each kind.
            let rows = Steps::build(&cases[0], 3, 100).unwrap();
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
            // Wider than the table form pays for.
            chain(vec![quant(1.0, 0.0, MAX_STEP_BITS + 1)]),
            chain(vec![quant(1.0, 0.0, 8)]),
            // Nothing to tabulate.
            chain(vec![EpilogueOp::Relu]),
            Epilogue::none(),
        ];
        for epi in &no_table {
            assert_eq!(Steps::build(epi, 2, 1000), None, "{epi:?}");
        }
        // The same chains over their first channel alone are fine.
        let steps = Steps::build(&no_table[0], 1, 1000).expect("channel 0 is finite");
        check_steps_channel(&no_table[0], &steps, 0);
        // And a tail pairs a chain only with its own width of table.
        let two = Epilogue::quantize(1.0, 0.0, 2);
        let table = Steps::build(&two, 4, 10);
        let tail = Tail::new(&two, table.as_ref());
        assert_eq!((tail.bits(), tail.code(2, 3)), (2, 2));
        assert_eq!(Tail::new(&two, None).code(2, 3), 2);
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
