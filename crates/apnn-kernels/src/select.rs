//! Data-adaptive operator selection (paper §3.2).
//!
//! The 1-bit tensor-core primitive only offers `XOR` and `AND` followed by a
//! popcount, but the bits of a quantized operand may encode `{0,1}` or
//! `{−1,+1}`. The paper distinguishes three cases; this module maps a pair
//! of operand [`Encoding`]s to an [`EmulationPlan`] and provides the exact
//! per-partial correction arithmetic each case requires.

use apnn_bitpack::popcnt::Finish;
use apnn_bitpack::Encoding;
use apnn_sim::BmmaOp;

/// The three emulation cases of §3.2 (plus the mirrored Case III), and
/// their XOR-only derivations for Turing-class hardware.
///
/// Turing tensor cores expose only the XOR `bmma` (§2.3 — Ampere added
/// AND). The identity `popc(a & b) = (popc(a) + popc(b) − popc(a ⊕ b))/2`
/// turns every AND-based case into an XOR one, using exactly the row/column
/// bit sums the corrections already carry. The `XorDerived*` variants below
/// are those rewrites (after algebraic simplification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmulationCase {
    /// Case I — both operands encode `{0,1}`: `y = popc(AND(w, x))`.
    AndUnsigned,
    /// Case II — both operands encode `{−1,+1}`:
    /// `y = K − 2·popc(XOR(w, x))` over `K` valid positions.
    XorSignedBinary,
    /// Case III — weights `{−1,+1}`, activations `{0,1}`:
    /// `Ŵ = (W + J)/2` (which is exactly the stored bit), compute with `AND`,
    /// recover `WX = 2·ŴX − J·X` using the activation column sums.
    AndWeightTransformed,
    /// Mirror of Case III — weights `{0,1}`, activations `{−1,+1}`:
    /// `WX = 2·W X̂ − W·J` using the weight row sums.
    AndActivationTransformed,
    /// Case I on XOR-only hardware:
    /// `y = (Σw + Σx − popc(XOR))/2`.
    XorDerivedUnsigned,
    /// Case III on XOR-only hardware: substituting the AND identity into
    /// `2·ŴX − J·X` collapses to `y = Σŵ − popc(XOR)`.
    XorDerivedWeightTransformed,
    /// Mirrored Case III on XOR-only hardware: `y = Σx̂ − popc(XOR)`.
    XorDerivedActivationTransformed,
}

/// The operator + correction recipe for a pair of encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmulationPlan {
    /// Boolean tensor-core op to issue.
    pub op: BmmaOp,
    /// Correction case.
    pub case: EmulationCase,
}

impl EmulationPlan {
    /// The plan as the lane kernel runs it: the boolean op and the case's
    /// popcount coefficients, for `q` dynamic planes per output. The
    /// drivers fill in the offset sides ([`Correction::offset`], folded
    /// over the plane pairs by [`fold_planes`]) per call.
    pub fn finish(self, q: usize) -> Finish<'static> {
        let corr = self.case.correction();
        Finish {
            xor: self.op == BmmaOp::Xor,
            a: corr.a,
            halve: corr.halve,
            q,
            w_sides: &[],
            side_at: &[],
            x_sides: &[],
        }
    }
}

/// Select the emulation plan for operand encodings `(w, x)` on Ampere-class
/// hardware (both XOR and AND available).
pub fn plan(w: Encoding, x: Encoding) -> EmulationPlan {
    use Encoding::*;
    match (w, x) {
        (ZeroOne, ZeroOne) => EmulationPlan {
            op: BmmaOp::And,
            case: EmulationCase::AndUnsigned,
        },
        (PlusMinusOne, PlusMinusOne) => EmulationPlan {
            op: BmmaOp::Xor,
            case: EmulationCase::XorSignedBinary,
        },
        (PlusMinusOne, ZeroOne) => EmulationPlan {
            op: BmmaOp::And,
            case: EmulationCase::AndWeightTransformed,
        },
        (ZeroOne, PlusMinusOne) => EmulationPlan {
            op: BmmaOp::And,
            case: EmulationCase::AndActivationTransformed,
        },
    }
}

/// Select the emulation plan for a device that only offers the XOR `bmma`
/// (Turing). Every case runs, at the cost of both correction vectors.
pub fn plan_xor_only(w: Encoding, x: Encoding) -> EmulationPlan {
    use Encoding::*;
    let case = match (w, x) {
        (ZeroOne, ZeroOne) => EmulationCase::XorDerivedUnsigned,
        (PlusMinusOne, PlusMinusOne) => EmulationCase::XorSignedBinary,
        (PlusMinusOne, ZeroOne) => EmulationCase::XorDerivedWeightTransformed,
        (ZeroOne, PlusMinusOne) => EmulationCase::XorDerivedActivationTransformed,
    };
    EmulationPlan {
        op: BmmaOp::Xor,
        case,
    }
}

/// Select a plan respecting device capability (`supports_and` = false for
/// Turing-class tensor cores).
pub fn plan_for_device(w: Encoding, x: Encoding, supports_and: bool) -> EmulationPlan {
    if supports_and {
        plan(w, x)
    } else {
        plan_xor_only(w, x)
    }
}

/// One case's §3.2 correction as data. Every case's partial product is
/// affine in the raw popcount,
///
/// `adj = (a·popc + k·K + r·(W⁽ˢ⁾·J) + c·(J·X⁽ᵗ⁾)) >> halve`,
///
/// so the kernels split it into a per-plane-pair [`Correction::offset`] —
/// itself linear, hence a weight side fixed at `prepare` plus an activation
/// side per input — and the multiply-add-shift the lane kernel runs on its
/// accumulators ([`EmulationPlan::finish`]).
///
/// The kernel applies it **once per output**, to the shift-added total
/// `Σ popc(s, t) << (s + t)`, with each side folded over the plane pairs it
/// repeats in ([`fold_planes`]). Without a halving that is the distributive
/// law. With one (`XorDerivedUnsigned`, the only case that halves) it rests
/// on every partial's numerator being even: the sides are the operands' own
/// popcounts, and `popc(w) + popc(x) − popc(w ⊕ x) = 2·popc(w ∧ x)`, so
/// `Σ (n_st >> 1) << (s + t) = (Σ n_st << (s + t)) >> 1` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correction {
    /// Multiplier of the raw popcount.
    a: i32,
    /// Multiplier of the valid reduction length `K`.
    k: i32,
    /// Multiplier of the weight-plane row sum `W⁽ˢ⁾·J`.
    r: i32,
    /// Multiplier of the activation-plane column sum `J·X⁽ᵗ⁾`.
    c: i32,
    /// 1 where the AND identity leaves a factor 2 to divide out (the
    /// numerator is `2·popc(AND)`: even and non-negative), else 0.
    halve: u32,
}

impl EmulationCase {
    /// The case's correction coefficients (see the variant docs for the
    /// identities they come from).
    pub const fn correction(self) -> Correction {
        let (a, k, r, c, halve) = match self {
            EmulationCase::AndUnsigned => (1, 0, 0, 0, 0),
            EmulationCase::XorSignedBinary => (-2, 1, 0, 0, 0),
            EmulationCase::AndWeightTransformed => (2, 0, 0, -1, 0),
            EmulationCase::AndActivationTransformed => (2, 0, -1, 0, 0),
            EmulationCase::XorDerivedUnsigned => (-1, 0, 1, 1, 1),
            EmulationCase::XorDerivedWeightTransformed => (-1, 0, 1, 0, 0),
            EmulationCase::XorDerivedActivationTransformed => (-1, 0, 0, 1, 0),
        };
        Correction { a, k, r, c, halve }
    }
}

impl Correction {
    /// Whether the case consumes the weight-row sums `W·J`.
    pub const fn needs_row_sums(self) -> bool {
        self.r != 0
    }

    /// Whether the case consumes the activation column sums `J·X`.
    pub const fn needs_col_sums(self) -> bool {
        self.c != 0
    }

    /// The popcount-independent part of the correction for one plane pair
    /// of one output.
    #[inline(always)]
    pub fn offset(self, k_valid: i32, w_row_sum: i32, x_col_sum: i32) -> i32 {
        self.k * k_valid + self.r * w_row_sum + self.c * x_col_sum
    }

    /// The whole numerator `a·popc + offset` — linear in all four inputs,
    /// so a count the kernel over-counts can be taken back out of an offset
    /// as `numerator(−extra, ..)`.
    #[inline(always)]
    pub fn numerator(self, popc: i32, k_valid: i32, w_row_sum: i32, x_col_sum: i32) -> i32 {
        self.a * popc + self.offset(k_valid, w_row_sum, x_col_sum)
    }
}

/// One side of a correction offset folded over the plane pairs: `plane(i)`
/// is the side's per-plane value for `i ∈ 0..planes` of its own operand, and
/// every pair `(i, j)`, `j ∈ 0..others` planes of the other operand, repeats
/// it at shift `i + j` — `Σ_i plane(i)·2^i·(2^others − 1)`. Wrapping, like
/// the kernel's finish: exact whenever the finished output fits an `i32`.
#[inline]
pub fn fold_planes(planes: usize, others: usize, plane: impl Fn(usize) -> i32) -> i32 {
    let spread = ((1i64 << others) - 1) as i32;
    (0..planes).fold(0i32, |sum, i| {
        sum.wrapping_add(plane(i).wrapping_mul(spread << i))
    })
}

/// Turn a raw popcount partial into the arithmetic partial product for one
/// `(s, t)` plane pair — the scalar spec of the correction, which the
/// fragment-level emulators run and the lane kernel's in-register finish is
/// tested against.
///
/// * `popc` — the raw tensor-core popcount output.
/// * `k_valid` — number of *logical* (unpadded) positions in the reduction.
/// * `w_row_sum` — Σ of the weight-plane bits in this row (`W⁽ˢ⁾·J`), used by
///   [`EmulationCase::AndActivationTransformed`].
/// * `x_col_sum` — Σ of the activation-plane bits in this column (`J·X⁽ᵗ⁾`),
///   used by [`EmulationCase::AndWeightTransformed`].
#[inline]
pub fn adjust_partial(
    case: EmulationCase,
    popc: i32,
    k_valid: i32,
    w_row_sum: i32,
    x_col_sum: i32,
) -> i32 {
    let corr = case.correction();
    let numerator = corr.numerator(popc, k_valid, w_row_sum, x_col_sum);
    debug_assert!(
        numerator & corr.halve as i32 == 0,
        "halved corrections have even numerators"
    );
    numerator >> corr.halve
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_selection_matches_paper() {
        assert_eq!(
            plan(Encoding::ZeroOne, Encoding::ZeroOne),
            EmulationPlan {
                op: BmmaOp::And,
                case: EmulationCase::AndUnsigned
            }
        );
        assert_eq!(
            plan(Encoding::PlusMinusOne, Encoding::PlusMinusOne),
            EmulationPlan {
                op: BmmaOp::Xor,
                case: EmulationCase::XorSignedBinary
            }
        );
        assert_eq!(
            plan(Encoding::PlusMinusOne, Encoding::ZeroOne),
            EmulationPlan {
                op: BmmaOp::And,
                case: EmulationCase::AndWeightTransformed
            }
        );
        assert_eq!(
            plan(Encoding::ZeroOne, Encoding::PlusMinusOne),
            EmulationPlan {
                op: BmmaOp::And,
                case: EmulationCase::AndActivationTransformed
            }
        );
    }

    #[test]
    fn paper_worked_examples() {
        // Case I: W = [0,1], X = [1,1] -> popc(AND) = 1, y = 1.
        assert_eq!(adjust_partial(EmulationCase::AndUnsigned, 1, 2, 0, 0), 1);
        // Case II: W = [-1,1], X = [1,1] -> map -1 to 0, popc(XOR([0,1],[1,1]))
        // = popc([1,0]) = 1, y = 2 - 2*1 = 0.
        assert_eq!(
            adjust_partial(EmulationCase::XorSignedBinary, 1, 2, 0, 0),
            0
        );
        // Case III: W = [-1,1], X = [1,0]. Ŵ = [0,1]; popc(AND([0,1],[1,0]))
        // = 0; J·X = 1; y = 2*0 - 1 = -1. And indeed W·X = -1.
        assert_eq!(
            adjust_partial(EmulationCase::AndWeightTransformed, 0, 2, 0, 1),
            -1
        );
    }

    #[test]
    fn mirrored_case_three() {
        // W = [1,0] (0/1), X = [-1,1] -> X̂ = [0,1]; popc(AND([1,0],[0,1]))=0;
        // W·J = 1; y = 2*0 - 1 = -1. Direct: 1*(-1) + 0*1 = -1. ✓
        assert_eq!(
            adjust_partial(EmulationCase::AndActivationTransformed, 0, 2, 1, 0),
            -1
        );
    }

    #[test]
    fn xor_only_plans_always_pick_xor() {
        use Encoding::*;
        for w in [ZeroOne, PlusMinusOne] {
            for x in [ZeroOne, PlusMinusOne] {
                assert_eq!(plan_xor_only(w, x).op, BmmaOp::Xor);
                assert_eq!(plan_for_device(w, x, false), plan_xor_only(w, x));
                assert_eq!(plan_for_device(w, x, true), plan(w, x));
            }
        }
    }

    #[test]
    fn xor_derived_cases_equal_and_cases_scalarwise() {
        // Over every 1-bit pair, the XOR-derived correction must reproduce
        // the AND-based result given the same row/col bit sums.
        for wb in [0i32, 1] {
            for xb in [0i32, 1] {
                let xor = wb ^ xb;
                let and = wb & xb;
                // Case I.
                assert_eq!(
                    adjust_partial(EmulationCase::XorDerivedUnsigned, xor, 1, wb, xb),
                    adjust_partial(EmulationCase::AndUnsigned, and, 1, wb, xb),
                );
                // Case III (w stored bit IS ŵ).
                assert_eq!(
                    adjust_partial(EmulationCase::XorDerivedWeightTransformed, xor, 1, wb, xb),
                    adjust_partial(EmulationCase::AndWeightTransformed, and, 1, wb, xb),
                );
                // Mirrored Case III.
                assert_eq!(
                    adjust_partial(
                        EmulationCase::XorDerivedActivationTransformed,
                        xor,
                        1,
                        wb,
                        xb
                    ),
                    adjust_partial(EmulationCase::AndActivationTransformed, and, 1, wb, xb),
                );
            }
        }
    }

    #[test]
    fn exhaustive_scalar_pairs() {
        // Over every 1-bit pair, each case's correction reproduces the
        // arithmetic product of the encoded values.
        for wb in [0i32, 1] {
            for xb in [0i32, 1] {
                // Case I.
                let y = adjust_partial(EmulationCase::AndUnsigned, wb & xb, 1, wb, xb);
                assert_eq!(y, wb * xb);
                // Case II: values 2b-1.
                let (wv, xv) = (2 * wb - 1, 2 * xb - 1);
                let y = adjust_partial(EmulationCase::XorSignedBinary, wb ^ xb, 1, 0, 0);
                assert_eq!(y, wv * xv);
                // Case III: w signed, x unsigned.
                let y = adjust_partial(EmulationCase::AndWeightTransformed, wb & xb, 1, 0, xb);
                assert_eq!(y, wv * xb);
                // Case III mirrored.
                let y = adjust_partial(EmulationCase::AndActivationTransformed, wb & xb, 1, wb, 0);
                assert_eq!(y, wb * xv);
            }
        }
    }
}
