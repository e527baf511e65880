//! Kernel-level microbenchmark sweep: `BENCH_kernels.json`.
//!
//! The exec/serve artifacts track end-to-end throughput; this sweep sits
//! one level below and measures the popcount **microkernel** itself
//! (`apnn_kernels::micro`) through the one APMM driver
//! ([`apnn_kernels::PreparedApmm::execute_into`] with a reused
//! [`ApmmScratch`]): every row is **one thread, allocation-free** — no
//! output `vec!`, no pool dispatch inside the timed loop. One row per
//! emulation case, reporting
//!
//! * `word_gbps` — operand bytes the plane-pair products logically
//!   consume per second (`m·n·p·q·k_words·16` bytes per call: every pair
//!   combines one weight word against one activation word). This is an
//!   implementation-independent denominator, so the number is comparable
//!   across PRs even when the kernel reorganizes its loops;
//! * `pair_mops` — plane-pair partial products (`m·n·p·q`) per second, in
//!   millions: the CPU analogue of the paper's "1-bit BMMA ops" rate.
//!
//! Each case runs at the compile-time-autotuned row block `jb` (recorded
//! in the row), over a reduction long enough that the row-block reuse
//! matters. Like the other artifacts the committed copy is schema-gated,
//! not threshold-gated ([`crate::schema::KERNELS`]).

use std::fmt::Write as _;
use std::time::Instant;

use apnn_bitpack::{BitPlanes, Encoding, PopcntArm};
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::apmm::{Apmm, ApmmDesc};
use apnn_kernels::autotune::select_micro;
use apnn_kernels::select::plan_for_device;
use apnn_sim::BmmaOp;

use crate::schema::{self, Row};

/// One microkernel measurement.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Emulation-case label (`EmulationCase` variant name).
    pub case: String,
    /// Boolean tensor-core op the case issues (`and` / `xor`).
    pub op: String,
    /// Popcount arm the microkernel dispatched to (`PopcntArm` label).
    pub arm: String,
    /// Weight bits.
    pub p: u32,
    /// Activation bits.
    pub q: u32,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction length in bits.
    pub k: usize,
    /// Row block (batch columns sharing a weight-cell load) the tuner chose.
    pub jb: usize,
    /// Logical operand GB/s through the plane-pair products.
    pub word_gbps: f64,
    /// Plane-pair partial products per second, in millions.
    pub pair_mops: f64,
}

impl KernelPoint {
    /// This point as a [`schema::KERNELS`] row.
    pub fn row(&self) -> Row {
        schema::KERNELS.row([
            self.case.as_str().into(),
            self.op.as_str().into(),
            self.arm.as_str().into(),
            self.p.into(),
            self.q.into(),
            self.m.into(),
            self.n.into(),
            self.k.into(),
            self.jb.into(),
            self.word_gbps.into(),
            self.pair_mops.into(),
        ])
    }
}

/// The sweep: one configuration per emulation case — the four Ampere
/// cases plus the three Turing XOR-only derivations (same encoding pairs
/// lowered with `ampere = false`) — at the paper's favorite precisions
/// (`w1a1`, `w1a2`, `w2a1`, `w2a2`). The last tuple slot is the
/// Ampere/Turing device flag handed to `plan_for_device`.
fn sweep_cases() -> Vec<(Encoding, Encoding, u32, u32, bool)> {
    vec![
        // Case I — AndUnsigned, w2a2.
        (Encoding::ZeroOne, Encoding::ZeroOne, 2, 2, true),
        // Case II — XorSignedBinary, w1a1 (identical on both devices).
        (Encoding::PlusMinusOne, Encoding::PlusMinusOne, 1, 1, true),
        // Case III — AndWeightTransformed, w1a2.
        (Encoding::PlusMinusOne, Encoding::ZeroOne, 1, 2, true),
        // Mirrored Case III — AndActivationTransformed, w2a1.
        (Encoding::ZeroOne, Encoding::PlusMinusOne, 2, 1, true),
        // Turing XOR-only derivations of the same three encodings.
        (Encoding::ZeroOne, Encoding::ZeroOne, 2, 2, false),
        (Encoding::PlusMinusOne, Encoding::ZeroOne, 1, 2, false),
        (Encoding::ZeroOne, Encoding::PlusMinusOne, 2, 1, false),
    ]
}

fn operand(rows: usize, k: usize, bits: u32, enc: Encoding, seed: &mut u64) -> BitPlanes {
    let next = move |s: &mut u64| {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*s >> 33) as u32
    };
    if enc == Encoding::PlusMinusOne {
        let vals: Vec<i32> = (0..rows * k)
            .map(|_| if next(seed) & 1 == 0 { -1 } else { 1 })
            .collect();
        BitPlanes::from_signed_binary(&vals, rows, k)
    } else {
        let codes: Vec<u32> = (0..rows * k).map(|_| next(seed) % (1 << bits)).collect();
        BitPlanes::from_codes(&codes, rows, k, bits, enc)
    }
}

/// Run the kernel sweep on the runtime-detected popcount arm: `iters`
/// timed calls per case over an `m × n × k` problem (several timing
/// rounds, best kept — scheduler noise only ever slows a round down).
pub fn kernel_bench(m: usize, n: usize, k: usize, iters: usize) -> Vec<KernelPoint> {
    kernel_bench_on(PopcntArm::detect(), m, n, k, iters)
}

/// [`kernel_bench`] pinned to one popcount arm — the per-arm comparison
/// the `repro arms` subcommand prints (unavailable arms clamp to the
/// detected best, so the `arm` column always records what actually ran).
pub fn kernel_bench_on(
    arm: PopcntArm,
    m: usize,
    n: usize,
    k: usize,
    iters: usize,
) -> Vec<KernelPoint> {
    let arm = arm.sanitized();
    let mut points = Vec::new();
    let mut seed = 2021u64;
    for (w_enc, x_enc, p, q, ampere) in sweep_cases() {
        let desc = ApmmDesc {
            m,
            n,
            k,
            w_bits: p,
            x_bits: q,
            w_enc,
            x_enc,
        };
        let w = operand(m, k, p, w_enc, &mut seed);
        let x = operand(n, k, q, x_enc, &mut seed);
        let eplan = plan_for_device(w_enc, x_enc, ampere);
        let k_words = apnn_bitpack::word::pad_to_bmma_k(k) / 64;
        let micro = select_micro(n);

        let prepared = Apmm::new(desc)
            .prepare(w)
            .with_plan(eplan)
            .with_micro(micro)
            .with_arm(arm);
        let (mut scratch, mut sink) = (ApmmScratch::default(), Vec::new());

        // Warm once (first touch of the packed operands, buffers reach
        // capacity), then time.
        prepared.execute_into(&x, &mut scratch, &mut sink);
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..iters {
                prepared.execute_into(std::hint::black_box(&x), &mut scratch, &mut sink);
            }
            best = best.min(t0.elapsed().as_secs_f64().max(1e-9) / iters as f64);
        }
        std::hint::black_box(&sink);

        let pairs = (m * n) as f64 * (p * q) as f64;
        let bytes = pairs * k_words as f64 * 16.0;
        points.push(KernelPoint {
            case: format!("{:?}", eplan.case),
            op: match eplan.op {
                BmmaOp::And => "and".to_string(),
                BmmaOp::Xor => "xor".to_string(),
            },
            arm: arm.label().to_string(),
            p,
            q,
            m,
            n,
            k,
            jb: micro.jb,
            word_gbps: bytes / best / 1e9,
            pair_mops: pairs / best / 1e6,
        });
    }
    points
}

/// Per-arm comparison table over every available arm (the scalar fallback
/// included, which is always available): one
/// [`kernel_bench_on`] sweep per arm. Printed by `repro arms`; the
/// dispatch-quality check in CI reads the `word_gbps` ratios off it.
pub fn arms_report(m: usize, n: usize, k: usize, iters: usize) -> String {
    let mut out = String::from("## Arms: popcount-arm comparison, word GB/s per emulation case\n");
    let _ = writeln!(
        out,
        "{:<33}{:<5}{:>3}{:>3}  {}",
        "case",
        "op",
        "p",
        "q",
        PopcntArm::available()
            .iter()
            .map(|a| format!("{:>12}", a.label()))
            .collect::<String>()
    );
    let sweeps: Vec<Vec<KernelPoint>> = PopcntArm::available()
        .iter()
        .map(|&arm| kernel_bench_on(arm, m, n, k, iters))
        .collect();
    for row in 0..sweeps[0].len() {
        let head = &sweeps[0][row];
        let _ = writeln!(
            out,
            "{:<33}{:<5}{:>3}{:>3}  {}",
            head.case,
            head.op,
            head.p,
            head.q,
            sweeps
                .iter()
                .map(|s| format!("{:>12.2}", s[row].word_gbps))
                .collect::<String>()
        );
    }
    out
}

/// Render the sweep as a human table (printed by `repro kernels`).
pub fn kernels_report(points: &[KernelPoint]) -> String {
    let mut out =
        String::from("## Kernels: plane-pair popcount microkernel throughput per emulation case\n");
    let _ = writeln!(
        out,
        "{:<33}{:<5}{:<13}{:>3}{:>3}{:>6}{:>6}{:>7}{:>4}{:>12}{:>12}",
        "case", "op", "arm", "p", "q", "m", "n", "k", "jb", "word GB/s", "pair Mop/s"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<33}{:<5}{:<13}{:>3}{:>3}{:>6}{:>6}{:>7}{:>4}{:>12.2}{:>12.2}",
            p.case, p.op, p.arm, p.p, p.q, p.m, p.n, p.k, p.jb, p.word_gbps, p.pair_mops
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_emulation_case_once() {
        let points = kernel_bench(8, 8, 256, 1);
        assert_eq!(points.len(), 7);
        let mut cases: Vec<&str> = points.iter().map(|p| p.case.as_str()).collect();
        cases.sort();
        assert_eq!(
            cases,
            vec![
                "AndActivationTransformed",
                "AndUnsigned",
                "AndWeightTransformed",
                "XorDerivedActivationTransformed",
                "XorDerivedUnsigned",
                "XorDerivedWeightTransformed",
                "XorSignedBinary",
            ]
        );
        let detected = PopcntArm::detect().label();
        for p in &points {
            assert!(p.word_gbps > 0.0 && p.pair_mops > 0.0);
            assert!(p.jb >= 1);
            assert_eq!(p.arm, detected, "sweep records the dispatched arm");
        }
    }

    #[test]
    fn forced_arm_sweeps_are_bit_identical_inputs_and_labeled() {
        // The per-arm sweep pins the arm it was asked for (when available)
        // and still measures every case.
        let points = kernel_bench_on(PopcntArm::Scalar, 8, 8, 256, 1);
        assert_eq!(points.len(), 7);
        for p in &points {
            assert_eq!(p.arm, "scalar");
        }
    }

    #[test]
    fn kernels_json_is_flat_and_complete() {
        let rows: Vec<Row> = schema::KERNEL_CASES
            .iter()
            .map(|case| {
                KernelPoint {
                    case: (*case).into(),
                    op: if case.starts_with("Xor") {
                        "xor"
                    } else {
                        "and"
                    }
                    .into(),
                    arm: "avx2".into(),
                    p: 2,
                    q: 2,
                    m: 64,
                    n: 96,
                    k: 4096,
                    jb: 8,
                    word_gbps: 12.345,
                    pair_mops: 678.9,
                }
                .row()
            })
            .collect();
        let json = schema::render(&schema::KERNELS, &rows);
        assert!(json.contains("\"case\": \"AndUnsigned\""));
        assert!(json.contains("\"arm\": \"avx2\""));
        assert!(json.contains("\"word_gbps\": 12.35"));
        assert!(json.contains("\"pair_mops\": 678.90}"));
        assert!(json.contains("\"jb\": 8"));
        assert!(!json.contains(",\n]"));
        let keys = schema::validate(&schema::KERNELS, &schema::parse_rows(&json).unwrap()).unwrap();
        assert_eq!(keys.len(), 7);
        assert_eq!(keys[0], ["AndUnsigned", "2", "2", "64", "96", "4096"]);
    }
}
