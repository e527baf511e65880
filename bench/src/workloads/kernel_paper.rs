//! `kernel_paper`: the paper's Fig. 5 GEMM and Fig. 7 convolution through
//! the prepared kernels' sequential entry points, on one thread.

use std::hint::black_box;
use std::time::{Duration, Instant};

use apnn_bitpack::{BitPlanes, BitTensor4, Encoding, Layout, Tensor4};
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::ConvWeights;
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::reference::{conv2d_i32, gemm_i32};
use apnn_kernels::{ApConv, Apmm, ApmmDesc, ConvDesc, PreparedApmm, PreparedConv};

use super::{Cfg, Outcome, PrepCounters, Tally, Window};
use crate::gen::{fnv64, Rng};
use crate::json::Value;
use crate::spec::PLAN_SEED;
use crate::trace::Trace;

/// Fig. 5: `M = 64`, `K = N = 1024`.
const GEMM: (usize, usize, usize) = (64, 1024, 1024);
/// Fig. 7: 16x16 input, 3x3 filter, stride 1, pad 1, batch 1, `C = 256`.
const CONV_HW: usize = 16;
const CONV_C: usize = 256;

// Five of these exist per run; boxing the larger variant would only put an
// indirection on the timed path.
#[allow(clippy::large_enum_variant)]
enum Kernel {
    Mm {
        prepared: PreparedApmm,
        x: BitPlanes,
        scratch: ApmmScratch,
    },
    Conv {
        prepared: PreparedConv,
        x: BitTensor4,
        scratch: ConvScratch,
    },
}

struct Case {
    /// Suffix of its per-layer metric, e.g. `apmm.gmacs_per_s.w1a2`.
    metric: String,
    /// Logical multiply-accumulates per call, from the shapes.
    macs: f64,
    kernel: Kernel,
    /// Operand values kept for the oracle.
    w_vals: Vec<i32>,
    x_vals: Vec<i32>,
}

pub struct State {
    cases: Vec<Case>,
}

/// 1-bit weights are +-1; fully binary (w1a1) activations too; every
/// multi-bit operand is an unsigned code (the paper's encodings).
fn encodings(p: u32, q: u32) -> (Encoding, Encoding) {
    let w = if p == 1 {
        Encoding::PlusMinusOne
    } else {
        Encoding::ZeroOne
    };
    let x = if p == 1 && q == 1 {
        Encoding::PlusMinusOne
    } else {
        Encoding::ZeroOne
    };
    (w, x)
}

/// `(values, codes)` of `n` operand elements.
fn draw(rng: &mut Rng, n: usize, bits: u32, enc: Encoding) -> (Vec<i32>, Vec<u32>) {
    let codes: Vec<u32> = (0..n).map(|_| rng.below(1 << bits) as u32).collect();
    let vals = codes.iter().map(|&c| enc.code_value(c, bits)).collect();
    (vals, codes)
}

/// Weights come from the fixed plan seed, activations from `--seed`.
pub fn setup(seed: u64) -> State {
    let mut w_rng = Rng::new(PLAN_SEED, 10);
    let mut x_rng = Rng::new(seed, 11);
    let mut cases = Vec::new();
    let (m, n, k) = GEMM;
    for (p, q) in [(1, 1), (1, 2), (2, 2)] {
        let (w_enc, x_enc) = encodings(p, q);
        let desc = ApmmDesc {
            m,
            n,
            k,
            w_bits: p,
            x_bits: q,
            w_enc,
            x_enc,
        };
        let (w_vals, w_codes) = draw(&mut w_rng, m * k, p, w_enc);
        let (x_vals, x_codes) = draw(&mut x_rng, n * k, q, x_enc);
        let prepared = Apmm::new(desc).prepare(BitPlanes::from_codes(&w_codes, m, k, p, w_enc));
        let mut scratch = ApmmScratch::default();
        scratch.reserve(q as usize * n, 0);
        cases.push(Case {
            metric: format!("kernels.apmm.gmacs_per_s.w{p}a{q}"),
            macs: (m * n * k) as f64,
            kernel: Kernel::Mm {
                prepared,
                x: BitPlanes::from_codes(&x_codes, n, k, q, x_enc),
                scratch,
            },
            w_vals,
            x_vals,
        });
    }
    for (p, q) in [(1, 2), (2, 2)] {
        let (w_enc, x_enc) = encodings(p, q);
        let desc = ConvDesc {
            batch: 1,
            cin: CONV_C,
            h: CONV_HW,
            w: CONV_HW,
            cout: CONV_C,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
            w_bits: p,
            x_bits: q,
            w_enc,
            x_enc,
        };
        let (w_vals, w_codes) = draw(&mut w_rng, CONV_C * 9 * CONV_C, p, w_enc);
        let (x_vals, x_codes) = draw(&mut x_rng, CONV_HW * CONV_HW * CONV_C, q, x_enc);
        let prepared = ApConv::new(desc).prepare(ConvWeights::from_codes(&desc, &w_codes));
        let codes = Tensor4::from_vec(1, CONV_C, CONV_HW, CONV_HW, Layout::Nhwc, x_codes);
        cases.push(Case {
            metric: format!("kernels.apconv.gmacs_per_s.w{p}a{q}"),
            macs: (desc.out_h() * desc.out_w() * CONV_C * 9 * CONV_C) as f64,
            kernel: Kernel::Conv {
                prepared,
                x: BitTensor4::from_tensor(&codes, q, x_enc),
                scratch: ConvScratch::default(),
            },
            w_vals,
            x_vals,
        });
    }
    State { cases }
}

impl Case {
    fn execute_into(&mut self, out: &mut Vec<i32>) {
        match &mut self.kernel {
            Kernel::Mm {
                prepared,
                x,
                scratch,
            } => prepared.execute_into(black_box(x), scratch, out),
            Kernel::Conv {
                prepared,
                x,
                scratch,
            } => prepared.execute_into(black_box(x), scratch, out),
        }
    }

    fn oracle(&self) -> Vec<i32> {
        match &self.kernel {
            Kernel::Mm { .. } => gemm_i32(&self.w_vals, &self.x_vals, GEMM.0, GEMM.1, GEMM.2),
            Kernel::Conv { .. } => conv2d_i32(
                &self.x_vals,
                &self.w_vals,
                1,
                CONV_HW,
                CONV_HW,
                CONV_C,
                CONV_C,
                3,
                3,
                1,
                1,
            ),
        }
    }
}

struct Runner<'a> {
    cfg: &'a Cfg,
    state: State,
    expected: Vec<Vec<i32>>,
    outs: Vec<Vec<i32>>,
    tally: Tally,
    trace: Trace,
}

impl Runner<'_> {
    /// One cycle: one timed call of each of the five kernels, each output
    /// compared with its oracle outside the timed interval.
    fn cycle(&mut self, win: &mut Window, id: u64) {
        let cycle_start = Instant::now();
        let parent = win
            .traced
            .then(|| self.trace.push("client.cycle", 0, 0, None, id));
        for (i, case) in self.state.cases.iter_mut().enumerate() {
            let t = Instant::now();
            case.execute_into(&mut self.outs[i]);
            let dt = t.elapsed();
            let correct = black_box(&self.outs[i]) == &self.expected[i];
            self.tally.record(win, i, dt, correct, case.macs / 1e9);
            if win.traced {
                let s = self.cfg.ns(t);
                self.trace.push(
                    "kernels.execute_into",
                    s,
                    s + dt.as_nanos() as u64,
                    parent,
                    id,
                );
            }
        }
        if let Some(p) = parent {
            self.trace.spans[p].start_ns = self.cfg.ns(cycle_start);
            self.trace.spans[p].end_ns = self.cfg.ns(Instant::now());
        }
    }

    fn cycles_for(&mut self, traced: bool, secs: f64, next_id: &mut u64) -> Window {
        let mut win = Window::empty(traced);
        let until = Instant::now() + Duration::from_secs_f64(secs);
        while Instant::now() < until {
            *next_id += 1;
            self.cycle(&mut win, *next_id);
        }
        win
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let state = setup(cfg.seed);
    let setup_s = cfg.t0.elapsed().as_secs_f64();
    let setup_end = PrepCounters::now();

    let expected: Vec<Vec<i32>> = state.cases.iter().map(Case::oracle).collect();
    let n_cases = state.cases.len();
    let mut r = Runner {
        cfg,
        outs: vec![Vec::new(); n_cases],
        state,
        expected,
        tally: Tally::new(n_cases),
        trace: Trace::default(),
    };

    // Warm-up: scratch buffers reach capacity, caches and clocks settle.
    let mut id = 0u64;
    r.cycles_for(false, cfg.warm_up_seconds(), &mut id);
    r.tally = Tally::new(n_cases);

    let hot_start = PrepCounters::now();
    let windows: Vec<Window> = cfg
        .windows()
        .into_iter()
        .map(|(traced, secs)| r.cycles_for(traced, secs, &mut id))
        .collect();
    let hot_end = PrepCounters::now();

    let mut out = Outcome::from_windows(setup_s, r.tally.attempted, r.tally.failed, &windows);
    if cfg.trace {
        for (i, case) in r.state.cases.iter().enumerate() {
            // MACs per nanosecond of busy time = 10^9 MACs per second.
            out.layer(
                case.metric.clone(),
                case.macs * r.tally.correct[i] as f64 / r.tally.busy_ns[i] as f64,
            );
        }
        PrepCounters::report(setup_end, hot_start, hot_end, &mut out);
    }
    out.info.push((
        "logits_fnv64",
        Value::str(format!(
            "{:016x}",
            fnv64(r.expected.iter().flatten().copied())
        )),
    ));
    out.trace = r.trace;
    out
}
