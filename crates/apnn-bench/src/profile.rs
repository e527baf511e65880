//! `repro profile`: where a compiled plan's CPU time goes, stage by stage.
//!
//! Every servable zoo model × {w1a2, w2a2, w2a8} is compiled as a
//! functional batch-8 plan and run through `infer_into` on one workspace:
//! a few warm-up batches, then the requested number of timed batches. The
//! engine itself keeps each main stage's cumulative wall time
//! ([`apnn_nn::compile::ExecWorkspace::stage_ns`]); this module only reads
//! the per-batch differences and sets each stage's measured time beside
//! its closed-form cost ([`apnn_nn::compile::MainStage::pair_words`]) and
//! its simulated RTX 3090 price ([`CompiledNet::report`]). Geometry comes
//! from the plan alone, so the rows are the plan's own stages.

use std::fmt::Write as _;

use apnn_bitpack::{BitTensor4, Layout, Tensor4};
use apnn_nn::compile::MainKernel;
use apnn_nn::models::servable_zoo;
use apnn_nn::{CompileOptions, CompiledNet, NetPrecision};
use apnn_sim::GpuSpec;

/// The profiled schemes: the two uniform `exec_zoo` schemes and the wide
/// 8-bit activation path.
const SCHEMES: [(u32, u32); 3] = [(1, 2), (2, 2), (2, 8)];

/// Images per batch (the compiled batch of every profiled plan).
const BATCH: usize = 8;

/// Untimed batches run before the timed ones.
const WARMUP: usize = 3;

/// Timed batches per plan in `repro profile`.
pub const BATCHES: usize = 41;

/// One main stage's row of a [`PlanProfile`].
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage (layer) name.
    pub name: String,
    /// Median wall-clock ns per image over the timed batches.
    pub median_ns: f64,
    /// First and third quartile of the same samples.
    pub iqr_ns: (f64, f64),
    /// Share of the plan's total timed wall clock, in percent.
    pub share_pct: f64,
    /// Plane-pair words per image (`pair_words()` / batch).
    pub pair_words: u64,
    /// Simulated RTX 3090 price per image (ns).
    pub sim_ns: f64,
    /// Share of the plan's simulated main-stage time, in percent.
    pub sim_share_pct: f64,
}

impl StageRow {
    /// Median ns per thousand plane-pair words.
    pub fn ns_per_kword(&self) -> f64 {
        self.median_ns * 1e3 / self.pair_words as f64
    }
}

/// One plan's per-stage profile, rows in `main_stages()` order.
#[derive(Debug, Clone)]
pub struct PlanProfile {
    /// Model name.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// The popcount arm the plan's kernels were bound to.
    pub arm: &'static str,
    /// Timed batches.
    pub batches: usize,
    /// One row per main stage.
    pub rows: Vec<StageRow>,
}

/// Profile every servable zoo model × {w1a2, w2a2, w2a8} over `batches`
/// timed batches each.
pub fn profile(batches: usize) -> Vec<PlanProfile> {
    let mut out = Vec::new();
    for net in servable_zoo() {
        for (w, a) in SCHEMES {
            let plan = net.compile(
                NetPrecision::Apnn { w, a },
                &CompileOptions::functional(BATCH, 2021),
            );
            out.push(profile_plan(&plan, batches));
        }
    }
    out
}

/// Run `plan` for [`WARMUP`] + `batches` batches on one workspace and
/// read each main stage's time per batch off the workspace's timers.
fn profile_plan(plan: &CompiledNet, batches: usize) -> PlanProfile {
    assert!(batches > 0, "profile at least one batch");
    let input = images(plan);
    let n = input.shape().0 as f64;
    let mut ws = plan.workspace();
    let mut logits = Vec::new();
    for _ in 0..WARMUP {
        plan.infer_into(&input, &mut ws, &mut logits);
    }
    let stages = ws.stage_ns().len();
    let mut samples = vec![Vec::with_capacity(batches); stages];
    let mut prev = ws.stage_ns().to_vec();
    for _ in 0..batches {
        plan.infer_into(&input, &mut ws, &mut logits);
        for (s, (&now, before)) in ws.stage_ns().iter().zip(&mut prev).enumerate() {
            samples[s].push((now - *before) as f64 / n);
            *before = now;
        }
    }
    let totals: Vec<f64> = samples.iter().map(|s| s.iter().sum()).collect();
    let total: f64 = totals.iter().sum();

    let sim: Vec<f64> = plan
        .report(&GpuSpec::rtx3090())
        .stages
        .iter()
        .filter(|s| s.is_main)
        .map(|s| s.time_s * 1e9 / plan.batch() as f64)
        .collect();
    let sim_total: f64 = sim.iter().sum();

    let rows = plan
        .main_stages()
        .zip(samples.iter_mut())
        .zip(totals.iter().zip(&sim))
        .map(|((stage, ns), (stage_total, &sim_ns))| {
            ns.sort_by(f64::total_cmp);
            StageRow {
                name: stage.name.clone(),
                median_ns: quantile(ns, 0.5),
                iqr_ns: (quantile(ns, 0.25), quantile(ns, 0.75)),
                share_pct: 100.0 * stage_total / total,
                pair_words: stage.pair_words() / plan.batch() as u64,
                sim_ns,
                sim_share_pct: 100.0 * sim_ns / sim_total,
            }
        })
        .collect();
    PlanProfile {
        model: plan.model.clone(),
        scheme: plan.scheme.clone(),
        arm: arm(plan),
        batches,
        rows,
    }
}

/// Render the profiles, one table per plan.
pub fn render(profiles: &[PlanProfile]) -> String {
    let mut out = String::new();
    for p in profiles {
        let _ = writeln!(
            out,
            "## profile {} @ {}: batch {BATCH}, arm {}, {} batches after {WARMUP} warm-up; \
             ns per image (median, IQR over batches); sim = RTX 3090 price",
            p.model, p.scheme, p.arm, p.batches
        );
        let _ = writeln!(
            out,
            "{:>3} {:<14}{:>11} {:>19}{:>8}{:>12}{:>10}{:>10}{:>7}",
            "#", "stage", "ns/img", "IQR", "share%", "pairw/img", "ns/kword", "sim ns", "sim%"
        );
        for (i, r) in p.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i:>3} {:<14}{:>11.0} {:>19}{:>8.1}{:>12}{:>10.2}{:>10.1}{:>7.1}",
                r.name,
                r.median_ns,
                format!("[{:.0}–{:.0}]", r.iqr_ns.0, r.iqr_ns.1),
                r.share_pct,
                r.pair_words,
                r.ns_per_kword(),
                r.sim_ns,
                r.sim_share_pct,
            );
        }
        let total: f64 = p.rows.iter().map(|r| r.median_ns).sum();
        let _ = writeln!(out, "    {:<14}{total:>11.0}  (sum of medians)", "total");
        out.push('\n');
    }
    out
}

/// A full compiled batch of deterministic images in the plan's input
/// format: code `(13·b + 3·c + 5·y + 7·x) mod 2^bits`.
fn images(plan: &CompiledNet) -> BitTensor4 {
    let (h, w, c, bits, enc) = plan
        .input_map_spec()
        .expect("profiled plans take a feature map");
    let modulus = 1usize << bits;
    let codes = Tensor4::<u32>::from_fn(plan.batch(), c, h, w, Layout::Nhwc, |b, ch, y, x| {
        ((13 * b + 3 * ch + 5 * y + 7 * x) % modulus) as u32
    });
    BitTensor4::from_tensor(&codes, bits, enc)
}

/// The popcount arm the plan's first kernel was bound to.
fn arm(plan: &CompiledNet) -> &'static str {
    match plan.main_stages().next().map(|m| &m.kernel) {
        Some(MainKernel::Conv {
            prepared: Some(p), ..
        }) => p.arm().label(),
        Some(MainKernel::Linear {
            prepared: Some(p), ..
        }) => p.arm().label(),
        _ => "none",
    }
}

/// Linearly interpolated quantile `p` of ascending `sorted` samples.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_rows_are_the_plans_main_stages() {
        let profiles = profile(2);
        assert_eq!(profiles.len(), servable_zoo().len() * SCHEMES.len());
        let mut plans = Vec::new();
        for net in servable_zoo() {
            for (w, a) in SCHEMES {
                plans.push(net.compile(NetPrecision::Apnn { w, a }, &CompileOptions::sim(BATCH)));
            }
        }
        for (p, plan) in profiles.iter().zip(&plans) {
            assert_eq!((&p.model, &p.scheme), (&plan.model, &plan.scheme));
            let names: Vec<&str> = p.rows.iter().map(|r| r.name.as_str()).collect();
            let want: Vec<&str> = plan.main_stages().map(|m| m.name.as_str()).collect();
            assert_eq!(names, want, "{} @ {}", p.model, p.scheme);
            let share: f64 = p.rows.iter().map(|r| r.share_pct).sum();
            assert!(
                (share - 100.0).abs() <= 0.5,
                "{} @ {}: {share}",
                p.model,
                p.scheme
            );
            for (r, m) in p.rows.iter().zip(plan.main_stages()) {
                assert_eq!(r.pair_words, m.pair_words() / 8, "{}", r.name);
            }
        }
        let text = render(&profiles);
        assert_eq!(text.matches("## profile ").count(), profiles.len());
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }
}
