//! The compile-time **precision autotuner**: search per-layer `(w, a)` bit
//! assignments for a zoo model against (1) a closed-form cost — the
//! plane-pair 64-bit words the popcount kernel streams per batch, read off
//! the compiled plan's stages ([`schedule_words`]) — and (2) the
//! `apnn-quant` QAT accuracy harness ([`apnn_quant::schedule_accuracy`]),
//! and emit the cost/accuracy **Pareto front** as `BENCH_precision.json`.
//! Both axes are deterministic, so the artifact is a pure function of the
//! code.
//!
//! The search space is *segmented*, not free per layer: ResNet18-Tiny's 21
//! main layers (in fused `main_index` order, each skip projection ahead of
//! its joining conv) are grouped into 5 contiguous segments (one per
//! residual stage plus the classifier), every layer in a segment sharing
//! one assignment. Segmentation does two jobs at once: it keeps the space
//! enumerable (3⁴ = 81 candidates instead of 3²¹) and it discharges the
//! residual-join constraint by construction — an Identity join requires its
//! producer and joiner to carry equal output bits, and every join group of
//! the zoo models falls inside a single segment. That is checked, not
//! assumed: every candidate is compiled to be counted, and
//! `compile_scheduled` rejects a schedule that splits a join.
//!
//! Candidates are ranked on the word count; the Pareto survivors plus the
//! uniform w1a2/w2a2 reference schedules are emitted with that count and
//! the harness accuracy. The count covers the K passes only (not the
//! strip, the fused tail or the joins) and the artifact carries no timed
//! column: end-to-end throughput for these schedules is measured at a
//! stated operating point by `bench/`'s `nn.images_per_s.resnet18_tiny.*`.

use std::fmt::Write as _;

use apnn_nn::models::resnet18_tiny;
use apnn_nn::{CompileOptions, LayerPrecision, Network, PrecisionSchedule};
use apnn_quant::{schedule_accuracy, SyntheticDataset};

use crate::schema::{self, Row};

/// Contiguous `main_index` segments the autotuner assigns bits over:
/// `n_mains` split into `SEGMENTS` near-equal runs, with the final main
/// layer (the classifier head) always alone in the last segment.
pub const SEGMENTS: usize = 5;

/// The segment boundaries for a model with `n_mains` main layers: ranges
/// `[start, end)` covering `0..n_mains` exactly. For ResNet18-Tiny's 21
/// mains this yields `[0..5, 5..10, 10..15, 15..20, 20..21]` — one segment
/// per residual stage (stem + stage 1, stages 2–4 each with their
/// downsample projection) plus the classifier.
pub fn segment_ranges(n_mains: usize) -> Vec<std::ops::Range<usize>> {
    assert!(n_mains >= SEGMENTS, "need at least {SEGMENTS} main layers");
    let body = n_mains - 1; // classifier is its own final segment
    let per = body.div_ceil(SEGMENTS - 1);
    let mut ranges = Vec::with_capacity(SEGMENTS);
    let mut start = 0;
    for _ in 0..SEGMENTS - 1 {
        let end = (start + per).min(body);
        ranges.push(start..end);
        start = end;
    }
    ranges.push(body..n_mains);
    ranges
}

/// Expand per-segment `(w, a)` choices into a full per-layer schedule.
pub fn schedule_from_segments(
    ranges: &[std::ops::Range<usize>],
    seg_bits: &[(u32, u32)],
    n_mains: usize,
) -> PrecisionSchedule {
    assert_eq!(ranges.len(), seg_bits.len());
    let mut layers = vec![LayerPrecision::new(1, 2); n_mains];
    for (r, &(w, a)) in ranges.iter().zip(seg_bits) {
        for l in &mut layers[r.clone()] {
            *l = LayerPrecision::new(w, a);
        }
    }
    PrecisionSchedule::new(layers)
}

/// The autotuner's cost: plane-pair 64-bit words the popcount kernel
/// streams for one `batch`-image batch under `schedule` — the sim-only
/// plan's [`MainStage::pair_words`](apnn_nn::compile::MainStage::pair_words)
/// summed over its main stages. Counting the compiled plan, not a model of
/// it, keeps every stage's K, output size and input bits the ones the plan
/// runs; compiling also rejects a schedule that splits an identity join.
/// Pure integer arithmetic — the same on every machine and every run.
pub fn schedule_words(net: &Network, schedule: &PrecisionSchedule, batch: usize) -> u64 {
    net.compile_scheduled(schedule, &CompileOptions::sim(batch))
        .main_stages()
        .map(|m| m.pair_words())
        .sum()
}

/// Indices of the Pareto-optimal points over `(cost, accuracy)`: a point
/// survives iff no other point is at most as costly *and* at least as
/// accurate with one of the two strict. Ties keep the first occurrence.
pub fn pareto_front(points: &[(u64, f32)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            let (ci, ai) = points[i];
            !points.iter().enumerate().any(|(j, &(cj, aj))| {
                let dominates = cj <= ci && aj >= ai && (cj < ci || aj > ai);
                // A duplicate point only shadows later copies.
                let duplicate = cj == ci && aj == ai && j < i;
                dominates || duplicate
            })
        })
        .collect()
}

/// One operating point of the precision autotuner, as committed to
/// `BENCH_precision.json`.
#[derive(Debug, Clone)]
pub struct PrecisionPoint {
    /// Model name.
    pub model: String,
    /// Scheme label ([`PrecisionSchedule::label`]).
    pub scheme: String,
    /// Per-segment assignment, e.g. `"w1a2,w1a2,w1a3,w1a3,w1a2"`.
    pub segments: String,
    /// Plane-pair 64-bit words one batch streams through the popcount
    /// kernel ([`schedule_words`]; `repro precision` prices 8 images).
    pub pair_words: u64,
    /// QAT proxy-harness accuracy ([`apnn_quant::schedule_accuracy`]).
    pub accuracy: f32,
    /// 1 when the point is on the word-count/accuracy Pareto front
    /// of the emitted set, 0 for dominated reference rows.
    pub pareto: bool,
}

impl PrecisionPoint {
    /// This point as a [`schema::PRECISION`] row.
    pub fn row(&self) -> Row {
        schema::PRECISION.row([
            self.model.as_str().into(),
            self.scheme.as_str().into(),
            self.segments.as_str().into(),
            self.pair_words.into(),
            self.accuracy.into(),
            u32::from(self.pareto).into(),
        ])
    }
}

/// The reference accuracy-harness configuration: a 5-dense-layer proxy MLP
/// (one dense layer per schedule segment) on the synthetic dataset,
/// best-of-3 restarts. Deterministic — a schedule scores identically on
/// every run and machine.
fn segment_accuracy(seg_bits: &[(u32, u32)]) -> f32 {
    let data = SyntheticDataset::generate(6, 48, 120, 60, 0.6, 11);
    schedule_accuracy(&data, &[48, 32, 24, 16], seg_bits, 25, 3, 11)
}

fn seg_label(seg_bits: &[(u32, u32)]) -> String {
    seg_bits
        .iter()
        .map(|&(w, a)| format!("w{w}a{a}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Per-segment candidate choices. The classifier segment is pinned to
/// `(1, 2)`: its proxy counterpart trains a float logit layer (mixed-mode
/// harness practice), so widening it spends latency the accuracy harness
/// cannot see.
pub const SEGMENT_CHOICES: [(u32, u32); 3] = [(1, 2), (1, 3), (2, 2)];

/// Enumerate the candidate per-segment assignments: the cartesian product
/// of [`SEGMENT_CHOICES`] over the body segments, classifier pinned.
pub fn candidate_space() -> Vec<Vec<(u32, u32)>> {
    let mut cands = vec![Vec::new()];
    for _ in 0..SEGMENTS - 1 {
        cands = cands
            .into_iter()
            .flat_map(|c| {
                SEGMENT_CHOICES.iter().map(move |&b| {
                    let mut c = c.clone();
                    c.push(b);
                    c
                })
            })
            .collect();
    }
    for c in &mut cands {
        c.push((1, 2));
    }
    cands
}

/// A candidate scored on the two ranking axes: its per-segment `(w, a)`
/// assignment, its word count and the harness accuracy.
type ScoredCandidate = (Vec<(u32, u32)>, u64, f32);

/// Run the precision autotuner for ResNet18-Tiny, pricing each candidate
/// for one `batch`-image batch, and return the emitted operating points:
/// both uniform references (w1a2, w2a2) plus every Pareto candidate.
pub fn precision_bench(batch: usize) -> Vec<PrecisionPoint> {
    let net = resnet18_tiny();
    let n = net.num_main_layers();
    let ranges = segment_ranges(n);

    // Score the whole candidate space on both axes.
    let score = |seg_bits: Vec<(u32, u32)>| -> ScoredCandidate {
        let schedule = schedule_from_segments(&ranges, &seg_bits, n);
        let cost = schedule_words(&net, &schedule, batch);
        let acc = segment_accuracy(&seg_bits);
        (seg_bits, cost, acc)
    };
    let scored: Vec<ScoredCandidate> = candidate_space().into_iter().map(score).collect();
    let front = pareto_front(&scored.iter().map(|&(_, c, a)| (c, a)).collect::<Vec<_>>());

    // Emit: uniform references first, then the front (skipping schedules
    // already emitted — uniform w1a2 is itself a candidate).
    let mut chosen: Vec<ScoredCandidate> = [(1, 2), (2, 2)]
        .map(|bits| {
            let u = vec![bits; SEGMENTS];
            let known = scored.iter().find(|(b, _, _)| *b == u).cloned();
            known.unwrap_or_else(|| score(u))
        })
        .into();
    for &i in &front {
        if !chosen.iter().any(|(b, _, _)| *b == scored[i].0) {
            chosen.push(scored[i].clone());
        }
    }

    // Pareto flags over the emitted set.
    let flags = pareto_front(&chosen.iter().map(|&(_, c, a)| (c, a)).collect::<Vec<_>>());
    chosen
        .iter()
        .enumerate()
        .map(|(i, (seg_bits, cost, acc))| PrecisionPoint {
            model: net.name.clone(),
            scheme: schedule_from_segments(&ranges, seg_bits, n).label(),
            segments: seg_label(seg_bits),
            pair_words: *cost,
            accuracy: *acc,
            pareto: flags.contains(&i),
        })
        .collect()
}

/// Render the autotuner output as a human table (printed by
/// `repro precision`).
pub fn precision_report(points: &[PrecisionPoint]) -> String {
    let mut out = String::from("## Precision autotuner: Pareto schedules vs. uniform references\n");
    let _ = writeln!(
        out,
        "{:<16}{:<34}{:>12}{:>10}{:>8}",
        "model", "segments", "pair words", "acc", "pareto"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<16}{:<34}{:>12}{:>10.4}{:>8}",
            p.model,
            p.segments,
            p.pair_words,
            p.accuracy,
            if p.pareto { "yes" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_nn::compile::MainKernel;
    use apnn_nn::{CompiledNet, NetPrecision};

    /// ResNet18-Tiny's sim-only plan under `schedule` at `batch`.
    fn resnet_plan(schedule: &PrecisionSchedule, batch: usize) -> CompiledNet {
        resnet18_tiny().compile_scheduled(schedule, &CompileOptions::sim(batch))
    }

    /// `(name, pair_words)` of every main stage, in fused order.
    fn stage_words(plan: &CompiledNet) -> Vec<(String, u64)> {
        plan.main_stages()
            .map(|m| (m.name.clone(), m.pair_words()))
            .collect()
    }

    #[test]
    fn resnet_geometry_and_segments_line_up() {
        let n = resnet18_tiny().num_main_layers();
        let words = stage_words(&resnet_plan(&PrecisionSchedule::uniform(1, 2, n), 8));
        assert_eq!(words.len(), 21);
        // Fused order hoists each downsample projection ahead of its
        // joining conv — the order schedules are indexed in.
        let names = words[5..10].iter().map(|(name, _)| name.as_str());
        let layer2 = [
            "layer2.0a",
            "layer2.0ds",
            "layer2.0b",
            "layer2.1a",
            "layer2.1b",
        ];
        assert!(names.eq(layer2), "{words:?}");
        // Classifier: 8 rows × 10 classes × 32 K words × w1 × a2.
        assert_eq!(words[20], ("fc".to_string(), 5_120));
        assert_eq!(
            segment_ranges(n),
            [0..5, 5..10, 10..15, 15..20, 20..21],
            "one segment per residual stage plus the classifier"
        );
    }

    #[test]
    fn candidate_space_pins_classifier_and_covers_uniforms() {
        let cands = candidate_space();
        assert_eq!(cands.len(), 81);
        assert!(cands.iter().all(|c| c.len() == SEGMENTS));
        assert!(cands.iter().all(|c| c[SEGMENTS - 1] == (1, 2)));
        assert!(cands.iter().any(|c| c[..4].iter().all(|&b| b == (1, 2))));
        let mut uniq = cands.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 81, "candidates are distinct");
    }

    #[test]
    fn pareto_front_keeps_only_undominated() {
        // (cost, acc): a dominates b; c trades cost for accuracy; d is a
        // duplicate of a and must not resurface.
        let pts = [(1, 0.60), (2, 0.55), (3, 0.70), (1, 0.60)];
        assert_eq!(pareto_front(&pts), vec![0, 2]);
        assert_eq!(pareto_front(&[]), Vec::<usize>::new());
    }

    #[test]
    fn cost_oracle_orders_uniform_schemes() {
        let net = resnet18_tiny();
        let n = net.num_main_layers();
        // Every body stage's plane-pair work scales with w·a: 2 < 3 < 4
        // pairs; the first main keeps its 8-bit input.
        let plan = |w, a| resnet_plan(&PrecisionSchedule::uniform(w, a, n), 1);
        let words =
            |w, a| -> Vec<u64> { plan(w, a).main_stages().map(|m| m.pair_words()).collect() };
        let (w1a2, w1a3, w2a2) = (words(1, 2), words(1, 3), words(2, 2));
        // Dense packing shortens K per stage (the 3×3×3 stem's whole
        // window: 1 word; 3×3×16 columns: 3 words, 3×3×32: 6, not 9) — the
        // same for every precision, so the 2 : 3 : 4 ratios below hold on
        // the packed counts.
        let ks: Vec<usize> = plan(1, 2)
            .main_stages()
            .filter_map(|m| match &m.kernel {
                MainKernel::Conv { desc, .. } => Some(desc.k_words()),
                _ => None,
            })
            .collect();
        assert_eq!(
            ks[..2],
            [1, 3],
            "the stem packs its window into one word, layer1 a word per column"
        );
        assert!(
            ks.contains(&6) && ks.contains(&9) && ks.contains(&18),
            "{ks:?}"
        );
        assert_eq!(w1a3[0], w1a2[0]);
        assert_eq!(w2a2[0], 2 * w1a2[0]);
        for i in 1..n {
            assert!(w1a2[i] > 0);
            assert_eq!(2 * w1a3[i], 3 * w1a2[i], "stage {i}");
            assert_eq!(w2a2[i], 2 * w1a2[i], "stage {i}");
        }
        // The emitted uniform rows order the same way: w1a2 < the a3 body
        // (classifier pinned at w1a2) < w2a2.
        let ranges = segment_ranges(n);
        let cost = |seg| schedule_words(&net, &schedule_from_segments(&ranges, seg, n), 8);
        let a3_body = [(1, 3), (1, 3), (1, 3), (1, 3), (1, 2)];
        assert!(cost(&[(1, 2); SEGMENTS]) < cost(&a3_body));
        assert!(cost(&a3_body) < cost(&[(2, 2); SEGMENTS]));
    }

    #[test]
    fn schedule_words_count_the_fused_main_index() {
        // Schedules are indexed by fused `main_index`, where layer2's
        // downsample projection (6) runs ahead of its joining conv (7):
        // widening main 6 widens `layer2.0ds`, not `layer2.0b`.
        let net = resnet18_tiny();
        let n = net.num_main_layers();
        let mut layers = vec![LayerPrecision::new(1, 2); n];
        layers[6] = LayerPrecision::new(2, 2);
        let schedule = PrecisionSchedule::new(layers);
        let uniform = stage_words(&resnet_plan(&PrecisionSchedule::uniform(1, 2, n), 8));
        let mixed = stage_words(&resnet_plan(&schedule, 8));
        let at = |words: &[(String, u64)], name: &str| {
            words.iter().find(|(s, _)| s == name).expect(name).1
        };
        assert_eq!(at(&uniform, "layer2.0ds"), 131_072);
        assert_eq!(at(&mixed, "layer2.0ds"), 262_144);
        assert_eq!(at(&uniform, "layer2.0b"), 786_432);
        assert_eq!(at(&mixed, "layer2.0b"), 786_432);
        assert_eq!(schedule_words(&net, &schedule, 8), 11_539_456);
    }

    #[test]
    fn oracle_geometry_matches_every_compiled_zoo_conv() {
        // The count must use exactly the K, output size and planes the
        // compiled plan runs: every stage's closed form against its
        // prepared weight panel.
        use apnn_nn::models::servable_zoo;
        // Each stem's window-dense K: AlexNet-Tiny's 5×5×3 in two words,
        // VGG-Variant-Tiny's and ResNet18-Tiny's 3×3×3 in one.
        for (net, stem_words) in servable_zoo().into_iter().zip([2, 1, 1]) {
            for (w, a) in [(1, 2), (2, 2)] {
                let plan = net.compile(
                    NetPrecision::Apnn { w, a },
                    &CompileOptions::functional(2, 2021),
                );
                for (i, stage) in plan.main_stages().enumerate() {
                    let at = format!("{}/w{w}a{a}/{}", net.name, stage.name);
                    let (rows, cols, x_bits, panel) = match &stage.kernel {
                        MainKernel::Conv { desc, prepared, .. } => {
                            let prepared = prepared.as_ref().expect(&at);
                            if i == 0 {
                                assert!(desc.window_dense(), "{at}");
                                assert_eq!(desc.k_words(), stem_words, "{at}");
                            }
                            let rows = desc.batch * desc.out_h() * desc.out_w();
                            (rows, desc.cout, desc.x_bits, prepared.weights())
                        }
                        MainKernel::Linear { desc, prepared, .. } => {
                            let prepared = prepared.as_ref().expect(&at);
                            (desc.n, desc.m, desc.x_bits, prepared.weights())
                        }
                        MainKernel::Baseline => panic!("{at}: baseline stage"),
                    };
                    assert_eq!(
                        stage.pair_words(),
                        (rows * cols * panel.words_per_row() * panel.n_planes()) as u64
                            * u64::from(x_bits),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn precision_json_is_flat_and_complete() {
        let points = vec![
            PrecisionPoint {
                model: "ResNet18-Tiny".into(),
                scheme: "APNN-w1a2".into(),
                segments: "w1a2,w1a2,w1a2,w1a2,w1a2".into(),
                pair_words: 1_234_567,
                accuracy: 0.661,
                pareto: true,
            },
            PrecisionPoint {
                model: "ResNet18-Tiny".into(),
                scheme: "APNN-mixed-w1a2x15-w1a3x5-w1a2x1".into(),
                segments: "w1a2,w1a2,w1a2,w1a3,w1a2".into(),
                pair_words: 1_500_000,
                accuracy: 0.678,
                pareto: false,
            },
        ];
        let rows: Vec<Row> = points.iter().map(PrecisionPoint::row).collect();
        let json = schema::render(&schema::PRECISION, &rows);
        assert!(json.contains("\"precision\": ["));
        assert!(json.contains("\"scheme\": \"APNN-w1a2\""));
        assert!(json.contains("\"segments\": \"w1a2,w1a2,w1a2,w1a3,w1a2\""));
        assert!(json.contains("\"pair_words\": 1234567,"));
        assert!(json.contains("\"accuracy\": 0.6610"));
        assert!(json.contains("\"pareto\": 1}"));
        assert!(json.contains("\"pareto\": 0}"));
        assert_eq!(json.matches("{\"model\"").count(), 2);
        assert!(!json.contains(",\n]"));
        let table = precision_report(&points);
        assert!(table.contains("pareto"));
        assert!(table.contains("w1a2,w1a2,w1a2,w1a3,w1a2"));
    }
}
