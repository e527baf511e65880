//! The compile-time **precision autotuner**: search per-layer `(w, a)` bit
//! assignments for a zoo model against (1) a *measured* microkernel cost
//! oracle ([`apnn_kernels::stage_cost`], memoized single-tile
//! microbenchmarks of the tile `select_micro` binds at compile time) and (2) the
//! `apnn-quant` QAT accuracy harness ([`apnn_quant::schedule_accuracy`]),
//! and emit the latency/accuracy **Pareto front** as `BENCH_precision.json`.
//!
//! The search space is *segmented*, not free per layer: ResNet18-Tiny's 21
//! main layers are grouped into 5 contiguous segments (one per residual
//! stage plus the classifier), every layer in a segment sharing one
//! assignment. Segmentation does two jobs at once: it keeps the space
//! enumerable (3⁴ = 81 candidates instead of 3²¹) and it discharges the
//! residual-join constraint by construction — an Identity join requires its
//! producer and joiner to carry equal output bits
//! (`apnn_nn::identity_join_groups`), and every join group of the zoo
//! models falls inside a single segment (asserted, not assumed).
//!
//! Candidates are ranked on the *estimated* cost (the oracle), then the
//! Pareto survivors — plus the uniform w1a2/w2a2 reference schedules — are
//! compiled with [`apnn_nn::Network::compile_scheduled`] and **measured**
//! end-to-end through a warmed [`apnn_nn::WorkspacePool`], so the committed
//! artifact reports real executed requests/s next to the oracle's estimate
//! and the harness accuracy for every operating point.

use std::fmt::Write as _;
use std::time::Instant;

use apnn_bitpack::PopcntArm;
use apnn_kernels::autotune::select_micro;
use apnn_kernels::{stage_cost, ConvDesc, EmulationCase, StageShape};
use apnn_nn::models::resnet18_tiny;
use apnn_nn::{
    identity_join_groups, CompileOptions, LayerPrecision, LayerSpec, Network, PrecisionSchedule,
    ShapeCursor,
};
use apnn_quant::{schedule_accuracy, SyntheticDataset};

use crate::artifacts::bench_input;

/// Per-main-layer GEMM geometry in the packed domain, extracted once from
/// the network description — everything the cost oracle needs to turn a
/// per-word microkernel rate into a per-layer estimate.
#[derive(Debug, Clone, Copy)]
pub struct MainGeom {
    /// Output positions per image (`oh·ow` for convs, 1 for linears) —
    /// the streamed GEMM row count before the batch factor.
    pub rows: usize,
    /// Output channels / features — the weight rows the kernel spreads
    /// over its lanes.
    pub cols: usize,
    /// Whether the layer is a convolution: a conv blocks the microkernel
    /// over the `out_w` pixels of an output row, a linear layer over the
    /// batch ([`MainGeom::n_cols`]).
    pub conv: bool,
    /// Output row width in pixels (1 for linears).
    pub out_w: usize,
    /// Packed reduction length in 64-bit words — for convs
    /// [`ConvDesc::k_words`], the same column-dense word count the compiled
    /// plan's weight panel and tile selection use.
    pub k_words: usize,
    /// `main_index` of the layer whose output activations this layer
    /// consumes (`None` for the first main layer, which reads the 8-bit
    /// quantized input; skip projections point at the branch producer).
    pub producer: Option<usize>,
}

impl MainGeom {
    /// The dynamic rows one K pass can block over at `batch` — the `n_cols`
    /// the compiled plan keys its tile selection with.
    pub fn n_cols(&self, batch: usize) -> usize {
        if self.conv {
            self.out_w
        } else {
            batch
        }
    }
}

/// Walk the network and extract [`MainGeom`] for every main layer, in
/// `main_index` order. Mirrors `Network::macs_per_image`'s branch handling:
/// a skip projection reads the activation captured at the last
/// `BranchSave`, so its geometry (and its activation producer) comes from
/// the branch shape, not the chain shape it happens to sit in.
pub fn main_geometry(net: &Network) -> Vec<MainGeom> {
    let shapes = net.shapes();
    let mut geoms = Vec::new();
    let mut last_main: Option<usize> = None;
    let mut branch: Option<(ShapeCursor, Option<usize>)> = None;
    // A conv's geometry through the kernels' own descriptor (precision
    // fields are irrelevant to it), so the oracle and the plan cannot
    // disagree about output width or K.
    let conv_geom = |src: ShapeCursor, cout, k, stride, pad, producer| {
        let ShapeCursor::Map { c, h, w } = src else {
            return None;
        };
        let mut desc = ConvDesc::unsigned(1, c, h, cout, k, stride, pad, 1, 1);
        desc.w = w;
        Some(MainGeom {
            rows: desc.out_h() * desc.out_w(),
            cols: cout,
            conv: true,
            out_w: desc.out_w(),
            k_words: desc.k_words(),
            producer,
        })
    };
    for (i, l) in net.layers.iter().enumerate() {
        let geom = match (shapes[i], l) {
            (
                src,
                LayerSpec::Conv {
                    cout,
                    k,
                    stride,
                    pad,
                    ..
                },
            ) => conv_geom(src, *cout, *k, *stride, *pad, last_main),
            (ShapeCursor::Vector { features }, LayerSpec::Linear { out_features, .. }) => {
                Some(MainGeom {
                    rows: 1,
                    cols: *out_features,
                    conv: false,
                    out_w: 1,
                    k_words: features.div_ceil(64),
                    producer: last_main,
                })
            }
            (s, LayerSpec::BranchSave) => {
                branch = Some((s, last_main));
                None
            }
            (
                _,
                LayerSpec::SkipConv {
                    cout,
                    k,
                    stride,
                    pad,
                    ..
                },
            ) => {
                let (src, src_main) = branch.expect("SkipConv requires a preceding BranchSave");
                conv_geom(src, *cout, *k, *stride, *pad, src_main)
            }
            _ => None,
        };
        if let Some(g) = geom {
            geoms.push(g);
            last_main = Some(geoms.len() - 1);
        }
    }
    geoms
}

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

/// Does every identity-join group fall inside a single segment? Joins
/// constrain producer and joiner to equal output bits
/// ([`apnn_nn::identity_join_groups`]); segment-uniform assignments
/// satisfy that automatically iff no group straddles a boundary.
pub fn segments_respect_joins(ranges: &[std::ops::Range<usize>], groups: &[Vec<usize>]) -> bool {
    groups
        .iter()
        .all(|g| ranges.iter().any(|r| g.iter().all(|&m| r.contains(&m))))
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

/// The cost oracle: estimated forward-pass milliseconds for one batch
/// under `schedule`, from *measured* per-shape microkernel rates.
///
/// Per main layer, the streamed popcount work is [`layer_words`]
/// plane-pair words, and [`apnn_kernels::stage_cost`] prices one word on
/// this machine for the layer's emulation case, the detected popcount arm,
/// and the tile `select_micro` picks at compile time for the same
/// `n_cols` — so the estimate ranks schedules with the same numbers the
/// compiled plans run on. 1-bit weights run the
/// ±1-transformed AND case, multi-bit the unsigned one.
pub fn estimate_cost_ms(geoms: &[MainGeom], schedule: &PrecisionSchedule, batch: usize) -> f64 {
    assert_eq!(geoms.len(), schedule.len());
    let arm = PopcntArm::detect();
    let mut total_ns = 0.0f64;
    for (i, g) in geoms.iter().enumerate() {
        let (pa, pb) = plane_counts(geoms, schedule, i);
        let case = if pa == 1 {
            EmulationCase::AndWeightTransformed
        } else {
            EmulationCase::AndUnsigned
        };
        let n_cols = g.n_cols(batch);
        let tile = select_micro(n_cols);
        let shape = StageShape {
            n_cols,
            k_words: g.k_words,
            pa,
            pb,
        };
        total_ns += stage_cost(shape, case, arm, tile) * layer_words(geoms, schedule, i, batch);
    }
    total_ns / 1e6
}

/// Layer `i`'s `(pa, pb)` under `schedule`: its weight bits (the static,
/// lane-interleaved side) and its *input* activation bits (the 8-bit
/// quantized input for the first main, else the producer's `a`).
fn plane_counts(geoms: &[MainGeom], schedule: &PrecisionSchedule, i: usize) -> (u32, u32) {
    let pb = match geoms[i].producer {
        None => 8,
        Some(p) => schedule.layer(p).a,
    };
    (schedule.layer(i).w, pb)
}

/// The plane-pair 64-bit words layer `i` streams through the popcount
/// kernel for one batch under `schedule`:
/// `rows·batch × cols × pa × pb × k_words` — the deterministic factor of
/// the cost oracle.
pub fn layer_words(
    geoms: &[MainGeom],
    schedule: &PrecisionSchedule,
    i: usize,
    batch: usize,
) -> f64 {
    let (g, (pa, pb)) = (&geoms[i], plane_counts(geoms, schedule, i));
    (g.rows * batch) as f64 * g.cols as f64 * pa as f64 * pb as f64 * g.k_words as f64
}

/// Indices of the Pareto-optimal points over `(cost, accuracy)`: a point
/// survives iff no other point is at most as costly *and* at least as
/// accurate with one of the two strict. Ties keep the first occurrence.
pub fn pareto_front(points: &[(f64, f32)]) -> Vec<usize> {
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
    /// Cost-oracle estimate for one compiled batch (ms).
    pub est_cost_ms: f64,
    /// QAT proxy-harness accuracy ([`apnn_quant::schedule_accuracy`]).
    pub accuracy: f32,
    /// Measured end-to-end throughput (requests/s) through a warmed
    /// workspace pool.
    pub exec_rps: f64,
    /// 1 when the point is on the estimated latency/accuracy Pareto front
    /// of the emitted set, 0 for dominated reference rows.
    pub pareto: bool,
}

/// The reference accuracy-harness configuration: a 5-dense-layer proxy MLP
/// (one dense layer per schedule segment) on the synthetic dataset,
/// best-of-3 restarts. Deterministic — a schedule scores identically on
/// every run and machine.
fn segment_accuracy(seg_bits: &[(u32, u32)]) -> f32 {
    let data = SyntheticDataset::generate(6, 48, 120, 60, 0.6, 11);
    schedule_accuracy(&data, &[48, 32, 24, 16], seg_bits, 25, 3, 11)
}

/// Measure executed requests/s for `schedule` on `net`: compile at
/// `batch`, warm a thread-matched workspace pool, then take the best of a
/// few back-to-back timed windows (the same ceiling-estimate reading as
/// `repro exec`).
fn measure_exec_rps(
    net: &Network,
    schedule: &PrecisionSchedule,
    batch: usize,
    requests: usize,
    threads: usize,
    iters: usize,
) -> f64 {
    let plan = net.compile_scheduled(schedule, &CompileOptions::functional(batch, 2021));
    let input = bench_input(&net.name, requests, net.input_h, net.input_w);
    let pool = plan.workspace_pool(threads.max(1));
    let mut out = Vec::new();
    plan.infer_batched_into(&input, &pool, threads, &mut out); // warm
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            plan.infer_batched_into(&input, &pool, threads, &mut out);
        }
        let rps = (iters * requests) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        best = best.max(rps);
    }
    best
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

/// A candidate scored on the two cheap ranking axes: its per-segment
/// `(w, a)` assignment, the cost-oracle estimate (ms) and the harness
/// accuracy.
type ScoredCandidate = (Vec<(u32, u32)>, f64, f32);

/// Run the precision autotuner for ResNet18-Tiny and return the emitted
/// operating points: both uniform references (w1a2, w2a2) plus every
/// estimated-Pareto candidate, all with measured exec throughput.
///
/// `batch`/`requests`/`threads`/`iters` shape the execution measurement
/// only; the candidate *ranking* comes from the deterministic accuracy
/// harness and the memoized microkernel cost oracle.
pub fn precision_bench(
    batch: usize,
    requests: usize,
    threads: usize,
    iters: usize,
) -> Vec<PrecisionPoint> {
    let net = resnet18_tiny();
    let geoms = main_geometry(&net);
    let n = geoms.len();
    let ranges = segment_ranges(n);
    assert!(
        segments_respect_joins(&ranges, &identity_join_groups(&net)),
        "segment boundaries must not straddle an identity-join group"
    );

    // Score the whole candidate space on the two cheap axes.
    let cands = candidate_space();
    let scored: Vec<ScoredCandidate> = cands
        .into_iter()
        .map(|seg_bits| {
            let schedule = schedule_from_segments(&ranges, &seg_bits, n);
            let cost = estimate_cost_ms(&geoms, &schedule, batch);
            let acc = segment_accuracy(&seg_bits);
            (seg_bits, cost, acc)
        })
        .collect();
    let front = pareto_front(&scored.iter().map(|&(_, c, a)| (c, a)).collect::<Vec<_>>());

    // Emit: uniform references first, then the front (skipping schedules
    // already emitted — uniform w1a2 is itself a candidate).
    let uniform_w2a2: Vec<(u32, u32)> = vec![(2, 2); SEGMENTS];
    let uniform_w1a2: Vec<(u32, u32)> = vec![(1, 2); SEGMENTS];
    let mut chosen: Vec<ScoredCandidate> = Vec::new();
    for u in [uniform_w1a2, uniform_w2a2] {
        if let Some(s) = scored.iter().find(|(b, _, _)| *b == u) {
            chosen.push(s.clone());
        } else {
            let schedule = schedule_from_segments(&ranges, &u, n);
            let cost = estimate_cost_ms(&geoms, &schedule, batch);
            let acc = segment_accuracy(&u);
            chosen.push((u, cost, acc));
        }
    }
    for &i in &front {
        if !chosen.iter().any(|(b, _, _)| *b == scored[i].0) {
            chosen.push(scored[i].clone());
        }
    }

    // Pareto flags over the emitted set, then measure each survivor.
    let flags = pareto_front(&chosen.iter().map(|&(_, c, a)| (c, a)).collect::<Vec<_>>());
    chosen
        .iter()
        .enumerate()
        .map(|(i, (seg_bits, cost, acc))| {
            let schedule = schedule_from_segments(&ranges, seg_bits, n);
            let rps = measure_exec_rps(&net, &schedule, batch, requests, threads, iters);
            PrecisionPoint {
                model: net.name.clone(),
                scheme: schedule.label(),
                segments: seg_label(seg_bits),
                est_cost_ms: *cost,
                accuracy: *acc,
                exec_rps: rps,
                pareto: flags.contains(&i),
            }
        })
        .collect()
}

/// Render the autotuner output as `BENCH_precision.json` content.
pub fn precision_json(points: &[PrecisionPoint]) -> String {
    let mut body = String::new();
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            body,
            "  {{\"model\": \"{}\", \"scheme\": \"{}\", \"segments\": \"{}\", \
             \"est_cost_ms\": {:.3}, \"accuracy\": {:.4}, \"exec_rps\": {:.1}, \
             \"pareto\": {}}}{}",
            p.model,
            p.scheme,
            p.segments,
            p.est_cost_ms,
            p.accuracy,
            p.exec_rps,
            p.pareto as u32,
            if i + 1 == points.len() { "\n" } else { ",\n" }
        );
    }
    format!("{{\n\"precision\": [\n{body}]\n}}\n")
}

/// Render the autotuner output as a human table (printed by
/// `repro precision`).
pub fn precision_report(points: &[PrecisionPoint]) -> String {
    let mut out =
        String::from("## Precision autotuner: estimated-Pareto schedules vs. uniform references\n");
    let _ = writeln!(
        out,
        "{:<16}{:<34}{:>12}{:>10}{:>12}{:>8}",
        "model", "segments", "est ms", "acc", "exec req/s", "pareto"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<16}{:<34}{:>12.3}{:>10.4}{:>12.1}{:>8}",
            p.model,
            p.segments,
            p.est_cost_ms,
            p.accuracy,
            p.exec_rps,
            if p.pareto { "yes" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_geometry_and_segments_line_up() {
        let net = resnet18_tiny();
        let geoms = main_geometry(&net);
        assert_eq!(geoms.len(), net.num_main_layers());
        assert_eq!(geoms.len(), 21);
        // First main reads the quantized input; every other has a producer.
        assert!(geoms[0].producer.is_none());
        assert!(geoms[1..].iter().all(|g| g.producer.is_some()));
        // Classifier: one row per image, 10 classes.
        let fc = geoms.last().unwrap();
        assert_eq!((fc.rows, fc.cols), (1, 10));
        let ranges = segment_ranges(geoms.len());
        assert_eq!(ranges.len(), SEGMENTS);
        assert_eq!(ranges.last().unwrap().clone(), 20..21);
        assert!(segments_respect_joins(&ranges, &identity_join_groups(&net)));
        // A straddling group would be rejected.
        assert!(!segments_respect_joins(&ranges, &[vec![4, 5]]));
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
        let pts = [(1.0, 0.60), (2.0, 0.55), (3.0, 0.70), (1.0, 0.60)];
        assert_eq!(pareto_front(&pts), vec![0, 2]);
        assert_eq!(pareto_front(&[]), Vec::<usize>::new());
    }

    #[test]
    fn cost_oracle_orders_uniform_schemes() {
        let net = resnet18_tiny();
        let geoms = main_geometry(&net);
        let n = geoms.len();
        // The oracle is rate × words, and the per-word rate is the same
        // three vector instructions at every precision, so what orders
        // uniform schemes is the word count — compared exactly (an ordering
        // of wall-clock probes would flake on a loaded machine). Every body
        // layer's plane-pair work scales with w·a: 2 < 3 < 4 pairs; the
        // first main keeps its 8-bit input.
        let words = |w, a| -> Vec<f64> {
            let schedule = PrecisionSchedule::uniform(w, a, n);
            (0..n)
                .map(|i| layer_words(&geoms, &schedule, i, 1))
                .collect()
        };
        let (w1a2, w1a3, w2a2) = (words(1, 2), words(1, 3), words(2, 2));
        // Dense packing shortens K per layer (the 3×3×3 stem's whole
        // window: 1 word; 3×3×16 columns: 3 words, 3×3×32: 6, not 9) — the
        // same for every precision, so the 2 : 3 : 4 ratios below hold on
        // the packed counts.
        let ks: Vec<usize> = geoms.iter().filter(|g| g.conv).map(|g| g.k_words).collect();
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
        assert_eq!(w2a2[0], 2.0 * w1a2[0]);
        for i in 1..n {
            assert!(w1a2[i] > 0.0);
            assert_eq!(2.0 * w1a3[i], 3.0 * w1a2[i], "layer {i}");
            assert_eq!(w2a2[i], 2.0 * w1a2[i], "layer {i}");
        }
        // The timed half: every estimate is a finite positive price. The
        // probes are memoized process-wide, so keep the CPU-saturating load
        // sweeps out of this window.
        let _serialize = crate::timing_test_lock();
        let costs = [(1, 2), (1, 3), (2, 2)]
            .map(|(w, a)| estimate_cost_ms(&geoms, &PrecisionSchedule::uniform(w, a, n), 1));
        assert!(costs.iter().all(|c| c.is_finite() && *c > 0.0), "{costs:?}");
    }

    #[test]
    fn oracle_geometry_matches_every_compiled_zoo_conv() {
        // The oracle must price — and key its tile/cost memos with — exactly
        // the K and block width the compiled plan runs.
        use apnn_nn::compile::MainKernel;
        use apnn_nn::models::{alexnet_tiny, vgg_variant_tiny};
        // Each stem's window-dense K: 5×5×3 in two words, 3×3×3 in one.
        for (net, stem_words) in [
            (alexnet_tiny(), 2),
            (vgg_variant_tiny(), 1),
            (resnet18_tiny(), 1),
        ] {
            let geoms = main_geometry(&net);
            let plan = net.compile(
                apnn_nn::NetPrecision::w1a2(),
                &CompileOptions::functional(1, 2021),
            );
            // Geometry is in network order; the plan hoists skip
            // projections, so pair the two by layer name.
            let names = net.layers.iter().filter(|l| l.is_main()).map(|l| l.name());
            let geoms: Vec<(String, &MainGeom)> = names.zip(&geoms).collect();
            assert_eq!(geoms.len(), plan.main_stages().count(), "{}", net.name);
            let mut convs = 0;
            for stage in plan.main_stages() {
                let at = format!("{}/{}", net.name, stage.name);
                let (_, g) = geoms
                    .iter()
                    .find(|(name, _)| *name == stage.name)
                    .expect(&at);
                let MainKernel::Conv { desc, prepared, .. } = &stage.kernel else {
                    assert!(!g.conv, "{at}");
                    continue;
                };
                let prepared = prepared
                    .as_ref()
                    .expect("functional plans are materialized");
                assert!(g.conv, "{at}");
                if convs == 0 {
                    assert!(desc.window_dense(), "{at}");
                    assert_eq!(g.k_words, stem_words, "{at}");
                }
                assert_eq!(
                    (g.k_words, g.out_w, g.rows, g.cols),
                    (
                        prepared.weights().words_per_row(),
                        desc.out_w(),
                        desc.out_h() * desc.out_w(),
                        desc.cout
                    ),
                    "{at}"
                );
                convs += 1;
            }
            assert!(convs > 0, "{}", net.name);
        }
    }

    #[test]
    fn precision_json_is_flat_and_complete() {
        let points = vec![
            PrecisionPoint {
                model: "ResNet18-Tiny".into(),
                scheme: "APNN-w1a2".into(),
                segments: "w1a2,w1a2,w1a2,w1a2,w1a2".into(),
                est_cost_ms: 1.234,
                accuracy: 0.661,
                exec_rps: 400.0,
                pareto: true,
            },
            PrecisionPoint {
                model: "ResNet18-Tiny".into(),
                scheme: "APNN-mixed-w1a2x15-w1a3x5-w1a2x1".into(),
                segments: "w1a2,w1a2,w1a2,w1a3,w1a2".into(),
                est_cost_ms: 1.5,
                accuracy: 0.678,
                exec_rps: 350.5,
                pareto: false,
            },
        ];
        let json = precision_json(&points);
        assert!(json.contains("\"precision\": ["));
        assert!(json.contains("\"scheme\": \"APNN-w1a2\""));
        assert!(json.contains("\"segments\": \"w1a2,w1a2,w1a2,w1a3,w1a2\""));
        assert!(json.contains("\"est_cost_ms\": 1.234"));
        assert!(json.contains("\"accuracy\": 0.6610"));
        assert!(json.contains("\"exec_rps\": 350.5"));
        assert!(json.contains("\"pareto\": 1"));
        assert!(json.contains("\"pareto\": 0"));
        assert_eq!(json.matches("{\"model\"").count(), 2);
        assert!(!json.contains(",\n]"));
        let table = precision_report(&points);
        assert!(table.contains("pareto"));
        assert!(table.contains("w1a2,w1a2,w1a2,w1a3,w1a2"));
    }
}
