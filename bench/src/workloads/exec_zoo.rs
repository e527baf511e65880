//! `exec_zoo`: 8-image batches round-robin through seven compiled zoo
//! plans via `infer_batched_into` on a warmed pool, one thread. No server.

use std::hint::black_box;
use std::time::{Duration, Instant};

use apnn_bitpack::BitTensor4;
use apnn_nn::models::servable_zoo;
use apnn_nn::{
    CompileOptions, CompiledNet, LayerPrecision, NetPrecision, Network, PrecisionSchedule,
    WorkspacePool,
};

use super::{time_us, Cfg, Outcome, PrepCounters, Tally, Window};
use crate::gen::{self, fnv64, Rng};
use crate::json::Value;
use crate::spec::{metric_slug, BATCH, IMAGES, MIXED_SLUG, PLAN_SEED, SCHEMES};
use crate::stats::median;
use crate::trace::Trace;

struct Plan {
    /// `<model slug>.<scheme slug>`, the tail of its per-layer metrics.
    slug: String,
    model: &'static str,
    w1a2: bool,
    compile_ms: f64,
    net: CompiledNet,
    pool: WorkspacePool,
}

pub struct State {
    plans: Vec<Plan>,
    images: Vec<BitTensor4>,
    batches: Vec<BitTensor4>,
    pack_us: f64,
}

/// The seven plans: three zoo models x {w1a2, w2a2}, plus ResNet18-Tiny
/// under the committed mixed front (w1a3 on the 20 convolutions, w1a2 on
/// the classifier).
fn plan_specs() -> Vec<(Network, String, Option<PrecisionSchedule>, NetPrecision)> {
    let mut specs = Vec::new();
    for net in servable_zoo() {
        for (s, w, a) in SCHEMES {
            let slug = format!("{}.{s}", metric_slug(&net.name));
            specs.push((net.clone(), slug, None, NetPrecision::Apnn { w, a }));
        }
    }
    let resnet = servable_zoo()
        .pop()
        .expect("ResNet18-Tiny is the last zoo entry");
    let mut layers = vec![LayerPrecision::new(1, 3); resnet.num_main_layers() - 1];
    layers.push(LayerPrecision::new(1, 2));
    specs.push((
        resnet,
        format!("resnet18_tiny.{MIXED_SLUG}"),
        Some(PrecisionSchedule::new(layers)),
        NetPrecision::w1a2(),
    ));
    specs
}

pub fn setup(seed: u64) -> State {
    let codes = gen::image_codes(&mut Rng::new(seed, 1), IMAGES, 3, 32);
    let t = Instant::now();
    let images: Vec<BitTensor4> = codes.iter().map(gen::pack).collect();
    let pack_us = t.elapsed().as_secs_f64() * 1e6 / IMAGES as f64;
    let batches: Vec<BitTensor4> = images
        .chunks(BATCH)
        .map(|c| BitTensor4::concat_images(&c.iter().collect::<Vec<_>>()))
        .collect();

    let opts = CompileOptions::functional(BATCH, PLAN_SEED);
    let plans = plan_specs()
        .into_iter()
        .map(|(net, slug, schedule, precision)| {
            let t = Instant::now();
            let compiled = match &schedule {
                Some(s) => net.compile_scheduled(s, &opts),
                None => net.compile(precision, &opts),
            };
            let compile_ms = t.elapsed().as_secs_f64() * 1e3;
            // Warm the pool: its one workspace exists before timing starts.
            let pool = compiled.workspace_pool(1);
            compiled.infer_batched_into(&batches[0], &pool, 1, &mut Vec::new());
            Plan {
                model: metric_slug(&net.name),
                w1a2: schedule.is_none() && precision == NetPrecision::w1a2(),
                slug,
                compile_ms,
                net: compiled,
                pool,
            }
        })
        .collect();
    State {
        plans,
        images,
        batches,
        pack_us,
    }
}

/// One-image-at-a-time logits on a workspace the timed path never sees.
pub fn oracle(plan: &CompiledNet, images: &[BitTensor4]) -> Vec<Vec<i32>> {
    let mut ws = plan.workspace();
    images
        .iter()
        .map(|img| {
            let mut out = Vec::new();
            plan.infer_into(img, &mut ws, &mut out);
            out
        })
        .collect()
}

pub fn run(cfg: &Cfg) -> Outcome {
    let state = setup(cfg.seed);
    let setup_s = cfg.t0.elapsed().as_secs_f64();
    let setup_end = PrepCounters::now();
    let n_plans = state.plans.len();

    // expected[plan][batch] = the batch's logits, image-major.
    let expected: Vec<Vec<Vec<i32>>> = state
        .plans
        .iter()
        .map(|p| {
            oracle(&p.net, &state.images)
                .chunks(BATCH)
                .map(|c| c.concat())
                .collect()
        })
        .collect();

    let mut trace = Trace::default();
    let mut out_buf: Vec<i32> = Vec::new();
    let mut tally = Tally::new(n_plans);
    let mut cycle_no = 0u64;

    // One cycle = one batch through each plan; the batch rotates per cycle.
    let mut cycles_for = |traced: bool, secs: f64, tally: &mut Tally| -> Window {
        let mut win = Window::empty(traced);
        let until = Instant::now() + Duration::from_secs_f64(secs);
        while Instant::now() < until {
            cycle_no += 1;
            let b = cycle_no as usize % state.batches.len();
            let cycle_start = Instant::now();
            let parent = traced.then(|| trace.push("client.cycle", 0, 0, None, cycle_no));
            for (i, plan) in state.plans.iter().enumerate() {
                let t = Instant::now();
                plan.net.infer_batched_into(
                    black_box(&state.batches[b]),
                    &plan.pool,
                    1,
                    &mut out_buf,
                );
                let dt = t.elapsed();
                let correct = black_box(&out_buf) == &expected[i][b];
                tally.record(&mut win, i, dt, correct, BATCH as f64);
                if traced {
                    let s = cfg.ns(t);
                    trace.push(
                        "nn.infer_batched_into",
                        s,
                        s + dt.as_nanos() as u64,
                        parent,
                        cycle_no,
                    );
                }
            }
            if let Some(p) = parent {
                trace.spans[p].start_ns = cfg.ns(cycle_start);
                trace.spans[p].end_ns = cfg.ns(Instant::now());
            }
        }
        win
    };

    cycles_for(false, cfg.warm_up_seconds(), &mut Tally::new(n_plans));
    let hot_start = PrepCounters::now();
    let windows: Vec<Window> = cfg
        .windows()
        .into_iter()
        .map(|(traced, secs)| cycles_for(traced, secs, &mut tally))
        .collect();
    let hot_end = PrepCounters::now();

    let mut out = Outcome::from_windows(setup_s, tally.attempted, tally.failed, &windows);
    if cfg.trace {
        for (i, plan) in state.plans.iter().enumerate() {
            out.layer(
                format!("nn.images_per_s.{}", plan.slug),
                (tally.correct[i] * BATCH as u64) as f64 * 1e9 / tally.busy_ns[i] as f64,
            );
            if !plan.slug.ends_with(MIXED_SLUG) {
                out.layer(format!("nn.compile_ms.{}", plan.slug), plan.compile_ms);
            }
        }
        let creates = PrepCounters::report(setup_end, hot_start, hot_end, &mut out);
        out.layer("serve.pool.workspace_creates_hot", creates as f64);
        out.layer("bitpack.pack_tensor_us", state.pack_us);
        probes(cfg, &state, &mut out, &mut trace);
    }
    out.info.push((
        "logits_fnv64",
        Value::str(format!(
            "{:016x}",
            fnv64(expected.iter().flatten().flatten().copied())
        )),
    ));
    out.trace = trace;
    out
}

/// Isolated calls on the same inputs: batch-1 latency, workspace size and
/// what `threads = 2` buys on a 16-image request, per model at w1a2.
fn probes(cfg: &Cfg, state: &State, out: &mut Outcome, trace: &mut Trace) {
    let probe_start = Instant::now();
    let sixteen = BitTensor4::concat_images(&[&state.batches[0], &state.batches[1]]);
    for plan in state.plans.iter().filter(|p| p.w1a2) {
        let mut ws = plan.net.workspace();
        let mut logits = Vec::new();
        let mut next = 0usize;
        let b1_us = time_us(5, 8, || {
            next = (next + 1) % state.images.len();
            plan.net
                .infer_into(black_box(&state.images[next]), &mut ws, &mut logits);
        });
        out.layer(format!("nn.infer_b1_ms.{}", plan.model), b1_us / 1e3);
        out.layer(
            format!("nn.workspace_bytes.{}", plan.model),
            plan.net.workspace_spec().total_bytes as f64,
        );

        let pool = plan.net.workspace_pool(2);
        let mut run = |threads: usize| {
            time_us(1, 1, || {
                plan.net
                    .infer_batched_into(black_box(&sixteen), &pool, threads, &mut logits)
            })
        };
        run(2); // both workspaces exist before either side is timed
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            t1.push(run(1));
            t2.push(run(2));
        }
        out.layer(
            format!("nn.shard_speedup_t2.{}", plan.model),
            median(&t1) / median(&t2),
        );
    }
    trace.push(
        "probe.nn",
        cfg.ns(probe_start),
        cfg.ns(Instant::now()),
        None,
        0,
    );
}
