//! What the benchmark is: workloads, metrics, bounds and the committed
//! load constants. `BENCHMARK.json` is generated from these tables
//! (`apnn-benchmark manifest`) and a test keeps the committed copy equal.

use crate::json::Value;

/// Seconds one run measures (`BENCHMARK.json` `run_seconds`). A run given
/// any other `--seconds` is stamped `"smoke": true`.
pub const RUN_SECONDS: u64 = 20;
/// Timed windows per run (see `Outcome::from_windows` for how they fold).
pub const WINDOWS: usize = 10;

/// Compiled batch of every zoo plan, and the registry batch of every server.
pub const BATCH: usize = 8;
/// Weight seed of every compiled plan and prepared kernel (never `--seed`).
pub const PLAN_SEED: u64 = 7;
/// Request images generated per run.
pub const IMAGES: usize = 32;

/// Open-loop arrival rates, chosen once from an open-loop sweep of the
/// 50/30/20 mix on the definition box (2 cores, avx512-vpopcntdq), which
/// put saturation at ~500 req/s: 0.3x and 1.5x (README "The committed
/// rates"). A faster build must meet the same schedule, so these are
/// never re-derived at run time.
pub const STEADY_RATE_HZ: f64 = 150.0;
pub const OVERLOAD_RATE_HZ: f64 = 750.0;
/// Latency limit for the open-loop workloads (see README "Choosing slo_ms").
pub const SLO_MS: f64 = 250.0;
/// Queue-expiry deadline of overload requests, in submission ticks.
pub const OVERLOAD_DEADLINE_TICKS: u64 = 64;
/// Model mix of the open-loop workloads, percent per class.
pub const MIX: [(&str, u64); 3] = [
    ("VGG-Variant-Tiny", 50),
    ("AlexNet-Tiny", 30),
    ("ResNet18-Tiny", 20),
];
/// Overload tenants: `(label, WFQ weight, arrival share percent)`.
pub const TENANTS: [(&str, u32, u64); 2] = [("gold", 3, 75), ("bronze", 1, 25)];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "kernel_paper",
        why: "Paper Fig. 5 GEMM and Fig. 7 conv on one thread: long reductions, so the popcount \
              microkernel is ~all the time; nn and serve do nothing.",
    },
    Workload {
        name: "exec_zoo",
        why:
            "8-image batches round-robin over seven compiled zoo plans: CIFAR-scale short \
              reductions shift time into gather, fused tails and residual adds; serve does nothing.",
    },
    Workload {
        name: "wire_closed_tiny",
        why:
            "Closed loop, 1 connection x 8 in flight, over TCP against a microsecond plan: codec, \
              sockets, queue and wake-ups are ~all the cost; a kernel change must not move it.",
    },
    Workload {
        name: "wire_open_steady",
        why: "Open loop at a committed ~0.3x saturation over the 50/30/20 zoo mix: one request's \
              wall-clock life at the load a real caller sees.",
    },
    Workload {
        name: "wire_open_overload",
        why: "Open loop at a committed ~1.5x saturation, gold:bronze 3:1 under shedding + WFQ + \
              deadlines: the serve layer used the other way, measured as goodput.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is reported by every workload. `work_per_s`
/// counts the workload's own unit of useful work: 10^9 MACs
/// (`kernel_paper`), images (`exec_zoo`), correct replies
/// (`wire_closed_tiny`), correct replies within `SLO_MS` (`wire_open_*`).
/// The latency times one operation: a kernel call, a batch, a request.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Zoo models as `(Network::name, metric slug)`.
pub const MODELS: [(&str, &str); 3] = [
    ("AlexNet-Tiny", "alexnet_tiny"),
    ("VGG-Variant-Tiny", "vgg_variant_tiny"),
    ("ResNet18-Tiny", "resnet18_tiny"),
];
pub const SCHEMES: [(&str, u32, u32); 2] = [("w1a2", 1, 2), ("w2a2", 2, 2)];
/// The committed mixed front of BENCH_precision.json: w1a3 x20, w1a2 x1.
pub const MIXED_SLUG: &str = "mixed_w1a3";

pub fn metric_slug(model: &str) -> &'static str {
    MODELS
        .iter()
        .find(|(name, _)| *name == model)
        .map(|(_, slug)| *slug)
        .expect("a zoo model")
}

/// Every per-layer metric, in print order. A traced run reports all of
/// them; the ones its workload does not exercise read 0.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add =
        |name: String, unit: &'static str, better: Better| out.push(Layer { name, unit, better });
    for s in ["w1a1", "w1a2", "w2a2"] {
        add(format!("kernels.apmm.gmacs_per_s.{s}"), "GMAC/s", Higher);
    }
    for s in ["w1a2", "w2a2"] {
        add(format!("kernels.apconv.gmacs_per_s.{s}"), "GMAC/s", Higher);
    }
    for c in ["autotune_calls", "weight_prepares", "micro_benches"] {
        add(format!("kernels.setup.{c}"), "count", Lower);
    }
    for c in ["weight_prepares", "micro_benches"] {
        add(format!("kernels.hot.{c}"), "count", Lower);
    }
    for (_, m) in MODELS {
        for (s, _, _) in SCHEMES {
            add(format!("nn.images_per_s.{m}.{s}"), "1/s", Higher);
        }
    }
    add(
        format!("nn.images_per_s.resnet18_tiny.{MIXED_SLUG}"),
        "1/s",
        Higher,
    );
    for (_, m) in MODELS {
        add(format!("nn.infer_b1_ms.{m}"), "ms", Lower);
    }
    add("nn.infer_b1_us.tiny".into(), "us", Lower);
    for (_, m) in MODELS {
        add(format!("nn.shard_speedup_t2.{m}"), "ratio", Higher);
    }
    for (_, m) in MODELS {
        for (s, _, _) in SCHEMES {
            add(format!("nn.compile_ms.{m}.{s}"), "ms", Lower);
        }
    }
    for (_, m) in MODELS {
        add(format!("nn.workspace_bytes.{m}"), "bytes", Lower);
    }
    add("bitpack.pack_tensor_us".into(), "us", Lower);
    for f in [
        "encode_request_us",
        "decode_request_us",
        "encode_response_us",
        "decode_response_us",
    ] {
        add(format!("serve.wire.{f}"), "us", Lower);
    }
    add("serve.wire.request_bytes".into(), "bytes", Lower);
    add("serve.wire.response_bytes".into(), "bytes", Lower);
    add("serve.inproc_rtt_us.tiny".into(), "us", Lower);
    add("serve.wire_rtt_us.tiny".into(), "us", Lower);
    add("serve.queue.mean_fill".into(), "req/batch", Higher);
    add("serve.queue.batches".into(), "count", Lower);
    add("serve.queue.p50_ticks".into(), "ticks", Lower);
    add("serve.queue.p99_ticks".into(), "ticks", Lower);
    add("serve.queue.shed_share.gold".into(), "share", Lower);
    add("serve.queue.shed_share.bronze".into(), "share", Lower);
    add("serve.queue.expired".into(), "count", Lower);
    add(
        "serve.queue.gold_bronze_goodput_ratio".into(),
        "ratio",
        Higher,
    );
    add("serve.pool.checkouts".into(), "count", Lower);
    add("serve.pool.contended".into(), "count", Lower);
    add("serve.pool.workspace_creates_hot".into(), "count", Lower);
    add("serve.registry.compiles".into(), "count", Lower);
    add("serve.registry.hits".into(), "count", Higher);
    for c in ["worker_restarts", "poisoned", "failed"] {
        add(format!("serve.{c}"), "count", Lower);
    }
    for (_, m) in MODELS {
        add(format!("client.latency_p50_ms.{m}"), "ms", Lower);
    }
    add("client.latency_p95_ms".into(), "ms", Lower);
    add("client.latency_p99_ms".into(), "ms", Lower);
    add("client.sched_lag_p99_ms".into(), "ms", Lower);
    add("client.slo_ok_share".into(), "share", Higher);
    add("client.window_cv".into(), "ratio", Lower);
    add("trace.overhead_share".into(), "share", Lower);
    out
}

fn better_str(b: Better) -> Value {
    Value::str(match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    })
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("bench")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", better_str(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name.as_str())),
                            ("unit", Value::str(m.unit)),
                            ("better", better_str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn definitions_meet_the_manifest_limits() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        assert_eq!(MIX.iter().map(|m| m.1).sum::<u64>(), 100);
        assert_eq!(TENANTS.iter().map(|t| t.2).sum::<u64>(), 100);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Value::parse(&committed).unwrap(),
            manifest(),
            "regenerate with `apnn-benchmark manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
