//! The five workloads. Each module exposes `setup` (build the program
//! state a deployment would build, timed as `setup_s`) and `run`.

pub mod exec_zoo;
pub mod kernel_paper;
pub mod wire;

use std::time::{Duration, Instant};

use apnn_kernels::stats as kstats;

use crate::json::Value;
use crate::spec;
use crate::stats::{cv, median, quartiles, rank};
use crate::trace::Trace;

pub struct Cfg {
    pub seed: u64,
    /// Total measured time, split evenly over the windows.
    pub seconds: f64,
    pub trace: bool,
    /// Process start; `setup_s` and span timestamps count from here.
    pub t0: Instant,
}

impl Cfg {
    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    /// Untimed load before the first window: scratch buffers reach
    /// capacity, caches and clocks settle.
    pub fn warm_up_seconds(&self) -> f64 {
        (self.seconds / 10.0).min(1.0)
    }

    /// `(traced, seconds)` per timed window. A traced run alternates
    /// untraced and traced windows, so the tracing overhead comes from one
    /// process under one set of conditions.
    pub fn windows(&self) -> Vec<(bool, f64)> {
        let secs = self.seconds / spec::WINDOWS as f64;
        (0..spec::WINDOWS)
            .map(|i| (self.trace && i % 2 == 1, secs))
            .collect()
    }
}

/// One timed window.
pub struct Window {
    pub traced: bool,
    /// Seconds the work took: busy time of the calls for the in-process
    /// workloads, wall time for the wire workloads.
    pub elapsed_s: f64,
    /// Useful work done, in the workload's `work_per_s` unit.
    pub work: f64,
    /// Latency of every operation that completed correctly (`f32` keeps
    /// seven digits and halves the client's share of peak memory).
    pub lat_ms: Vec<f32>,
}

impl Window {
    pub fn empty(traced: bool) -> Window {
        Window {
            traced,
            elapsed_s: 0.0,
            work: 0.0,
            lat_ms: Vec::new(),
        }
    }
}

/// Totals of an in-process loop over the timed windows, per case (a
/// kernel, a plan).
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Time inside the timed calls.
    pub busy_ns: Vec<u64>,
    /// Calls whose output matched the oracle.
    pub correct: Vec<u64>,
}

impl Tally {
    pub fn new(cases: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            busy_ns: vec![0; cases],
            correct: vec![0; cases],
        }
    }

    /// Fold one timed call of case `i` into its window and the totals;
    /// `work` is what a correct call adds to the window.
    pub fn record(&mut self, win: &mut Window, i: usize, dt: Duration, correct: bool, work: f64) {
        self.attempted += 1;
        if correct {
            win.work += work;
            win.lat_ms.push(dt.as_secs_f32() * 1e3);
            self.correct[i] += 1;
        } else {
            self.failed += 1;
        }
        win.elapsed_s += dt.as_secs_f64();
        self.busy_ns[i] += dt.as_nanos() as u64;
    }
}

pub struct Outcome {
    pub setup_s: f64,
    /// `VmHWM` when the last window closed: the program under load plus
    /// one number per request, before any summarising or probing.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub work_per_s: f64,
    pub latency_p50_ms: f64,
    /// Per-layer metrics this workload measured (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Ungated extras for the result file (`logits_fnv64`, validity).
    pub info: Vec<(&'static str, Value)>,
    pub trace: Trace,
}

impl Outcome {
    /// Fold the windows into the end-to-end numbers: each is the **better
    /// quartile across the windows** of that window statistic — the upper
    /// quartile of the per-window rates, the lower quartile of the
    /// per-window latency percentiles.
    ///
    /// On a shared box interference only ever slows a window down, and it
    /// does so for seconds at a time, so a plain median across windows
    /// follows the neighbours; the single best window, on the other hand,
    /// is now and then a fluke. The quartile ignores up to seven slow
    /// windows of ten and the one fast outlier. `window_rates`,
    /// `window_p50_ms` and `client.window_cv` still cover every window, so
    /// a program that is itself bimodal shows there.
    pub fn from_windows(setup_s: f64, attempted: u64, failed: u64, windows: &[Window]) -> Outcome {
        let peak_rss_mb = crate::env::peak_rss_mb();
        // (rate, p50, p95, p99) of each window that completed anything.
        let stats = |traced: bool| -> Vec<[f64; 4]> {
            windows
                .iter()
                .filter(|w| w.traced == traced && !w.lat_ms.is_empty())
                .map(|w| {
                    let mut lat = w.lat_ms.clone();
                    lat.sort_unstable_by(f32::total_cmp);
                    let rate = w.work / w.elapsed_s;
                    [rate, rank(&lat, 0.50), rank(&lat, 0.95), rank(&lat, 0.99)]
                })
                .collect()
        };
        let column = |rows: &[[f64; 4]], i: usize| rows.iter().map(|r| r[i]).collect::<Vec<_>>();
        // A run whose every operation failed has no samples; it reports
        // zeros and is marked incorrect by its failure count.
        let better = |samples: Vec<f64>, upper: bool| match samples.len() {
            0 => 0.0,
            1 => samples[0],
            _ => {
                let (q1, q3) = quartiles(&samples);
                if upper {
                    q3
                } else {
                    q1
                }
            }
        };
        let untraced = stats(false);
        let work_per_s = better(column(&untraced, 0), true);
        let mut layers = vec![
            (
                "client.latency_p95_ms".to_string(),
                better(column(&untraced, 2), false),
            ),
            (
                "client.latency_p99_ms".to_string(),
                better(column(&untraced, 3), false),
            ),
            ("client.window_cv".to_string(), cv(&column(&untraced, 0))),
        ];
        let traced = stats(true);
        if !traced.is_empty() {
            layers.push((
                "trace.overhead_share".to_string(),
                1.0 - better(column(&traced, 0), true) / work_per_s,
            ));
        }
        let list = |v: Vec<f64>| Value::Arr(v.into_iter().map(Value::Num).collect());
        Outcome {
            setup_s,
            peak_rss_mb,
            attempted,
            failed,
            work_per_s,
            latency_p50_ms: better(column(&untraced, 1), false),
            layers,
            info: vec![
                ("window_rates", list(column(&untraced, 0))),
                ("window_p50_ms", list(column(&untraced, 1))),
            ],
            trace: Trace::default(),
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }
}

/// Process-wide preparation counters, snapshotted around set-up and
/// around the timed windows.
#[derive(Clone, Copy)]
pub struct PrepCounters {
    autotune_calls: u64,
    weight_prepares: u64,
    micro_benches: u64,
    workspace_creates: u64,
}

impl PrepCounters {
    pub fn now() -> PrepCounters {
        PrepCounters {
            autotune_calls: kstats::autotune_calls(),
            weight_prepares: kstats::weight_prepares(),
            micro_benches: kstats::micro_benches(),
            workspace_creates: kstats::workspace_creates(),
        }
    }

    /// `kernels.setup.*` from process start (all zero) to `setup_end`,
    /// and `kernels.hot.*` across the timed windows (`hot_start` to
    /// `hot_end`; oracles and probes fall outside). Returns the
    /// workspaces created while hot.
    pub fn report(
        setup_end: PrepCounters,
        hot_start: PrepCounters,
        hot_end: PrepCounters,
        out: &mut Outcome,
    ) -> u64 {
        out.layer(
            "kernels.setup.autotune_calls",
            setup_end.autotune_calls as f64,
        );
        out.layer(
            "kernels.setup.weight_prepares",
            setup_end.weight_prepares as f64,
        );
        out.layer(
            "kernels.setup.micro_benches",
            setup_end.micro_benches as f64,
        );
        out.layer(
            "kernels.hot.weight_prepares",
            (hot_end.weight_prepares - hot_start.weight_prepares) as f64,
        );
        out.layer(
            "kernels.hot.micro_benches",
            (hot_end.micro_benches - hot_start.micro_benches) as f64,
        );
        hot_end.workspace_creates - hot_start.workspace_creates
    }
}

/// Median per-iteration time in microseconds of `f`, over `reps` timed
/// batches of `iters` calls (isolated-call probes).
pub fn time_us(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_iter: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    median(&per_iter)
}
