//! Offline shim for the `criterion` crate.
//!
//! Provides just enough of the Criterion 0.5 API for this workspace's
//! `harness = false` benches to compile and produce useful wall-clock
//! numbers under `cargo bench`: benchmark groups, `bench_function` /
//! `bench_with_input`, `BenchmarkId`, and an iteration timer that reports
//! the median per-iteration time. No statistics machinery, no plots.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifier for one parameterized benchmark case.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` id, matching Criterion's display form.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Id from a bare parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Top-level bench context handed to each `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("\n== bench group: {name} ==");
        BenchmarkGroup {
            name,
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
            elements: None,
        }
    }
}

/// A named group of benchmark cases.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// Elements per iteration of the cases that follow, when annotated.
    elements: Option<u64>,
}

impl BenchmarkGroup {
    /// Set the number of timed samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Set the warm-up budget.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Set a throughput annotation for the cases that follow: an element
    /// count adds the time per element to each case's line (criterion
    /// proper reports elements per second); a byte count is accepted and
    /// ignored.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.elements = match t {
            Throughput::Elements(n) => Some(n),
            Throughput::Bytes(_) => None,
        };
        self
    }

    /// Run one benchmark case.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            median: Duration::ZERO,
        };
        f(&mut b);
        let per_elem = self.elements.map_or(String::new(), |n| {
            let ns = b.median.as_nanos() as f64 / n.max(1) as f64;
            format!(" {ns:>12.1} ns/elem")
        });
        println!(
            "{}/{:<40} {:>12.3?} /iter{per_elem}",
            self.name,
            id.to_string(),
            b.median
        );
        self
    }

    /// Run one benchmark case with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Close the group.
    pub fn finish(&mut self) {}
}

/// Throughput annotations.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Per-case iteration timer.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    median: Duration,
}

impl Bencher {
    /// Time `f`, recording the median per-iteration duration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up + calibration: how many iterations fit the budget?
        let start = Instant::now();
        let mut calib_iters = 0u64;
        while start.elapsed() < self.warm_up_time || calib_iters == 0 {
            black_box(f());
            calib_iters += 1;
            if calib_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = start.elapsed() / calib_iters.max(1) as u32;
        let budget_per_sample = self.measurement_time / self.sample_size.max(1) as u32;
        let iters_per_sample = if per_iter.is_zero() {
            1000
        } else {
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u32
        };

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples.push(t.elapsed() / iters_per_sample);
        }
        samples.sort_unstable();
        self.median = samples[samples.len() / 2];
    }
}

/// Declare a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let _ = $config;
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point running every declared group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes flags like `--bench`; ignore them.
            $( $group(); )+
        }
    };
}
