//! The serving tier's committed artifact: the chaos A/B pair
//! (`BENCH_serve.json`).
//!
//! The same closed-loop workload runs on a fault-free server (tenant
//! `baseline`) and on one injecting faults at every admission/worker site
//! (tenant `faulted`); the pair quantifies *goodput retention* under
//! recovery. Serving throughput and latency themselves are measured by
//! `bench/`'s `wire_*` workloads, not here. The sweep needs the
//! `fault-inject` feature.
//!
//! Run via `repro serve`.

use std::fmt::Write as _;

use crate::schema::{self, Row};

/// One chaos run (one row of `BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Served zoo model.
    pub model: String,
    /// Precision scheme label of the served plan
    /// ([`apnn_serve::ModelKey::scheme`]).
    pub scheme: String,
    /// `"baseline"` for the fault-free twin, `"faulted"` for the run under
    /// injected faults.
    pub tenant: String,
    /// Injected fault rate per site, per mille — the identity key of the
    /// pair (the rate the retention was measured at).
    pub burst: usize,
    /// Workspaces the per-plan pool warmed to over the run.
    pub pool: usize,
    /// Mean requests per dispatched batch (whole server).
    pub mean_fill: f64,
    /// Median queueing latency in ticks (this row's tenant).
    pub p50_ticks: u64,
    /// 99th-percentile queueing latency in ticks (this row's tenant).
    pub p99_ticks: u64,
    /// Requests offered per second of the run.
    pub offered_rps: f64,
    /// Goodput in requests/s: completed requests (this row's tenant) over
    /// the full wall-clock window, queueing and drain included.
    pub throughput_rps: f64,
    /// Fraction of this tenant's offered requests shed by admission.
    pub shed_rate: f64,
    /// Requests whose deadline expired while queued (this row's tenant).
    pub expired: u64,
    /// Requests condemned by the panic-quarantine bisection (this row's
    /// tenant).
    pub poisoned: u64,
    /// Worker threads restarted by the supervisor over the run (whole
    /// server).
    pub worker_restarts: u64,
    /// Blue-green promotes rolled back after a failed compile (whole
    /// server).
    pub rollbacks: u64,
    /// Wire-client retries absorbed by the idempotency ledger (whole
    /// server).
    pub client_retries: u64,
    /// Plan version the traffic resolved to (the registry's active
    /// version — 1 until a blue-green promote).
    pub version: u32,
}

impl LoadPoint {
    /// This point as a [`schema::SERVE`] row.
    pub fn row(&self) -> Row {
        schema::SERVE.row([
            self.model.as_str().into(),
            self.scheme.as_str().into(),
            self.tenant.as_str().into(),
            self.burst.into(),
            self.pool.into(),
            self.mean_fill.into(),
            self.p50_ticks.into(),
            self.p99_ticks.into(),
            self.offered_rps.into(),
            self.throughput_rps.into(),
            self.shed_rate.into(),
            self.expired.into(),
            self.poisoned.into(),
            self.worker_restarts.into(),
            self.rollbacks.into(),
            self.client_retries.into(),
            self.version.into(),
        ])
    }
}

/// Uniform per-site injected fault rate (per-mille of fault-point visits)
/// for the chaos sweep; doubles as the `burst` identity key of both chaos
/// rows so the artifact records the rate the retention was measured at.
#[cfg(feature = "fault-inject")]
pub const CHAOS_RATE_PM: u32 = 25;

/// A/B chaos sweep: run the same closed-loop workload against a fault-free
/// server (tenant `baseline`) and against a server injecting admission
/// drops, clock skew, mid-batch panics, poisoned requests and worker kills
/// at [`CHAOS_RATE_PM`] per-mille each (tenant `faulted`). `throughput_rps`
/// carries goodput, so the pair quantifies *goodput retention* under
/// recovery (`repro check-bench` gates faulted ≥ 50% of baseline), and the
/// faulted row's latency quantiles include every requeue, restart and
/// bisection — the recovery-latency tax at that fault rate.
#[cfg(feature = "fault-inject")]
pub fn chaos_sweep(total: usize) -> Vec<LoadPoint> {
    use apnn_bitpack::{BitTensor4, Encoding, Layout, Tensor4};
    use apnn_nn::models::servable_zoo;
    use apnn_nn::NetPrecision;
    use apnn_serve::{FaultPlan, FaultSite, ModelKey, PlanRegistry, QueuePolicy, Request};
    use apnn_serve::{ServeConfig, Server};

    let image = |seed: usize| {
        let codes = Tensor4::<u32>::from_fn(1, 3, 32, 32, Layout::Nhwc, |_, c, h, w| {
            ((seed.wrapping_mul(37).wrapping_add(3 * c + 5 * h + 7 * w)) % 256) as u32
        });
        BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
    };
    let batch = 8;
    let net = servable_zoo().remove(0);
    let key = ModelKey::new(net.name.clone(), NetPrecision::w1a2());
    let faulted_plan = FaultPlan::seeded(2021)
        .rate(FaultSite::AdmitDrop, CHAOS_RATE_PM)
        .rate(FaultSite::ClockSkew, CHAOS_RATE_PM)
        .skew(4)
        .rate(FaultSite::BatchPanic, CHAOS_RATE_PM)
        .rate(FaultSite::PoisonRequest, CHAOS_RATE_PM)
        .rate(FaultSite::WorkerKill, CHAOS_RATE_PM);
    let mut points = Vec::new();
    for (tenant, plan) in [
        ("baseline", FaultPlan::seeded(2021)),
        ("faulted", faulted_plan),
    ] {
        let server = Server::with_faults(
            PlanRegistry::zoo(batch, 7),
            ServeConfig {
                queue_capacity: 4 * batch,
                max_batch_delay: batch as u64,
                workers: 4,
                intra_batch_threads: 1,
            },
            QueuePolicy::backpressure(),
            plan,
        );
        server.registry().get(&key).unwrap();
        let start = std::time::Instant::now();
        // One submitter held by backpressure keeps the queue fed, so a
        // partial batch left by an injected drop flushes on the tick clock.
        // Waiting out bursts instead parks it on the wall-clock backstop,
        // which on a fast plan outweighs every recovery action combined.
        let tickets: Vec<_> = (0..total)
            .filter_map(|i| {
                server
                    .submit_request(Request::new(key.clone(), image(i)).tenant(tenant))
                    .ok() // injected admit-drops are the ledger's job
            })
            .collect();
        for t in &tickets {
            let _ = t.wait(); // Ok, Shed or Poisoned — goodput decides
        }
        server.wait_idle();
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let stats = server.stats();
        let t = stats.tenant(tenant).expect("chaos tenant sent traffic");
        points.push(LoadPoint {
            model: net.name.clone(),
            scheme: key.scheme(),
            tenant: tenant.into(),
            burst: CHAOS_RATE_PM as usize,
            pool: stats.workspace_pool_size,
            mean_fill: stats.mean_fill(),
            p50_ticks: t.p50_latency_ticks,
            p99_ticks: t.p99_latency_ticks,
            offered_rps: total as f64 / elapsed,
            throughput_rps: t.completed as f64 / elapsed,
            shed_rate: t.shed_rate(),
            expired: t.expired,
            poisoned: t.poisoned,
            worker_restarts: stats.worker_restarts,
            rollbacks: stats.rollbacks,
            client_retries: stats.client_retries,
            version: server.registry().active_version(&net.name).unwrap_or(1),
        });
    }
    points
}

/// Render the chaos pair as a report table, closed by the retention line:
/// goodput under injected faults vs. the same workload on the fault-free
/// twin.
pub fn report(points: &[LoadPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Serving under injected faults: goodput retention (compiled batch 8, 4 workers)"
    );
    let _ = writeln!(
        out,
        "{:<18}{:<12}{:<10}{:>7}{:>6}{:>8}{:>9}{:>9}{:>12}{:>12}{:>8}{:>6}",
        "model",
        "scheme",
        "tenant",
        "rate‰",
        "pool",
        "fill",
        "p50(tk)",
        "p99(tk)",
        "offered/s",
        "goodput/s",
        "shed%",
        "exp"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<18}{:<12}{:<10}{:>7}{:>6}{:>8.2}{:>9}{:>9}{:>12.1}{:>12.1}{:>7.1}%{:>6}",
            p.model,
            p.scheme,
            p.tenant,
            p.burst,
            p.pool,
            p.mean_fill,
            p.p50_ticks,
            p.p99_ticks,
            p.offered_rps,
            p.throughput_rps,
            100.0 * p.shed_rate,
            p.expired
        );
    }
    let goodput = |tenant: &str| {
        points
            .iter()
            .find(|p| p.tenant == tenant)
            .map(|p| p.throughput_rps)
    };
    if let (Some(base), Some(faulted)) = (goodput("baseline"), goodput("faulted")) {
        if base > 0.0 {
            let _ = writeln!(
                out,
                "chaos: goodput under injected faults = {faulted:.1} req/s \
                 ({:.0}% retention of the {base:.1} req/s fault-free twin)",
                100.0 * faulted / base
            );
        }
    }
    out
}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_pairs_a_faulted_run_and_its_fault_free_twin() {
        let points = chaos_sweep(48);
        assert_eq!(points.len(), 2, "one baseline row, one faulted row");
        for p in &points {
            assert_eq!(p.burst, CHAOS_RATE_PM as usize, "rate is the identity key");
            assert!(p.offered_rps > 0.0);
            assert!(p.throughput_rps > 0.0, "tenant `{}` starved", p.tenant);
            assert!((0.0..=1.0).contains(&p.shed_rate));
        }
        let base = &points[0];
        assert_eq!(base.tenant, "baseline");
        assert_eq!(
            base.poisoned + base.worker_restarts + base.rollbacks,
            0,
            "the fault-free twin must see no recovery events: {base:?}"
        );
        assert_eq!(base.shed_rate, 0.0, "the fault-free twin never sheds");
        assert_eq!(points[1].tenant, "faulted");
        let table = report(&points);
        assert!(table.contains("faulted"));
        assert!(table.contains("retention"));
    }
}
