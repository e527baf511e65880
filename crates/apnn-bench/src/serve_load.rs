//! Serving-tier load sweeps: a closed-loop burst sweep (offered load ×
//! intra-batch threads vs. batch fill, queueing latency, throughput) plus
//! an open-loop **overload** sweep that drives the shedding, weighted,
//! multi-tenant admission path past saturation and reports goodput and
//! per-tenant shed rates.
//!
//! The paper's end-to-end argument is that arbitrary-precision kernels pay
//! off at network-serving scale; these drivers quantify the serving tier
//! itself. The closed-loop sweep submits bursts against an `apnn-serve`
//! [`Server`] and reports, per burst size and
//! [`ServeConfig::intra_batch_threads`] setting: batch fill, queueing
//! latency in ticks (`p50`/`p99`), end-to-end throughput and the warmed
//! workspace-pool population. The overload sweep first measures the
//! saturation throughput closed-loop, then offers paced open-loop traffic
//! at 0.5×/1×/2× that rate from two tenants under a weighted-fair shedding
//! policy — the acceptance property is that *goodput* (completed/s) stays
//! at the saturation plateau while the shed rate absorbs the excess.
//!
//! Run via `repro serve`.

use std::fmt::Write as _;
use std::time::Instant;

use apnn_bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_nn::models::servable_zoo;
use apnn_nn::NetPrecision;
use apnn_serve::{ModelKey, PlanRegistry, QueuePolicy, Request, ServeConfig, Server};

/// One sweep point (one row of `BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Served zoo model.
    pub model: String,
    /// Precision scheme label of the served plan ([`ModelKey::scheme`]).
    pub scheme: String,
    /// Sweep mode: `"closed"` (closed-loop burst sweep) or `"overload"`
    /// (paced open-loop traffic against the shedding admission policy).
    pub mode: String,
    /// Tenant this row describes: a tenant label for overload rows,
    /// `"all"` for closed-loop rows (which run a single unlabelled lane).
    pub tenant: String,
    /// Closed mode: requests submitted per closed-loop burst. Overload
    /// mode: the offered-load multiplier ×100 (50/100/200 for
    /// 0.5×/1×/2× saturation) — a machine-independent identity key.
    pub burst: usize,
    /// `intra_batch_threads` the server ran with.
    pub threads: usize,
    /// Workspaces the per-plan pool warmed to over the run.
    pub pool: usize,
    /// Mean requests per dispatched batch (whole server).
    pub mean_fill: f64,
    /// Median queueing latency in ticks (this row's tenant).
    pub p50_ticks: u64,
    /// 99th-percentile queueing latency in ticks (this row's tenant).
    pub p99_ticks: u64,
    /// Offered load in requests/s: equals the achieved throughput in
    /// closed mode (the loop offers exactly what completes), the measured
    /// per-tenant arrival rate in overload mode.
    pub offered_rps: f64,
    /// Goodput in requests/s: completed requests (this row's tenant) over
    /// the full wall-clock window, queueing and drain included.
    pub throughput_rps: f64,
    /// Fraction of this tenant's offered requests shed by admission
    /// (always 0 in closed mode — the loop waits, nothing queues deep).
    pub shed_rate: f64,
    /// Requests whose deadline expired while queued (this row's tenant).
    pub expired: u64,
    /// Requests condemned by the panic-quarantine bisection (this row's
    /// tenant; always 0 outside chaos mode).
    pub poisoned: u64,
    /// Worker threads restarted by the supervisor over the run (whole
    /// server; always 0 outside chaos mode).
    pub worker_restarts: u64,
    /// Blue-green promotes rolled back after a failed compile (whole
    /// server; always 0 outside chaos mode).
    pub rollbacks: u64,
    /// Wire-client retries absorbed by the idempotency ledger (whole
    /// server; always 0 outside chaos mode).
    pub client_retries: u64,
    /// Plan version the traffic resolved to (the registry's active
    /// version — 1 until a blue-green promote).
    pub version: u32,
}

/// Sweep every servable zoo model (at APNN-w1a2) over `bursts` × `threads`,
/// serving `total` requests per point, closed-loop.
pub fn sweep(bursts: &[usize], threads: &[usize], total: usize) -> Vec<LoadPoint> {
    let batch = 8;
    let mut points = Vec::new();
    for net in servable_zoo() {
        let key = ModelKey::new(net.name.clone(), NetPrecision::w1a2());
        for &intra in threads {
            for &burst in bursts {
                let server = Server::new(
                    PlanRegistry::zoo(batch, 7),
                    ServeConfig {
                        queue_capacity: 2 * batch.max(burst),
                        max_batch_delay: burst as u64,
                        workers: 4,
                        intra_batch_threads: intra,
                    },
                );
                // Warm the plan cache without traffic (a deployment compiles
                // at startup, not per request), so the reported fill/latency
                // stats cover exactly the measured window.
                server.registry().get(&key).unwrap();

                let start = Instant::now();
                let mut done = 0usize;
                while done < total {
                    let n = burst.min(total - done);
                    let tickets: Vec<_> = (0..n)
                        .map(|i| {
                            server
                                .submit_request(Request::new(key.clone(), image(done + i)))
                                .unwrap()
                        })
                        .collect();
                    for t in &tickets {
                        t.wait().expect("serve request failed");
                    }
                    done += n;
                }
                let elapsed = start.elapsed().as_secs_f64();
                let stats = server.stats();
                let rps = done as f64 / elapsed.max(1e-9);
                points.push(LoadPoint {
                    model: net.name.clone(),
                    scheme: key.scheme(),
                    mode: "closed".into(),
                    tenant: "all".into(),
                    burst,
                    threads: intra,
                    pool: stats.workspace_pool_size,
                    mean_fill: stats.mean_fill(),
                    p50_ticks: stats.p50_latency_ticks,
                    p99_ticks: stats.p99_latency_ticks,
                    offered_rps: rps,
                    throughput_rps: rps,
                    shed_rate: 0.0,
                    expired: 0,
                    poisoned: 0,
                    worker_restarts: 0,
                    rollbacks: 0,
                    client_retries: 0,
                    version: server.registry().active_version(&net.name).unwrap_or(1),
                });
            }
        }
    }
    points
}

/// Tenants driving the overload sweep, with their weighted-fair shares and
/// traffic mix: `gold` gets 3× `bronze`'s service weight and offers 3/4 of
/// the arrivals.
const OVERLOAD_TENANTS: [(&str, u32); 2] = [("gold", 3), ("bronze", 1)];

/// Queued-work deadline (ticks) for overload traffic: generous against the
/// bounded-lane queueing delay at saturation, so expiry catches genuinely
/// stuck work rather than racing the dispatcher.
const OVERLOAD_DEADLINE_TICKS: u64 = 48;

/// Open-loop overload sweep against one servable model: measure the
/// saturation throughput closed-loop, then offer paced traffic at each of
/// `multipliers_x100` (percent of saturation — 200 means 2×) from the
/// fixed gold/bronze tenant pair (weights 3:1) under a shedding,
/// weighted-fair admission policy
/// with per-request deadlines. Returns one [`LoadPoint`] per (multiplier,
/// tenant), with `throughput_rps` carrying *goodput* — completed/s over
/// the whole window — and `shed_rate`/`expired` the refused remainder.
pub fn overload_sweep(multipliers_x100: &[usize], total: usize) -> Vec<LoadPoint> {
    let batch = 8;
    let net = servable_zoo().remove(0);
    let key = ModelKey::new(net.name.clone(), NetPrecision::w1a2());

    // Saturation reference: closed-loop, deep bursts, no admission policy.
    let sat_rps = {
        let server = Server::new(
            PlanRegistry::zoo(batch, 7),
            ServeConfig {
                queue_capacity: 4 * batch,
                max_batch_delay: batch as u64,
                workers: 4,
                intra_batch_threads: 1,
            },
        );
        server.registry().get(&key).unwrap();
        let start = Instant::now();
        let mut done = 0usize;
        while done < total {
            let n = (2 * batch).min(total - done);
            let tickets: Vec<_> = (0..n)
                .map(|i| {
                    server
                        .submit_request(Request::new(key.clone(), image(done + i)))
                        .unwrap()
                })
                .collect();
            for t in &tickets {
                t.wait().expect("saturation request failed");
            }
            done += n;
        }
        done as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };

    let mut points = Vec::new();
    for &mult in multipliers_x100 {
        let mut policy = QueuePolicy::shedding(2 * batch);
        for (tenant, weight) in OVERLOAD_TENANTS {
            policy = policy.weight(tenant, weight);
        }
        let server = Server::with_policy(
            PlanRegistry::zoo(batch, 7),
            ServeConfig {
                queue_capacity: 8 * batch,
                max_batch_delay: batch as u64,
                workers: 4,
                intra_batch_threads: 1,
            },
            policy,
        );
        server.registry().get(&key).unwrap();

        let offered_rps = sat_rps * mult as f64 / 100.0;
        let interval = 1.0 / offered_rps.max(1e-9);
        let start = Instant::now();
        let mut tickets = Vec::with_capacity(total);
        for i in 0..total {
            // Paced open loop: hold each arrival to its schedule instead of
            // waiting for completions. Sleep for the bulk of the gap and
            // yield the tail — spinning here would steal the serving
            // workers' cores and depress the very goodput being measured.
            loop {
                let now = start.elapsed().as_secs_f64();
                let target = i as f64 * interval;
                if now >= target {
                    break;
                }
                let gap = target - now;
                if gap > 1.5e-3 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(gap - 1e-3));
                } else {
                    std::thread::yield_now();
                }
            }
            // 3:1 arrival mix matching the 3:1 service weights.
            let tenant = if i % 4 < 3 {
                OVERLOAD_TENANTS[0].0
            } else {
                OVERLOAD_TENANTS[1].0
            };
            let req = Request::new(key.clone(), image(i))
                .tenant(tenant)
                .deadline(OVERLOAD_DEADLINE_TICKS);
            if let Ok(t) = server.submit_request(req) {
                tickets.push(t);
            }
            // Refused on arrival: already accounted as shed per tenant.
        }
        for t in &tickets {
            let _ = t.wait(); // Ok, Shed, or Expired — the ledger decides.
        }
        server.wait_idle();
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);

        let stats = server.stats();
        for (tenant, _) in OVERLOAD_TENANTS {
            let t = stats.tenant(tenant).expect("overload tenant sent traffic");
            points.push(LoadPoint {
                model: net.name.clone(),
                scheme: key.scheme(),
                mode: "overload".into(),
                tenant: tenant.into(),
                burst: mult,
                threads: 1,
                pool: stats.workspace_pool_size,
                mean_fill: stats.mean_fill(),
                p50_ticks: t.p50_latency_ticks,
                p99_ticks: t.p99_latency_ticks,
                offered_rps: t.submitted as f64 / elapsed,
                throughput_rps: t.completed as f64 / elapsed,
                shed_rate: t.shed_rate(),
                expired: t.expired,
                poisoned: 0,
                worker_restarts: 0,
                rollbacks: 0,
                client_retries: 0,
                version: server.registry().active_version(&net.name).unwrap_or(1),
            });
        }
    }
    points
}

/// Uniform per-site injected fault rate (per-mille of fault-point visits)
/// for the chaos sweep; doubles as the `burst` identity key of both chaos
/// rows so the artifact records the rate the retention was measured at.
#[cfg(feature = "fault-inject")]
pub const CHAOS_RATE_PM: u32 = 25;

/// A/B chaos sweep (`fault-inject` builds only): run the same closed-loop
/// workload against a fault-free server (tenant `baseline`) and against a
/// server injecting admission drops, clock skew, mid-batch panics,
/// poisoned requests and worker kills at [`CHAOS_RATE_PM`] per-mille each
/// (tenant `faulted`). Two `mode: "chaos"` rows result; `throughput_rps`
/// carries goodput, so the pair quantifies *goodput retention* under
/// recovery (`repro check-bench` gates faulted ≥ 50% of baseline), and the
/// faulted row's latency quantiles include every requeue, restart and
/// bisection — the recovery-latency tax at that fault rate.
#[cfg(feature = "fault-inject")]
pub fn chaos_sweep(total: usize) -> Vec<LoadPoint> {
    use apnn_serve::{FaultPlan, FaultSite};
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
        let start = Instant::now();
        let mut submitted = 0usize;
        while submitted < total {
            let n = (2 * batch).min(total - submitted);
            let tickets: Vec<_> = (0..n)
                .filter_map(|i| {
                    server
                        .submit_request(
                            Request::new(key.clone(), image(submitted + i)).tenant(tenant),
                        )
                        .ok() // injected admit-drops are the ledger's job
                })
                .collect();
            for t in &tickets {
                let _ = t.wait(); // Ok, Shed or Poisoned — goodput decides
            }
            submitted += n;
        }
        server.wait_idle();
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let stats = server.stats();
        let t = stats.tenant(tenant).expect("chaos tenant sent traffic");
        points.push(LoadPoint {
            model: net.name.clone(),
            scheme: key.scheme(),
            mode: "chaos".into(),
            tenant: tenant.into(),
            burst: CHAOS_RATE_PM as usize,
            threads: 1,
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

/// Render a sweep (closed rows, overload rows, or a concatenation) as a
/// report table. `throughput` reads as goodput for overload rows; the
/// closing line states the overload acceptance ratio — total goodput at
/// the highest offered multiple vs. the saturation plateau.
pub fn report(points: &[LoadPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Serving: offered load vs. batch fill and goodput (servable zoo @ \
         APNN-w1a2, compiled batch 8, 4 workers)"
    );
    let _ = writeln!(
        out,
        "{:<18}{:<10}{:<8}{:>7}{:>5}{:>6}{:>8}{:>9}{:>9}{:>12}{:>12}{:>8}{:>6}",
        "model",
        "mode",
        "tenant",
        "burst",
        "thr",
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
            "{:<18}{:<10}{:<8}{:>7}{:>5}{:>6}{:>8.2}{:>9}{:>9}{:>12.1}{:>12.1}{:>7.1}%{:>6}",
            p.model,
            p.mode,
            p.tenant,
            p.burst,
            p.threads,
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
    // The shedding argument in one line: goodput at the deepest overload
    // vs. the closed-loop plateau for the same model.
    let overload: Vec<&LoadPoint> = points.iter().filter(|p| p.mode == "overload").collect();
    if let Some(&peak_mult) = overload.iter().map(|p| &p.burst).max() {
        let goodput: f64 = overload
            .iter()
            .filter(|p| p.burst == peak_mult)
            .map(|p| p.throughput_rps)
            .sum();
        let model = &overload[0].model;
        let plateau = points
            .iter()
            .filter(|p| p.mode == "closed" && &p.model == model)
            .map(|p| p.throughput_rps)
            .fold(0.0f64, f64::max);
        if plateau > 0.0 {
            let _ = writeln!(
                out,
                "overload: goodput at {:.1}x offered = {goodput:.1} req/s \
                 ({:.0}% of the {plateau:.1} req/s closed-loop plateau)",
                peak_mult as f64 / 100.0,
                100.0 * goodput / plateau
            );
        }
    }
    // The recovery argument in one line: goodput retained under injected
    // faults vs. the same workload on the fault-free twin.
    let chaos_rps = |tenant: &str| {
        points
            .iter()
            .find(|p| p.mode == "chaos" && p.tenant == tenant)
            .map(|p| p.throughput_rps)
    };
    if let (Some(base), Some(faulted)) = (chaos_rps("baseline"), chaos_rps("faulted")) {
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

fn image(seed: usize) -> BitTensor4 {
    let codes = Tensor4::<u32>::from_fn(1, 3, 32, 32, Layout::Nhwc, |_, c, h, w| {
        ((seed.wrapping_mul(37).wrapping_add(3 * c + 5 * h + 7 * w)) % 256) as u32
    });
    BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_accounts_for_every_request() {
        let _serialize = crate::timing_test_lock();
        let points = sweep(&[1, 4], &[1, 2], 8);
        // Three zoo models × 2 bursts × 2 thread counts.
        assert_eq!(points.len(), 3 * 4);
        for p in &points {
            assert!(p.mean_fill >= 1.0, "fill below 1 at burst {}", p.burst);
            assert!(p.throughput_rps > 0.0);
            assert!(p.pool >= 1, "pool never warmed at burst {}", p.burst);
            assert_eq!(p.scheme, "APNN-w1a2", "served scheme surfaces per point");
            assert_eq!(p.mode, "closed");
            assert_eq!(p.tenant, "all");
            assert_eq!(p.shed_rate, 0.0, "closed loop never sheds");
            assert_eq!(p.expired, 0, "closed loop never expires");
            assert_eq!(p.offered_rps, p.throughput_rps);
            assert_eq!(p.version, 1, "pre-promote traffic runs v1");
        }
        for model in ["AlexNet-Tiny", "VGG-Variant-Tiny", "ResNet18-Tiny"] {
            assert_eq!(
                points.iter().filter(|p| p.model == model).count(),
                4,
                "{model} missing sweep points"
            );
        }
        let table = report(&points);
        assert!(table.contains("goodput/s"));
        assert!(table.contains("pool"));
        assert!(table.contains("ResNet18-Tiny"));
    }

    #[test]
    fn overload_sweep_balances_the_tenant_ledger() {
        let _serialize = crate::timing_test_lock();
        let points = overload_sweep(&[50, 200], 48);
        // One row per (multiplier, tenant).
        assert_eq!(points.len(), 2 * 2);
        for p in &points {
            assert_eq!(p.mode, "overload");
            assert!(p.offered_rps > 0.0, "tenant `{}` offered nothing", p.tenant);
            assert!(
                (0.0..=1.0).contains(&p.shed_rate),
                "shed rate {} out of range",
                p.shed_rate
            );
            assert!(p.version >= 1);
        }
        let tenants: std::collections::BTreeSet<&str> =
            points.iter().map(|p| p.tenant.as_str()).collect();
        assert_eq!(tenants.len(), 2, "both tenants surface: {tenants:?}");
        // At 2x saturation at least some goodput survives for every
        // tenant — weighted-fair shedding refuses excess, it does not
        // starve a lane.
        for p in points.iter().filter(|p| p.burst == 200) {
            assert!(
                p.throughput_rps > 0.0,
                "tenant `{}` starved at 2x offered load",
                p.tenant
            );
        }
        let table = report(&points);
        assert!(table.contains("overload"));
        assert!(table.contains("gold"));
        assert!(table.contains("bronze"));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn chaos_sweep_pairs_a_faulted_run_and_its_fault_free_twin() {
        let _serialize = crate::timing_test_lock();
        let points = chaos_sweep(48);
        assert_eq!(points.len(), 2, "one baseline row, one faulted row");
        for p in &points {
            assert_eq!(p.mode, "chaos");
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
        assert!(table.contains("chaos"));
        assert!(table.contains("retention"));
    }
}
