//! The chaos harness: the serve tier under a deterministic fault schedule
//! (`fault-inject` feature). Every test replays exactly from its seed —
//! `APNN_FAULT_SEED=<n> cargo test --features fault-inject --test
//! serve_chaos` reproduces a CI failure bit-for-bit.
//!
//! Invariants, under injected admission drops, clock skew, mid-batch
//! panics, poisoned requests, batch stalls, worker kills, compile
//! failures and every wire-level fault:
//!
//! * **Ledger conservation** — per tenant,
//!   `submitted == completed + shed + expired + cancelled + poisoned`.
//! * **Bit identity** — every request that completes returns logits
//!   bit-identical to direct [`CompiledNet::infer`], no matter how many
//!   times its batch was re-executed, restored, or resubmitted.
//! * **No deadlock** — every case runs under a watchdog; drains and
//!   shutdowns finish under chaos.
//! * **Quarantine precision** — a poisoned request fails alone; worker
//!   panics never condemn a whole batch (`stats.failed == 0`).
//! * **Exactly-once over the wire** — retrying clients resubmit across
//!   dropped connections without double execution.

#![cfg(feature = "fault-inject")]

use std::sync::{mpsc, Arc};
use std::time::Duration;

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::nn::NetPrecision;
use apnn_tc::serve::{
    serve_tcp, FaultPlan, FaultSite, ModelKey, PlanRegistry, QueuePolicy, Request, RetryClient,
    RetryPolicy, ServeConfig, ServeError, Server, WireTimeouts,
};
use proptest::prelude::*;

const BATCH: usize = 4;
const SEED: u64 = 2021;

/// The base fault seed: override with `APNN_FAULT_SEED` to replay a CI
/// matrix entry locally.
fn base_seed() -> u64 {
    std::env::var("APNN_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(SEED)
}

fn key() -> ModelKey {
    ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2())
}

fn image(seed: u64) -> BitTensor4 {
    let codes = Tensor4::<u32>::from_fn(1, 3, 32, 32, Layout::Nhwc, |_, c, h, w| {
        ((seed as usize + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
}

/// Watchdog: chaos must never deadlock. A hung drain, join, or wait
/// panics the test instead of hanging CI.
fn with_deadline(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let what_owned = what.to_string();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what_owned} deadlocked (30s watchdog)"));
}

/// The worker/admission chaos schedule for one seed.
fn worker_chaos(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .rate(FaultSite::AdmitDrop, 60)
        .rate(FaultSite::ClockSkew, 40)
        .skew(5)
        .rate(FaultSite::BatchPanic, 80)
        .rate(FaultSite::PoisonRequest, 50)
        .rate(FaultSite::BatchStall, 30)
        .stall(Duration::from_millis(2))
        .rate(FaultSite::WorkerKill, 40)
}

/// One full chaos case: 42 requests across three tenants with deadlines,
/// cancels and priorities, under the worker/admission schedule.
fn worker_chaos_case(seed: u64, reference: Vec<Vec<i32>>) {
    with_deadline(&format!("worker chaos (seed {seed})"), move || {
        let server = Server::with_faults(
            PlanRegistry::zoo(BATCH, SEED),
            ServeConfig {
                queue_capacity: 64,
                max_batch_delay: 2,
                workers: 2,
                intra_batch_threads: 1,
            },
            QueuePolicy::shedding(16),
            worker_chaos(seed),
        );
        // Warm the plan so no compile stalls the submission clock.
        server.registry().get(&key()).unwrap();
        let tenants = ["gold", "silver", "bronze"];
        let mut tickets = Vec::new();
        for i in 0..42u64 {
            let mut req = Request::new(key(), image(i)).tenant(tenants[(i % 3) as usize]);
            if i % 5 == 0 {
                req = req.deadline(12);
            }
            if i % 7 == 0 {
                req = req.priority(1);
            }
            match server.submit_request(req) {
                Ok(t) => {
                    if i % 11 == 10 {
                        t.cancel();
                    }
                    tickets.push((i, t));
                }
                Err(ServeError::Shed { .. }) => {} // injected admit-drop or lane overflow
                Err(e) => panic!("request {i}: unexpected admission error: {e}"),
            }
        }
        for (i, t) in &tickets {
            match t.wait() {
                // The crown invariant: non-refused logits are bit-identical
                // no matter how the batch was panicked, restored, bisected
                // or stalled on its way through.
                Ok(logits) => assert_eq!(
                    logits, reference[*i as usize],
                    "request {i} diverged under seed {seed}"
                ),
                Err(ServeError::Shed { .. })
                | Err(ServeError::Expired { .. })
                | Err(ServeError::Cancelled)
                | Err(ServeError::Poisoned { .. }) => {}
                Err(e) => panic!("request {i}: unexpected terminal error: {e}"),
            }
        }
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(
            stats.failed, 0,
            "quarantine converts every panic into at most a poisoned singleton"
        );
        assert!(!stats.tenants.is_empty());
        for t in &stats.tenants {
            assert_eq!(
                t.submitted,
                t.completed + t.shed + t.expired + t.cancelled + t.poisoned,
                "tenant `{}` ledger must balance under seed {seed}: {t:?}",
                &t.tenant
            );
        }
        // Shutdown under chaos must drain and join cleanly (the watchdog
        // is the assertion).
        drop(server);
    });
}

#[test]
fn ledger_balances_and_logits_stay_bit_identical_across_seeds() {
    let registry = PlanRegistry::zoo(BATCH, SEED);
    let plan = registry.get(&key()).unwrap();
    let reference: Vec<Vec<i32>> = (0..42).map(|i| plan.infer(&image(i))).collect();
    for s in 0..8u64 {
        let seed = base_seed().wrapping_add(1000 * s);
        let reference = reference.clone();
        let outcome = std::panic::catch_unwind(move || worker_chaos_case(seed, reference));
        if let Err(panic) = outcome {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            panic!("chaos case failed under APNN_FAULT_SEED={seed}: {why}");
        }
    }
}

/// The wire chaos schedule: every outbound-response fault, with the first
/// response always corrupted so at least one retry is exercised per seed.
fn wire_chaos(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .at(FaultSite::WireCorrupt, 1)
        .rate(FaultSite::WireCorrupt, 60)
        .rate(FaultSite::WireTruncate, 40)
        .rate(FaultSite::WireDuplicate, 150)
        .rate(FaultSite::WireDisconnect, 40)
        .rate(FaultSite::WireWriteStall, 40)
        .stall(Duration::from_millis(80))
}

fn wire_chaos_case(seed: u64) {
    with_deadline(&format!("wire chaos (seed {seed})"), move || {
        let server = Arc::new(Server::with_faults(
            PlanRegistry::zoo(BATCH, SEED),
            ServeConfig {
                queue_capacity: 64,
                max_batch_delay: 1,
                workers: 2,
                intra_batch_threads: 1,
            },
            QueuePolicy::backpressure(),
            wire_chaos(seed),
        ));
        let plan = server.registry().get(&key()).unwrap();
        let reference: Vec<Vec<i32>> = (0..16).map(|i| plan.infer(&image(i))).collect();
        let handle = serve_tcp(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut client = RetryClient::with_policy(
            handle.addr(),
            RetryPolicy {
                // Shorter than the injected 80ms write stall, so stalls
                // surface as timeouts and drive the reconnect path.
                timeouts: WireTimeouts::both(Duration::from_millis(40)),
                max_attempts: 8,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(10),
                jitter_seed: seed,
            },
        )
        .unwrap();
        for i in 0..16u64 {
            let req = Request::new(key(), image(i)).tenant("chaos");
            let logits = client
                .infer(&req)
                .unwrap_or_else(|e| panic!("request {i} exhausted retries under seed {seed}: {e}"));
            assert_eq!(
                logits, reference[i as usize],
                "request {i} diverged under seed {seed}"
            );
        }
        assert!(
            client.retries() >= 1,
            "the pinned first-response corruption must force at least one retry"
        );
        server.wait_idle();
        let stats = server.stats();
        let t = stats.tenant("chaos").unwrap();
        // Exactly-once: every resubmission across a dropped/corrupted/
        // stalled connection deduplicated against the idempotency ledger.
        assert_eq!(
            t.completed, 16,
            "idempotent resubmission must never double-execute (seed {seed})"
        );
        assert_eq!(t.submitted, 16);
        assert!(
            stats.client_retries >= 1,
            "dedup hits surface in ServeStats::client_retries"
        );
        handle.shutdown();
    });
}

#[test]
fn retrying_clients_survive_wire_chaos_without_double_execution() {
    for s in 0..4u64 {
        let seed = base_seed().wrapping_add(77 * s);
        let outcome = std::panic::catch_unwind(move || wire_chaos_case(seed));
        if let Err(panic) = outcome {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            panic!("wire chaos failed under APNN_FAULT_SEED={seed}: {why}");
        }
    }
}

#[test]
fn a_poisoned_request_fails_alone_and_batchmates_complete() {
    with_deadline("poison quarantine", || {
        // The request admitted at tick 3 panics every batch that contains
        // it; the bisection must convict exactly that one.
        let server = Server::with_faults(
            PlanRegistry::zoo(BATCH, SEED),
            ServeConfig {
                queue_capacity: 16,
                max_batch_delay: 8,
                workers: 1,
                intra_batch_threads: 1,
            },
            QueuePolicy::backpressure(),
            FaultPlan::seeded(3).at(FaultSite::PoisonRequest, 3),
        );
        server.registry().get(&key()).unwrap();
        let plan = server.registry().get(&key()).unwrap();
        let tickets: Vec<_> = (0..4u64)
            .map(|i| {
                (
                    i,
                    server
                        .submit_request(Request::new(key(), image(i)).tenant("q"))
                        .unwrap(),
                )
            })
            .collect();
        for (i, t) in &tickets {
            // Submission order = admission ticks 1..=4; the third request
            // (tick 3) is the poisoned one.
            if *i == 2 {
                match t.wait() {
                    Err(ServeError::Poisoned { tenant, why, .. }) => {
                        assert_eq!(tenant, "q");
                        assert!(why.contains("poisoned"), "{why}");
                    }
                    other => panic!("poisoned request resolved to {other:?}"),
                }
            } else {
                assert_eq!(t.wait().unwrap(), plan.infer(&image(*i)), "request {i}");
            }
        }
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.poisoned, 1, "exactly one condemnation");
        assert_eq!(stats.completed, 3, "batch-mates re-executed to completion");
        assert_eq!(stats.failed, 0);
        let t = stats.tenant("q").unwrap();
        assert_eq!(t.poisoned, 1);
        assert_eq!(t.submitted, t.completed + t.poisoned);
    });
}

#[test]
fn worker_kills_restart_workers_and_lose_no_work() {
    with_deadline("worker supervision", || {
        // Every third dispatch kills its worker before execution. The
        // requeue guard + supervisor must finish all work anyway.
        let server = Server::with_faults(
            PlanRegistry::zoo(BATCH, SEED),
            ServeConfig {
                queue_capacity: 32,
                max_batch_delay: 1,
                workers: 2,
                intra_batch_threads: 1,
            },
            QueuePolicy::backpressure(),
            FaultPlan::seeded(11)
                .at(FaultSite::WorkerKill, 1)
                .at(FaultSite::WorkerKill, 3),
        );
        server.registry().get(&key()).unwrap();
        let plan = server.registry().get(&key()).unwrap();
        let tickets: Vec<_> = (0..12u64)
            .map(|i| {
                (
                    i,
                    server
                        .submit_request(Request::new(key(), image(i)))
                        .unwrap(),
                )
            })
            .collect();
        for (i, t) in &tickets {
            assert_eq!(t.wait().unwrap(), plan.infer(&image(*i)), "request {i}");
        }
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.completed, 12, "restored batches re-dispatch fully");
        assert!(
            stats.worker_restarts >= 2,
            "both injected kills surface in worker_restarts: {stats:?}"
        );
        assert_eq!(stats.failed, 0);
    });
}

#[test]
fn failed_promote_rolls_back_with_zero_failed_requests() {
    with_deadline("blue-green rollback", || {
        use apnn_tc::nn::models::servable_zoo;
        // CompileFail's second check fires: check #1 is the v1 warm-up
        // compile below, check #2 the post-promote cold compile of v2.
        let server = Server::with_faults(
            PlanRegistry::zoo(BATCH, SEED),
            ServeConfig {
                queue_capacity: 16,
                max_batch_delay: 0,
                workers: 1,
                intra_batch_threads: 1,
            },
            QueuePolicy::backpressure(),
            FaultPlan::seeded(7).at(FaultSite::CompileFail, 2),
        );
        let v1_plan = server.registry().get(&key()).unwrap();
        let net = servable_zoo()
            .into_iter()
            .find(|n| n.name == "AlexNet-Tiny")
            .unwrap();
        let v2 = server
            .registry()
            .register("AlexNet-Tiny", move || net.clone());
        server.registry().promote("AlexNet-Tiny", v2).unwrap();
        assert_eq!(server.registry().active_version("AlexNet-Tiny"), Some(v2));
        // The green build's compile fails at admission: the request must
        // degrade to the blue build and *succeed* — zero failed requests.
        let ticket = server
            .submit_request(Request::new(key(), image(0)))
            .unwrap();
        assert_eq!(ticket.wait().unwrap(), v1_plan.infer(&image(0)));
        assert_eq!(
            server.registry().active_version("AlexNet-Tiny"),
            Some(1),
            "the active pointer degraded back to the blue build"
        );
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        // Traffic after the rollback stays on v1 without further incident.
        let again = server
            .submit_request(Request::new(key(), image(1)))
            .unwrap();
        assert_eq!(again.wait().unwrap(), v1_plan.infer(&image(1)));
    });
}

proptest! {
    // Few cases: every case compiles plans, which dominates runtime. The
    // nightly deep-proptest job raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Blue-green churn under injected compile failures: concurrent
    /// register/promote/retire against live pinned + unpinned traffic. A
    /// version live at admission must never surface `UnknownVersion`
    /// after `submit_request` accepted the request, and every completed
    /// result stays bit-identical.
    #[test]
    fn blue_green_races_never_orphan_admitted_requests(
        seed in any::<u64>(),
        churn in proptest::collection::vec(0u8..3, 3..8),
    ) {
        let registry = PlanRegistry::zoo(BATCH, SEED);
        let reference = registry.get(&key()).unwrap();
        let server = Arc::new(Server::with_faults(
            registry,
            ServeConfig {
                queue_capacity: 64,
                max_batch_delay: 1,
                workers: 2,
                intra_batch_threads: 1,
            },
            QueuePolicy::backpressure(),
            FaultPlan::seeded(seed).rate(FaultSite::CompileFail, 200),
        ));
        use apnn_tc::nn::models::servable_zoo;
        let net = servable_zoo()
            .into_iter()
            .find(|n| n.name == "AlexNet-Tiny")
            .unwrap();
        // Register one green build up front so churn has a version to
        // promote/retire; all versions build the same network, so every
        // completed request must match `reference` bit-for-bit.
        let v2 = server.registry().register("AlexNet-Tiny", move || net.clone());
        let churner = {
            let server = Arc::clone(&server);
            let churn = churn.clone();
            std::thread::spawn(move || {
                for op in churn {
                    match op {
                        0 => {
                            let _ = server.registry().promote("AlexNet-Tiny", v2);
                        }
                        1 => {
                            let _ = server.registry().promote("AlexNet-Tiny", 1);
                        }
                        _ => {
                            let _ = server.registry().retire("AlexNet-Tiny", v2);
                        }
                    }
                    std::thread::yield_now();
                }
            })
        };
        let mut tickets = Vec::new();
        for i in 0..10u64 {
            // Mix pinned (v1 is never retired: it is active or prev) and
            // unpinned submissions while the churner flips versions.
            let k = if i % 3 == 0 { key().at_version(1) } else { key() };
            match server.submit_request(Request::new(k, image(i)).tenant("race")) {
                Ok(t) => tickets.push((i, t)),
                // Injected compile failure with no compilable fallback,
                // or a pinned version caught mid-retire — both are
                // admission-time answers, which is the contract.
                Err(ServeError::NotServable(_)) | Err(ServeError::UnknownVersion { .. }) => {}
                Err(e) => prop_assert!(false, "request {i}: unexpected admission error {e}"),
            }
        }
        churner.join().unwrap();
        for (i, t) in &tickets {
            match t.wait() {
                Ok(logits) => prop_assert_eq!(
                    &logits,
                    &reference.infer(&image(*i)),
                    "request {} diverged", i
                ),
                Err(e) => prop_assert!(
                    false,
                    "request {} was admitted yet terminally failed: {}", i, e
                ),
            }
        }
        server.wait_idle();
        prop_assert_eq!(server.stats().failed, 0);
    }
}
