//! Per-worker workspace reuse in the serving tier: a long-running server
//! builds **one** [`ExecWorkspace`] per `(worker thread, plan)` pair and
//! reuses it for every batch, proven by the process-wide
//! `workspace_creates` counter.
//!
//! The counter covers the whole process, so this binary keeps everything
//! in one test — concurrent workspace-creating tests would perturb the
//! deltas.
//!
//! [`ExecWorkspace`]: apnn_tc::nn::compile::ExecWorkspace

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::kernels::stats;
use apnn_tc::nn::NetPrecision;
use apnn_tc::serve::{ModelKey, PlanRegistry, Request, ServeConfig, Server};

fn image(seed: u64) -> BitTensor4 {
    let codes = Tensor4::<u32>::from_fn(1, 3, 32, 32, Layout::Nhwc, |_, c, h, w| {
        ((seed as usize + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
}

#[test]
fn workers_build_one_workspace_per_plan_and_reuse_it() {
    const WORKERS: usize = 2;
    const ROUNDS: usize = 12;
    const PER_ROUND: usize = 8;

    let server = Server::new(
        PlanRegistry::zoo(4, 31),
        ServeConfig {
            queue_capacity: 32,
            max_batch_delay: 2,
            workers: WORKERS,
            intra_batch_threads: 1,
        },
    );
    let keys = [
        ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2()),
        ModelKey::new("AlexNet-Tiny", NetPrecision::Apnn { w: 2, a: 2 }),
    ];
    // Warm the plans so the counter window covers serving only.
    for key in &keys {
        server.registry().get(key).unwrap();
    }

    let created0 = stats::workspace_creates();
    for round in 0..ROUNDS {
        let tickets: Vec<_> = (0..PER_ROUND)
            .flat_map(|i| {
                let server = &server;
                keys.iter().map(move |key| {
                    server
                        .submit_request(Request::new(
                            key.clone(),
                            image((round * PER_ROUND + i) as u64),
                        ))
                        .unwrap()
                })
            })
            .collect();
        for t in &tickets {
            t.wait().unwrap();
        }
    }
    server.wait_idle();
    let stats_snapshot = server.stats();
    let created = stats::workspace_creates() - created0;

    // Many batches ran…
    assert_eq!(stats_snapshot.completed as usize, ROUNDS * PER_ROUND * 2);
    assert!(
        stats_snapshot.batches as usize >= ROUNDS,
        "expected many dispatches, got {}",
        stats_snapshot.batches
    );
    // …but workspaces were built at most once per (worker, plan) pair, and
    // at least one worker served each plan.
    assert!(
        (keys.len()..=WORKERS * keys.len()).contains(&(created as usize)),
        "expected between {} and {} workspace builds, got {created} \
         (workers are not reusing their workspaces)",
        keys.len(),
        WORKERS * keys.len()
    );
    assert!(
        (created as u64) < stats_snapshot.batches,
        "fewer workspace builds ({created}) than batches ({}) expected",
        stats_snapshot.batches
    );
    drop(server);

    // A second identical server builds its own workspaces — the counter is
    // alive, and per-server reuse starts over.
    let server = Server::new(
        PlanRegistry::zoo(4, 31),
        ServeConfig {
            queue_capacity: 32,
            max_batch_delay: 0,
            workers: 1,
            intra_batch_threads: 1,
        },
    );
    let before = stats::workspace_creates();
    let t = server
        .submit_request(Request::new(keys[0].clone(), image(1)))
        .unwrap();
    t.wait().unwrap();
    server.wait_idle();
    assert_eq!(stats::workspace_creates() - before, 1);
}
