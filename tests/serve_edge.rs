//! Edge cases the serving path must survive: partial shards smaller than
//! the compiled batch, remainder shards of size 1, degenerate batch
//! slices/gathers, and shutdown/drain behaviour of the queue.

use std::sync::mpsc;
use std::time::Duration;

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::nn::NetPrecision;
use apnn_tc::serve::{ModelKey, PlanRegistry, Request, ServeConfig, Server};

const SEED: u64 = 404;

fn images(n: usize) -> BitTensor4 {
    let codes = Tensor4::<u32>::from_fn(n, 3, 32, 32, Layout::Nhwc, |b, c, h, w| {
        ((31 * b + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
}

fn vgg_key() -> ModelKey {
    ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2())
}

/// Fail the test instead of hanging forever if `f` deadlocks.
fn with_deadline(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what} deadlocked (30s deadline)"));
}

#[test]
fn batches_smaller_than_the_compiled_batch_execute() {
    let plan = PlanRegistry::zoo(4, SEED).get(&vgg_key()).unwrap();
    assert_eq!(plan.batch(), 4);
    let input = images(3);
    // n = 1, 2, 3 < compiled batch 4: partial-shard kernels, no padding
    // requests needed — and every partial width agrees with per-image
    // inference.
    for n in 1..=3usize {
        let part = input.batch_slice(0, n);
        let logits = plan.infer(&part);
        for i in 0..n {
            assert_eq!(
                &logits[i * plan.classes()..(i + 1) * plan.classes()],
                &plan.infer(&input.batch_slice(i, 1))[..],
                "n={n}, image {i}"
            );
        }
    }
}

#[test]
fn remainder_shard_of_size_one() {
    let plan = PlanRegistry::zoo(4, SEED).get(&vgg_key()).unwrap();
    // One participant cuts batch-wide shards, so the trailing one holds
    // exactly 1 image whatever the core count.
    let n = 2 * plan.batch() + 1;
    let input = images(n);
    let mut flat = Vec::new();
    plan.infer_batched_into(&input, &plan.workspace_pool(1), 1, &mut flat);
    let classes = plan.classes();
    for i in 0..n {
        assert_eq!(
            &flat[i * classes..(i + 1) * classes],
            &plan.infer(&input.batch_slice(i, 1))[..],
            "image {i}"
        );
    }
}

#[test]
fn degenerate_slices_and_gathers() {
    let input = images(4);
    // Full-range slice is the identity; zero-length slices are legal at
    // any valid offset (including one-past-the-end).
    assert_eq!(input.batch_slice(0, 4), input);
    assert_eq!(input.batch_slice(2, 0).shape().0, 0);
    assert_eq!(input.batch_slice(4, 0).shape().0, 0);
    // A gather can reverse and repeat; inference on the gathered batch
    // permutes with it.
    let plan = PlanRegistry::zoo(4, SEED).get(&vgg_key()).unwrap();
    let rev = input.batch_gather(&[3, 2, 1, 0]);
    let classes = plan.classes();
    let fwd = plan.infer(&input);
    let bwd = plan.infer(&rev);
    for i in 0..4 {
        assert_eq!(
            &fwd[i * classes..(i + 1) * classes],
            &bwd[(3 - i) * classes..(4 - i) * classes],
            "image {i}"
        );
    }
}

#[test]
fn empty_queue_shutdown_does_not_deadlock() {
    with_deadline("empty-queue shutdown", || {
        let server = Server::new(
            PlanRegistry::zoo(4, SEED),
            ServeConfig {
                queue_capacity: 8,
                max_batch_delay: 1_000_000, // workers would wait ~forever for fill
                workers: 8,
                intra_batch_threads: 1,
            },
        );
        server.wait_idle(); // empty queue: returns immediately
        drop(server); // must join all 8 workers without a single request
    });
}

#[test]
fn shutdown_drains_queued_requests() {
    with_deadline("drain on shutdown", || {
        let server = Server::new(
            PlanRegistry::zoo(4, SEED),
            ServeConfig {
                queue_capacity: 16,
                max_batch_delay: 1_000_000, // dispatch only via drain/backstop
                workers: 1,
                intra_batch_threads: 1,
            },
        );
        let key = vgg_key();
        let plan = server.registry().get(&key).unwrap();
        let input = images(5);
        let tickets: Vec<_> = (0..5)
            .map(|i| {
                server
                    .submit_request(Request::new(key.clone(), input.batch_slice(i, 1)))
                    .unwrap()
            })
            .collect();
        // Drop with work still queued: every accepted request must still
        // complete with correct logits.
        drop(server);
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(t.wait().unwrap(), plan.infer(&input.batch_slice(i, 1)));
        }
    });
}

#[test]
fn bounded_queue_applies_backpressure_without_losing_requests() {
    with_deadline("backpressure", || {
        let server = Server::new(
            PlanRegistry::zoo(4, SEED),
            ServeConfig {
                queue_capacity: 2, // far below the request count
                max_batch_delay: 0,
                workers: 2,
                intra_batch_threads: 1,
            },
        );
        let key = vgg_key();
        let input = images(10);
        let tickets: Vec<_> = (0..10)
            .map(|i| {
                server
                    .submit_request(Request::new(key.clone(), input.batch_slice(i, 1)))
                    .unwrap()
            })
            .collect();
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        server.wait_idle();
        let stats = server.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        // Fill histogram accounts for every request exactly once.
        let total: u64 = stats.batch_fill.iter().map(|&(f, c)| f as u64 * c).sum();
        assert_eq!(total, 10);
        assert!(stats.max_latency_ticks <= 10);
    });
}
