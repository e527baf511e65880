//! Quickstart for the serving tier: stand up a multi-model dynamic-batching
//! server over compiled plans, push concurrent traffic through it, and read
//! the serving stats.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::nn::NetPrecision;
use apnn_tc::serve::{ModelKey, PlanRegistry, Request, ServeConfig, Server};

fn image(seed: usize) -> BitTensor4 {
    let codes = Tensor4::<u32>::from_fn(1, 3, 32, 32, Layout::Nhwc, |_, c, h, w| {
        ((seed * 131 + 3 * c + 5 * h + 7 * w) % 256) as u32
    });
    BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
}

fn main() {
    // A registry of model builders; plans compile lazily, once per
    // (model, precision) key, at batch 4 with a fixed weight seed.
    let registry = PlanRegistry::zoo(4, 2021);
    let server = Server::new(
        registry,
        ServeConfig {
            queue_capacity: 32,
            max_batch_delay: 4, // wait up to 4 further submissions for fill
            workers: 2,
            intra_batch_threads: 1,
        },
    );

    // Two models, two precisions, interleaved traffic — the server groups
    // requests per key and coalesces them into compiled-batch shards.
    let keys = [
        ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2()),
        ModelKey::new("AlexNet-Tiny", NetPrecision::Apnn { w: 2, a: 2 }),
    ];
    let tickets: Vec<_> = (0..8)
        .flat_map(|i| {
            keys.iter()
                .map(move |key| (key.clone(), i))
                .collect::<Vec<_>>()
        })
        .map(|(key, i)| {
            let ticket = server
                .submit_request(Request::new(key.clone(), image(i)))
                .expect("submit");
            (key, i, ticket)
        })
        .collect();

    for (key, i, ticket) in &tickets {
        let logits = ticket.wait().expect("inference");
        let top = logits
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| *v)
            .map(|(c, _)| c)
            .unwrap();
        println!("{key} request {i}: class {top} (logits {logits:?})");
    }

    server.wait_idle();
    let stats = server.stats();
    println!(
        "\nserved {} requests in {} batches (mean fill {:.2}); \
         p50/p99 queueing latency {}/{} ticks; \
         {} plans compiled, {} warm cache hits",
        stats.completed,
        stats.batches,
        stats.mean_fill(),
        stats.p50_latency_ticks,
        stats.p99_latency_ticks,
        stats.plan_compiles,
        stats.plan_hits,
    );
}
