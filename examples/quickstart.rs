//! Quickstart: an arbitrary-precision GEMM in five steps.
//!
//! Packs a w1a2 fully connected layer (1-bit ±1 weights, 2-bit unsigned
//! activations), runs the functional APMM engine, verifies it against the
//! naive i32 oracle, and prints the simulated RTX 3090 latency next to the
//! cutlass/cublas baselines — the paper's Table 4 workload.
//!
//! Run with: `cargo run --release --example quickstart`

use apnn_tc::kernels::baselines::gemm::gemm_report;
use apnn_tc::kernels::baselines::BaselineKind;
use apnn_tc::kernels::reference::gemm_i32;
use apnn_tc::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    // The paper's "typical fully-connected layer": batch M = 64,
    // K = N = 1024 (Table 4).
    let (m, n, k) = (64, 1024, 1024);
    let mut rng = SmallRng::seed_from_u64(7);

    // 1. Quantized operands: ±1 weights (1 bit), unsigned 2-bit activations.
    let w_vals: Vec<i32> = (0..m * k)
        .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
        .collect();
    let x_codes: Vec<u32> = (0..n * k).map(|_| rng.gen_range(0..4)).collect();

    // 2. Bit-plane decomposition (§3.1 of the paper).
    let w = BitPlanes::from_signed_binary(&w_vals, m, k);
    let x = BitPlanes::from_codes(&x_codes, n, k, 2, Encoding::ZeroOne);

    // 3. Build the kernel — the §4.3 autotuner picks the tile configuration.
    let desc = ApmmDesc::w1aq(m, n, k, 2, Encoding::ZeroOne);
    let apmm = Apmm::new(desc);
    println!(
        "autotuned tile: bm={} bn={} bk={} (grid = {} blocks)",
        apmm.tile.bm,
        apmm.tile.bn,
        apmm.tile.bk,
        apmm.tile.grid_blocks(desc.batched_m(), desc.batched_n())
    );

    // 4. Pack the weights once into the kernel's layout (§4.1), then run
    //    the functional engine and verify it against the i32 oracle.
    let y = apmm.prepare(w).execute(&x);
    let x_vals: Vec<i32> = x_codes.iter().map(|&c| c as i32).collect();
    let y_ref = gemm_i32(&w_vals, &x_vals, m, n, k);
    assert_eq!(y, y_ref, "APMM output must match the full-precision oracle");
    println!(
        "functional check: OK ({}x{} outputs, w1a2 == i32 oracle)",
        m, n
    );

    // 5. Simulated RTX 3090 latency vs library baselines (Table 4's shape).
    let spec = GpuSpec::rtx3090();
    let ours = apmm.simulate(&spec);
    let int4 = gemm_report(BaselineKind::CutlassInt4, m, n, k, &spec);
    let int1 = gemm_report(BaselineKind::CutlassInt1, m, n, k, &spec);
    let int8 = gemm_report(BaselineKind::CublasInt8, m, n, k, &spec);

    println!("\nsimulated latency, RTX 3090 (paper Table 4 workload):");
    println!(
        "  APMM-w1a2        {:8.2} us  (bound: {:?})",
        ours.time_us(),
        ours.cost.bound
    );
    println!("  cutlass-gemm-int1{:8.2} us", int1.time_us());
    println!("  cutlass-gemm-int4{:8.2} us", int4.time_us());
    println!("  cublas-gemm-int8 {:8.2} us", int8.time_us());
    println!(
        "\nspeedup over int4: {:.2}x   over int1: {:.2}x",
        int4.time_us() / ours.time_us(),
        int1.time_us() / ours.time_us()
    );
}
