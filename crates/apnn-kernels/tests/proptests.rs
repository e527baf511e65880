//! Property-based tests for the kernel layer: autotuner contract, estimator
//! invariants, epilogue safety.

use apnn_bitpack::{BitPlanes, BitTensor4, Encoding, Layout, PopcntArm, Tensor4};
use apnn_kernels::apconv::cpu::ConvScratch;
use apnn_kernels::apconv::{ApConv, ConvDesc, ConvWeights};
use apnn_kernels::apmm::cpu::ApmmScratch;
use apnn_kernels::apmm::{simmap, Apmm, ApmmDesc, TileConfig};
use apnn_kernels::autotune::{
    autotune, compute_intensity, thread_level_parallelism, MicroTile, TILE_CANDIDATES,
    TLP_THRESHOLD,
};
use apnn_kernels::emulate::decoded_reference;
use apnn_kernels::fusion::Epilogue;
use apnn_kernels::reference::conv2d_i32;
use apnn_kernels::select::plan_for_device;
use apnn_sim::GpuSpec;
use proptest::prelude::*;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn operand(rows: usize, cols: usize, bits: u32, signed: bool, seed: &mut u64) -> BitPlanes {
    if signed {
        let vals: Vec<i32> = (0..rows * cols)
            .map(|_| if lcg(seed) & 1 == 0 { -1 } else { 1 })
            .collect();
        BitPlanes::from_signed_binary(&vals, rows, cols)
    } else {
        let codes: Vec<u32> = (0..rows * cols)
            .map(|_| (lcg(seed) as u32) % (1 << bits))
            .collect();
        BitPlanes::from_codes(&codes, rows, cols, bits, Encoding::ZeroOne)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The §4.3.2 contract: the chosen tile is a candidate pair; if any
    /// candidate clears the TLP threshold, the chosen one clears it too and
    /// has the maximum CI among those that do; otherwise the chosen one has
    /// maximum TLP.
    #[test]
    fn autotune_respects_its_specification(
        m in 1usize..5000, n in 1usize..5000, p in 1u32..=8, q in 1u32..=8,
    ) {
        let t = autotune(m, n, 128, p, q);
        prop_assert!(TILE_CANDIDATES.contains(&t.bm));
        prop_assert!(TILE_CANDIDATES.contains(&t.bn));

        let tlp_of = |bm, bn| thread_level_parallelism(m, n, p, q, bm, bn);
        let any_above = TILE_CANDIDATES.iter().any(|&bm| {
            TILE_CANDIDATES.iter().any(|&bn| tlp_of(bm, bn) >= TLP_THRESHOLD)
        });
        if any_above {
            prop_assert!(tlp_of(t.bm, t.bn) >= TLP_THRESHOLD);
            for &bm in &TILE_CANDIDATES {
                for &bn in &TILE_CANDIDATES {
                    if tlp_of(bm, bn) >= TLP_THRESHOLD {
                        prop_assert!(
                            compute_intensity(t.bm, t.bn) >= compute_intensity(bm, bn),
                            "chosen ({},{}) has lower CI than ({bm},{bn})", t.bm, t.bn
                        );
                    }
                }
            }
        } else {
            for &bm in &TILE_CANDIDATES {
                for &bn in &TILE_CANDIDATES {
                    prop_assert!(tlp_of(t.bm, t.bn) >= tlp_of(bm, bn));
                }
            }
        }
    }

    /// Estimator structural invariants: MAC count matches the closed form,
    /// packed stores never exceed i32 stores, latency positive.
    #[test]
    fn estimator_invariants(
        m in 1usize..600, n in 1usize..600, k in 1usize..2000,
        p in 1u32..=4, q in 1u32..=4,
        out_bits in 1u32..=8,
    ) {
        let spec = GpuSpec::rtx3090();
        let desc = ApmmDesc::unsigned(m, n, k, p, q);
        let apmm = Apmm::new(desc);
        let plain = simmap::estimate(&desc, &apmm.tile, &spec, None);

        // MACs: grid × ksteps × fragment count × 8192.
        let grid = apmm.tile.grid_blocks(desc.batched_m(), desc.batched_n()) as u64;
        let ksteps = (desc.k_padded() / apmm.tile.bk) as u64;
        let frags = ((apmm.tile.bm / 8) * (apmm.tile.bn / 8) * (apmm.tile.bk / 128)) as u64;
        prop_assert_eq!(plain.counters.tc_macs, grid * ksteps * frags * 8192);

        // Emulated MACs never below the logical p·q·M·N·K_pad (padding only
        // adds work).
        prop_assert!(plain.counters.tc_macs >= desc.emulated_macs());

        // Fused packed output strictly reduces store traffic.
        let epi = Epilogue::quantize(4.0, 0.0, out_bits);
        let fused = simmap::estimate(&desc, &apmm.tile, &spec, Some(&epi));
        prop_assert!(fused.counters.global_store_bytes <= plain.counters.global_store_bytes);
        prop_assert!(plain.time_s() > 0.0 && fused.time_s() > 0.0);
    }

    /// The epilogue never emits codes outside the declared width, for any
    /// accumulator value including extremes.
    #[test]
    fn epilogue_codes_always_in_range(
        acc in any::<i32>(),
        scale in 0.001f32..1000.0,
        zp in -1000.0f32..1000.0,
        bits in 1u32..=8,
    ) {
        let epi = Epilogue::quantize(scale, zp, bits);
        let code = epi.apply_to_code(acc, 0);
        prop_assert!(code < (1u32 << bits));
    }

    /// Bigger tiles never lower the CI model, and the TLP model is exactly
    /// inversely proportional to tile area.
    #[test]
    fn performance_model_algebra(
        m in 1usize..4096, n in 1usize..4096, p in 1u32..=8, q in 1u32..=8,
        bm in prop_oneof![Just(16usize), Just(32), Just(64)],
        bn in prop_oneof![Just(16usize), Just(32), Just(64)],
    ) {
        prop_assert!(compute_intensity(2 * bm, bn) >= compute_intensity(bm, bn));
        let t1 = thread_level_parallelism(m, n, p, q, bm, bn);
        let t2 = thread_level_parallelism(m, n, p, q, 2 * bm, bn);
        prop_assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    /// The microkernel differential: for any shape, any encoding pair
    /// (all seven `EmulationCase`s — the four Ampere cases plus the three
    /// XOR-only derivations), any row-block size, every available
    /// popcount arm and any partial (down to zero-row) shard, the one
    /// driver is **bit-identical** to the naive decoded i32 oracle —
    /// through the allocating wrapper and the workspace form alike.
    #[test]
    fn microkernel_matches_oracle_across_cases_blocks_and_shards(
        m in 1usize..14, n in 1usize..22, k in 1usize..280,
        p in 1u32..=4, q in 1u32..=4,
        w_signed in any::<bool>(), x_signed in any::<bool>(),
        xor_only in any::<bool>(),
        jb in 1usize..=8,
        shard_sel in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let (p, q) = (if w_signed { 1 } else { p }, if x_signed { 1 } else { q });
        let (w_enc, x_enc) = (
            if w_signed { Encoding::PlusMinusOne } else { Encoding::ZeroOne },
            if x_signed { Encoding::PlusMinusOne } else { Encoding::ZeroOne },
        );
        let mut seed = seed;
        let w = operand(m, k, p, w_signed, &mut seed);
        let x = operand(n, k, q, x_signed, &mut seed);
        let desc = ApmmDesc { m, n, k, w_bits: p, x_bits: q, w_enc, x_enc };
        let oracle = decoded_reference(&w, &x);

        let apmm = Apmm::new(desc);

        // Prepared path on a partial shard, Ampere or XOR-only (Turing)
        // plan: `with_plan` must rebuild the weight-row sums the XOR
        // derivations consume.
        let eplan = plan_for_device(w_enc, x_enc, !xor_only);
        let shard = shard_sel % (n + 1);
        let xs = if x_signed {
            BitPlanes::from_signed_binary(&x.values()[..shard * k], shard, k)
        } else {
            BitPlanes::from_codes(&x.reconstruct_codes()[..shard * k], shard, k, q, x_enc)
        };
        let mut scratch = ApmmScratch::default();
        let mut out = Vec::new();
        for arm in PopcntArm::available() {
            let prepared = apmm
                .prepare(w.clone())
                .with_plan(eplan)
                .with_micro(MicroTile { jb })
                .with_arm(arm);
            let got = prepared.execute(&xs);
            prepared.execute_into(&xs, &mut scratch, &mut out);
            prop_assert_eq!(&got, &out, "wrapper vs workspace form, shard={}", shard);
            prop_assert_eq!(got.len(), m * shard);
            for (idx, &v) in got.iter().enumerate() {
                prop_assert_eq!(
                    v, oracle[idx / shard * n + idx % shard],
                    "{:?} jb={} arm={} shard={}", eplan.case, jb, arm.label(), shard
                );
            }
        }
    }

    /// The conv form of the differential: any stride/pad geometry, any
    /// encoding pair, any pixel-block size, every available popcount arm and any partial (down to
    /// zero-image) shard equals the naive conv oracle.
    #[test]
    fn conv_microkernel_matches_oracle_across_blocks_and_shards(
        batch in 1usize..3,
        // One live word per pixel, and channel counts straddling the word
        // and fragment boundaries.
        cin in prop_oneof![1usize..6, 63usize..67, 127usize..131],
        hw in 3usize..8,
        cout in 1usize..10, kk in 1usize..=3,
        stride in 1usize..=2, pad in 0usize..=1,
        p in 1u32..=3, q in 1u32..=3,
        w_signed in any::<bool>(), x_signed in any::<bool>(),
        jb in 1usize..=8,
        seed in any::<u64>(),
    ) {
        prop_assume!(hw + 2 * pad >= kk);
        let (p, q) = (if w_signed { 1 } else { p }, if x_signed { 1 } else { q });
        let mut desc = ConvDesc::unsigned(batch, cin, hw, cout, kk, stride, pad, p, q);
        if w_signed { desc.w_enc = Encoding::PlusMinusOne; }
        if x_signed { desc.x_enc = Encoding::PlusMinusOne; }
        let mut seed = seed;

        // Packed input + decoded NHWC values for the oracle.
        let codes = Tensor4::<u32>::from_fn(batch, cin, hw, hw, Layout::Nhwc, |_, _, _, _| {
            (lcg(&mut seed) as u32) % (1 << q)
        });
        let input = BitTensor4::from_tensor(&codes, q, desc.x_enc);
        let mut x_vals = vec![0i32; batch * hw * hw * cin];
        for b in 0..batch {
            for y in 0..hw {
                for xx in 0..hw {
                    for c in 0..cin {
                        x_vals[((b * hw + y) * hw + xx) * cin + c] =
                            desc.x_enc.code_value(codes.get(b, c, y, xx), q);
                    }
                }
            }
        }
        let n_w = cout * kk * kk * cin;
        let w_codes: Vec<u32> = (0..n_w)
            .map(|_| (lcg(&mut seed) as u32) % (1 << p))
            .collect();
        let weights = ConvWeights::from_codes(&desc, &w_codes);
        let w_vals: Vec<i32> = w_codes.iter().map(|&c| desc.w_enc.code_value(c, p)).collect();
        let oracle = conv2d_i32(
            &x_vals, &w_vals, batch, hw, hw, cin, cout, kk, kk, stride, pad,
        );

        let conv = ApConv::new(desc);

        // Prepared path on a partial (down to zero-image) shard, on every
        // available arm.
        let shard = (seed as usize) % (batch + 1);
        let xs = input.batch_slice(0, shard);
        let (oh, ow) = (desc.out_h(), desc.out_w());
        let want = &oracle[..shard * oh * ow * cout];
        let mut scratch = ConvScratch::default();
        let mut out = Vec::new();
        for arm in PopcntArm::available() {
            let prepared = conv
                .prepare(weights.clone())
                .with_micro(MicroTile { jb })
                .with_arm(arm);
            prepared.execute_into(&xs, &mut scratch, &mut out);
            prop_assert_eq!(
                &out[..], want,
                "conv jb={} arm={} shard={}", jb, arm.label(), shard
            );
            prop_assert_eq!(&prepared.execute(&xs), &out, "wrapper vs workspace form");
        }
    }

    /// Latency estimates are monotone in every problem dimension.
    #[test]
    fn estimates_monotone_in_shape(
        m in 8usize..256, n in 8usize..256, k in 128usize..1024,
    ) {
        let spec = GpuSpec::rtx3090();
        let tile = TileConfig::new(32, 32);
        let t = |m, n, k| {
            simmap::estimate(&ApmmDesc::unsigned(m, n, k, 2, 2), &tile, &spec, None).time_s()
        };
        let base = t(m, n, k);
        prop_assert!(t(4 * m, n, k) >= base);
        prop_assert!(t(m, 4 * n, k) >= base);
        prop_assert!(t(m, n, 4 * k) >= base);
    }
}
