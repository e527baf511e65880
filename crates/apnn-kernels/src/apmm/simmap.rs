//! Mapping APMM onto the simulated GPU: counters + latency.
//!
//! Two paths produce *identical* counters for the same tiling:
//!
//! * [`estimate`] — closed-form, O(grid) time, used for latency projections
//!   at any problem size.
//! * [`run_functional`] — executes the tiled algorithm block by block with
//!   real `bmma` fragment arithmetic, recording events as it goes. Tests
//!   assert its counters equal [`estimate`]'s and its output equals the CPU
//!   backend, which pins the cost model to the actual algorithm.
//!
//! The kernel structure follows §4.1: every K-step a block stages a
//! `bm×bk` weight tile and `bn×bk` feature tile of the *batched* operands in
//! shared memory (cooperative load), warps fetch fragments (W tiles are read
//! by the 2 warp columns, X tiles by the 4 warp rows), and `bmma` results
//! accumulate in persistent register fragments (double caching). After the
//! K loop the `p·q` plane partials — co-resident thanks to the interleaved
//! batch mapping — are reduced with shift-adds and the epilogue runs before
//! a single store per output element.

use apnn_bitpack::word::WORD_BITS;
use apnn_bitpack::{BitPlanes, Encoding};
use apnn_sim::bmma::WORDS_PER_ROW;
use apnn_sim::{
    bmma_8x8x128, launch, Coalescing, Counters, GpuSpec, KernelConfig, KernelReport, Precision,
    BMMA_K, BMMA_M, BMMA_N,
};

use super::{ApmmDesc, FusedOutput, TileConfig};
use crate::fusion::Epilogue;
use crate::select::{adjust_partial, EmulationCase};

/// Fraction of peak tensor-core throughput the APMM kernel reaches on a
/// fully occupied SM. Fig. 12 of the paper shows APMM-w1a1 beating
/// cutlass-gemm-int1 by ≈1.35×; with cutlass-int1 calibrated near 0.60
/// (below), this constant reproduces that gap.
pub const APMM_TC_EFFICIENCY: f64 = 0.82;

/// Integer-ALU ops charged per element per plane for in-kernel bit
/// decomposition (shift + mask + ballot-amortized pack).
pub const DECOMPOSE_OPS_PER_ELEM: u64 = 3;

/// Launch configuration shared by the estimate and functional paths.
pub fn kernel_config(desc: &ApmmDesc, tile: &TileConfig) -> KernelConfig {
    KernelConfig {
        grid_blocks: tile.grid_blocks(desc.batched_m(), desc.batched_n()),
        warps_per_block: TileConfig::WARPS,
        shmem_per_block: tile.shmem_bytes(),
        regs_per_thread: 64,
        precision: Precision::Int1,
        efficiency: APMM_TC_EFFICIENCY,
    }
}

/// Per-(block,K-step) tile-loading traffic in bytes:
/// `(w_tile, x_tile, shmem_write, shmem_read)`.
fn tile_traffic(tile: &TileConfig) -> (u64, u64, u64, u64) {
    let w_bits = (tile.bm * tile.bk) as u64;
    let x_bits = (tile.bn * tile.bk) as u64;
    let w_bytes = w_bits / 8;
    let x_bytes = x_bits / 8;
    let sh_write = w_bytes + x_bytes;
    // W fragments are fetched by the 2 warp columns, X fragments by the 4
    // warp rows (4×2 warp grid, §4.3).
    let sh_read = (2 * w_bits + 4 * x_bits) / 8;
    (w_bytes, x_bytes, sh_write, sh_read)
}

/// Outputs finalized by block row `bi` (resp. column `bj`): the count of
/// actual indices whose *last* plane partial lands in this tile under the
/// interleaved batch mapping.
fn covered(actual: usize, planes: usize, tile: usize, block: usize) -> usize {
    let lo = block * tile;
    let hi = ((block + 1) * tile).min(planes * actual);
    if hi <= lo {
        return 0;
    }
    hi / planes - lo / planes
}

/// Closed-form counters + latency for the APMM kernel.
///
/// `epi = None` stores raw i32; `Some(epilogue)` fuses the element-wise
/// chain, and if it ends in quantization the stores shrink to `q`-bit packed
/// codes (§5.1 minimal-traffic dataflow).
pub fn estimate(
    desc: &ApmmDesc,
    tile: &TileConfig,
    spec: &GpuSpec,
    epi: Option<&Epilogue>,
) -> KernelReport {
    estimate_with_efficiency(desc, tile, spec, epi, APMM_TC_EFFICIENCY)
}

/// [`estimate`] with an explicit kernel-efficiency factor (prior-work
/// binary-kernel modeling).
pub fn estimate_with_efficiency(
    desc: &ApmmDesc,
    tile: &TileConfig,
    spec: &GpuSpec,
    epi: Option<&Epilogue>,
    efficiency: f64,
) -> KernelReport {
    let mut cfg = kernel_config(desc, tile);
    cfg.efficiency = efficiency;
    let grid_m = desc.batched_m().div_ceil(tile.bm);
    let grid_n = desc.batched_n().div_ceil(tile.bn);
    let grid = (grid_m * grid_n) as u64;
    let k_steps = (desc.k_padded() / tile.bk) as u64;

    let mut c = Counters::default();
    let (wb, xb, sw, sr) = tile_traffic(tile);
    c.global_load_bytes = grid * k_steps * (wb + xb);
    // DRAM sees each operand tile once (first-touch by the first block
    // row/column); the remaining (grid-1)/grid of tile loads hit L2.
    c.global_sectors =
        (grid_m as u64 * k_steps * wb).div_ceil(32) + (grid_n as u64 * k_steps * xb).div_ceil(32);
    c.shmem_bytes = grid * k_steps * (sw + sr);
    c.syncs = grid * k_steps;

    let frags_per_step = ((tile.bm / BMMA_M) * (tile.bn / BMMA_N) * (tile.bk / BMMA_K)) as u64;
    c.bmma_ops = grid * k_steps * frags_per_step;
    c.tc_macs = c.bmma_ops * apnn_sim::bmma::MACS_PER_BMMA;

    // Bit combination: one shift-add per batched partial, staged through
    // shared memory (write + read of each 4-byte partial).
    c.cuda_int_ops = grid * (tile.bm * tile.bn) as u64;
    c.shmem_bytes += grid * (tile.bm * tile.bn * 8) as u64;

    // Per-output epilogue + stores.
    let outputs = (desc.m * desc.n) as u64;
    let (epi_int, epi_fp) = epi.map(|e| e.cost_per_element()).unwrap_or((0, 0));
    let out_bits = epi.and_then(|e| e.output_bits());
    let pack_int = out_bits.map(|b| b as u64).unwrap_or(0);
    c.cuda_int_ops += outputs * (epi_int + pack_int);
    c.cuda_flops += outputs * epi_fp;

    // Stores are accounted per block with exactly the formulas the
    // functional path uses, so the two paths' counters stay bit-identical.
    let row_counts: Vec<usize> = (0..grid_m)
        .map(|bi| covered(desc.m, desc.w_bits as usize, tile.bm, bi))
        .collect();
    let col_counts: Vec<usize> = (0..grid_n)
        .map(|bj| covered(desc.n, desc.x_bits as usize, tile.bn, bj))
        .collect();
    for &cr in &row_counts {
        for &cc in &col_counts {
            let n_out = (cr * cc) as u64;
            let bytes = match out_bits {
                None => n_out * 4,
                Some(bits) => (n_out * bits as u64).div_ceil(8),
            };
            c.global_store_bytes += bytes;
            c.global_sectors += bytes.div_ceil(32);
        }
    }

    launch::finish(spec, &cfg, c)
}

/// Execute the tiled kernel functionally through the simulator.
///
/// Requires `p | bm` and `q | bn` (the interleaved batch mapping then makes
/// every block plane-complete, enabling the fully fused bit combination).
/// Returns the output and the kernel report whose counters are, by
/// construction, identical to [`estimate`]'s.
#[allow(clippy::needless_range_loop)] // s/t indexing mirrors the paper's Σ_{s,t}
pub fn run_functional(
    desc: &ApmmDesc,
    tile: &TileConfig,
    spec: &GpuSpec,
    w: &BitPlanes,
    x: &BitPlanes,
    epi: Option<&Epilogue>,
) -> (FusedOutput, KernelReport) {
    desc.check_operands(w, x);
    let p = desc.w_bits as usize;
    let q = desc.x_bits as usize;
    assert_eq!(tile.bm % p, 0, "p must divide bm for the fused combination");
    assert_eq!(tile.bn % q, 0, "q must divide bn for the fused combination");

    let cfg = kernel_config(desc, tile);
    let grid_n = desc.batched_n().div_ceil(tile.bn);
    let k_steps = desc.k_padded() / tile.bk;
    let words_per_step = tile.bk / WORD_BITS;
    let eplan = desc.plan();
    let k_valid = desc.k as i32;

    // Correction vectors.
    let needs_col = eplan.case == EmulationCase::AndWeightTransformed;
    let needs_row = eplan.case == EmulationCase::AndActivationTransformed;
    let x_col_sums: Vec<Vec<i32>> = if needs_col {
        (0..desc.x_bits).map(|t| x.plane(t).row_sums()).collect()
    } else {
        Vec::new()
    };
    let w_row_sums: Vec<Vec<i32>> = if needs_row {
        (0..desc.w_bits).map(|s| w.plane(s).row_sums()).collect()
    } else {
        Vec::new()
    };

    let out_bits = epi.and_then(|e| e.output_bits());
    let (epi_int, epi_fp) = epi.map(|e| e.cost_per_element()).unwrap_or((0, 0));
    let pack_int = out_bits.map(|b| b as u64).unwrap_or(0);

    let mut y_i32 = vec![0i32; desc.m * desc.n];
    let mut codes_t = vec![0u32; desc.n * desc.m]; // transposed packed codes

    let (wb, xb, sw, sr) = tile_traffic(tile);
    let frag_cols = tile.bn / BMMA_N;
    let frags_per_block = (tile.bm / BMMA_M) * frag_cols;

    let report = launch(spec, &cfg, |block, ctx| {
        let bi = block / grid_n;
        let bj = block % grid_n;
        let row0 = bi * tile.bm; // batched
        let col0 = bj * tile.bn; // batched

        // Persistent accumulator fragments (register double caching §4.1(a)).
        let mut c_frags = vec![[0i32; BMMA_M * BMMA_N]; frags_per_block];
        let mut a_frag = [0u64; BMMA_M * WORDS_PER_ROW];
        let mut b_frag = [0u64; BMMA_N * WORDS_PER_ROW];

        for ks in 0..k_steps {
            // First-touch loads stream from DRAM; later block rows/columns
            // re-load the same operand tiles out of L2.
            if bj == 0 {
                ctx.global_load(wb, Coalescing::Coalesced);
            } else {
                ctx.global_load_cached(wb);
            }
            if bi == 0 {
                ctx.global_load(xb, Coalescing::Coalesced);
            } else {
                ctx.global_load_cached(xb);
            }
            ctx.shmem(sw + sr);
            ctx.sync();
            let word_off = ks * words_per_step;
            for fi in 0..tile.bm / BMMA_M {
                for fj in 0..frag_cols {
                    // Gather the A fragment from the interleaved batched rows.
                    for ri in 0..BMMA_M {
                        let r = row0 + fi * BMMA_M + ri;
                        let dst = &mut a_frag[ri * WORDS_PER_ROW..(ri + 1) * WORDS_PER_ROW];
                        if r < desc.batched_m() {
                            let (i, s) = (r / p, r % p);
                            dst.copy_from_slice(w.plane(s as u32).row_word_slice(
                                i,
                                word_off,
                                WORDS_PER_ROW,
                            ));
                        } else {
                            dst.fill(0);
                        }
                    }
                    for cj in 0..BMMA_N {
                        let cc = col0 + fj * BMMA_N + cj;
                        let dst = &mut b_frag[cj * WORDS_PER_ROW..(cj + 1) * WORDS_PER_ROW];
                        if cc < desc.batched_n() {
                            let (j, t) = (cc / q, cc % q);
                            dst.copy_from_slice(x.plane(t as u32).row_word_slice(
                                j,
                                word_off,
                                WORDS_PER_ROW,
                            ));
                        } else {
                            dst.fill(0);
                        }
                    }
                    bmma_8x8x128(
                        &a_frag,
                        &b_frag,
                        &mut c_frags[fi * frag_cols + fj],
                        eplan.op,
                    );
                }
            }
            ctx.bmma((frags_per_block * (tile.bk / BMMA_K)) as u64);
        }

        // Bit combination (in-shmem reduce) + epilogue + store.
        ctx.cuda_int_ops((tile.bm * tile.bn) as u64);
        ctx.shmem((tile.bm * tile.bn * 8) as u64);

        let oi_lo = row0 / p;
        let oi_hi = ((row0 + tile.bm).min(desc.batched_m())) / p;
        let oj_lo = col0 / q;
        let oj_hi = ((col0 + tile.bn).min(desc.batched_n())) / q;
        let n_out = ((oi_hi - oi_lo) * (oj_hi - oj_lo)) as u64;

        for oi in oi_lo..oi_hi {
            for oj in oj_lo..oj_hi {
                let mut acc = 0i32;
                for s in 0..p {
                    for t in 0..q {
                        let r = oi * p + s - row0;
                        let cc = oj * q + t - col0;
                        let frag = &c_frags[(r / BMMA_M) * frag_cols + cc / BMMA_N];
                        let popc = frag[(r % BMMA_M) * BMMA_N + cc % BMMA_N];
                        let adj = adjust_partial(
                            eplan.case,
                            popc,
                            k_valid,
                            if needs_row { w_row_sums[s][oi] } else { 0 },
                            if needs_col { x_col_sums[t][oj] } else { 0 },
                        );
                        acc += adj << (s + t);
                    }
                }
                match (epi, out_bits) {
                    (Some(e), Some(_)) => codes_t[oj * desc.m + oi] = e.apply_to_code(acc, oi),
                    (Some(e), None) => y_i32[oi * desc.n + oj] = e.apply(acc, oi) as i32,
                    (None, _) => y_i32[oi * desc.n + oj] = acc,
                }
            }
        }
        ctx.cuda_int_ops(n_out * (epi_int + pack_int));
        ctx.cuda_flops(n_out * epi_fp);
        let store = match out_bits {
            None => n_out * 4,
            Some(bits) => (n_out * bits as u64).div_ceil(8),
        };
        ctx.global_store(store, Coalescing::Coalesced);
    });

    let out = match out_bits {
        Some(bits) => FusedOutput::Packed(BitPlanes::from_codes(
            &codes_t,
            desc.n,
            desc.m,
            bits,
            Encoding::ZeroOne,
        )),
        None => FusedOutput::Int32(y_i32),
    };
    (out, report)
}

/// Itemized emulation overheads for Fig. 11: tensor-core compute vs the
/// bit-combination and bit-decomposition epilogues.
#[derive(Debug, Clone, Copy)]
pub struct EmulationOverheads {
    /// Tensor-core pipeline time (s).
    pub tc_s: f64,
    /// Added time from the bit-combination shift-adds (s).
    pub combine_s: f64,
    /// Added time from activation bit decomposition (s).
    pub decompose_s: f64,
}

impl EmulationOverheads {
    /// Combination overhead relative to TC compute, in percent.
    pub fn combine_pct(&self) -> f64 {
        100.0 * self.combine_s / self.tc_s
    }
}

/// Compute the Fig. 11 overhead components for an APMM problem.
pub fn overheads(desc: &ApmmDesc, tile: &TileConfig, spec: &GpuSpec) -> EmulationOverheads {
    let cfg = kernel_config(desc, tile);
    let base = estimate(desc, tile, spec, None);

    let grid = tile.grid_blocks(desc.batched_m(), desc.batched_n()) as u64;
    let combine_ops = grid * (tile.bm * tile.bn) as u64;
    let decompose_ops = DECOMPOSE_OPS_PER_ELEM * desc.x_bits as u64 * (desc.n * desc.k) as u64;

    let price_cuda = |ops: u64| {
        let c = Counters {
            cuda_int_ops: ops,
            ..Default::default()
        };
        launch::finish(spec, &cfg, c).cost.cuda_s
    };

    EmulationOverheads {
        tc_s: base.cost.tensor_s,
        combine_s: price_cuda(combine_ops),
        decompose_s: price_cuda(decompose_ops),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apmm::Apmm;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn rand_codes(len: usize, bits: u32, seed: &mut u64) -> Vec<u32> {
        (0..len).map(|_| (lcg(seed) as u32) % (1 << bits)).collect()
    }

    #[test]
    fn functional_matches_cpu_and_estimate_counters() {
        let mut seed = 3;
        // p=2 divides bm=16; q=2 divides bn=32.
        let desc = ApmmDesc::unsigned(24, 40, 200, 2, 2);
        let tile = TileConfig::new(16, 32);
        let spec = GpuSpec::rtx3090();
        let w = BitPlanes::from_codes(
            &rand_codes(desc.m * desc.k, 2, &mut seed),
            desc.m,
            desc.k,
            2,
            Encoding::ZeroOne,
        );
        let x = BitPlanes::from_codes(
            &rand_codes(desc.n * desc.k, 2, &mut seed),
            desc.n,
            desc.k,
            2,
            Encoding::ZeroOne,
        );
        let (out, report) = run_functional(&desc, &tile, &spec, &w, &x, None);
        let FusedOutput::Int32(y) = out else {
            panic!("expected i32 output")
        };
        assert_eq!(y, Apmm::new(desc).prepare(w).execute(&x));
        let est = estimate(&desc, &tile, &spec, None);
        assert_eq!(report.counters, est.counters);
        assert_eq!(report.cost.total_s, est.cost.total_s);
    }

    #[test]
    fn functional_fused_packed_matches_cpu_path() {
        let mut seed = 5;
        let desc = ApmmDesc::w1aq(16, 32, 128, 2, Encoding::ZeroOne);
        let tile = TileConfig::new(16, 32);
        let spec = GpuSpec::rtx3090();
        let wv: Vec<i32> = (0..desc.m * desc.k)
            .map(|_| if lcg(&mut seed) & 1 == 0 { -1 } else { 1 })
            .collect();
        let w = BitPlanes::from_signed_binary(&wv, desc.m, desc.k);
        let x = BitPlanes::from_codes(
            &rand_codes(desc.n * desc.k, 2, &mut seed),
            desc.n,
            desc.k,
            2,
            Encoding::ZeroOne,
        );
        let epi = Epilogue::quantize(4.0, 0.0, 2);
        let (out, report) = run_functional(&desc, &tile, &spec, &w, &x, Some(&epi));
        let FusedOutput::Packed(packed) = out else {
            panic!("expected packed output")
        };
        // CPU path: full product then quantize+pack.
        let y = Apmm::new(desc).prepare(w).execute(&x);
        let steps = crate::fusion::Steps::build(&epi, desc.m).unwrap();
        let mut expected = BitPlanes::zeros(1, 1, 1, Encoding::ZeroOne);
        crate::apmm::combine::quantize_pack_transposed_into(
            &y,
            desc.m,
            desc.n,
            &steps,
            &mut Vec::new(),
            &mut expected,
        );
        assert_eq!(packed.reconstruct_codes(), expected.reconstruct_codes());
        // Counter equivalence with the closed form.
        let est = estimate(&desc, &tile, &spec, Some(&epi));
        assert_eq!(report.counters, est.counters);
    }

    #[test]
    fn estimate_scales_with_problem() {
        let spec = GpuSpec::rtx3090();
        let tile = TileConfig::new(64, 64);
        let small = estimate(&ApmmDesc::unsigned(256, 256, 256, 1, 1), &tile, &spec, None);
        let big = estimate(
            &ApmmDesc::unsigned(1024, 1024, 1024, 1, 1),
            &tile,
            &spec,
            None,
        );
        assert!(big.counters.tc_macs > 30 * small.counters.tc_macs);
        assert!(big.time_s() > small.time_s());
    }

    #[test]
    fn packed_output_shrinks_store_traffic() {
        let spec = GpuSpec::rtx3090();
        let desc = ApmmDesc::unsigned(512, 512, 512, 1, 2);
        let tile = TileConfig::new(32, 64);
        let epi = Epilogue::quantize(8.0, 0.0, 2);
        let raw = estimate(&desc, &tile, &spec, None);
        let fused = estimate(&desc, &tile, &spec, Some(&epi));
        // 32-bit vs 2-bit stores: 16× reduction.
        assert_eq!(
            raw.counters.global_store_bytes,
            16 * fused.counters.global_store_bytes
        );
    }

    #[test]
    fn covered_interval_math() {
        // p = 2, bm = 16, M = 24 → batched 48 rows in 3 blocks of 16:
        // each covers 8 outputs.
        assert_eq!(covered(24, 2, 16, 0), 8);
        assert_eq!(covered(24, 2, 16, 1), 8);
        assert_eq!(covered(24, 2, 16, 2), 8);
        // Edge: M = 20 → batched 40 rows: blocks cover 8, 8, 4.
        assert_eq!(covered(20, 2, 16, 0), 8);
        assert_eq!(covered(20, 2, 16, 1), 8);
        assert_eq!(covered(20, 2, 16, 2), 4);
        // Totals always equal M.
        let total: usize = (0..3).map(|b| covered(20, 2, 16, b)).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn overheads_are_small_and_shrink_with_size() {
        let spec = GpuSpec::rtx3090();
        let small = {
            let d = ApmmDesc::unsigned(128, 256, 128 * 9, 1, 2);
            overheads(&d, &TileConfig::new(32, 64), &spec)
        };
        let large = {
            let d = ApmmDesc::unsigned(1024, 256, 1024 * 9, 1, 2);
            overheads(&d, &TileConfig::new(64, 64), &spec)
        };
        assert!(small.combine_pct() < 25.0);
        assert!(large.combine_pct() < small.combine_pct());
    }
}
