//! Occupancy + roofline latency model.
//!
//! The simulated latency of a kernel is a pure function of the GPU spec, the
//! launch configuration, and the recorded counters:
//!
//! ```text
//! latency = launch_overhead
//!         + max(tensor_core_time, dram_time, shmem_time, cuda_core_time)
//! ```
//!
//! * `tensor_core_time` — per-SM serial block rounds × block MACs / (peak
//!   MAC rate × latency-hiding efficiency × kernel efficiency). The
//!   latency-hiding term implements the TLP half of the paper's §4.3
//!   performance model: an SM only reaches peak tensor-core issue when
//!   enough warps are resident.
//! * `dram_time` — 32-byte sectors × 32 / effective bandwidth; the
//!   coalescing model (§4.2(a)) feeds sector counts, so NCHW-style strided
//!   access is directly penalized.
//! * `shmem_time` / `cuda_core_time` — same serial-rounds shape, covering
//!   the bit-combination epilogues and fused element-wise layers (§5.2).

use serde::{Deserialize, Serialize};

use crate::counters::Counters;
use crate::launch::{KernelConfig, Occupancy};
use crate::spec::GpuSpec;

/// Which roofline term determined the kernel latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// Tensor-core issue rate.
    TensorCore,
    /// DRAM bandwidth (compulsory, first-touch traffic).
    Dram,
    /// L2 bandwidth (total tile traffic, including cached re-loads).
    L2,
    /// Shared-memory bandwidth.
    Shmem,
    /// CUDA-core ALU throughput (epilogues).
    CudaCore,
    /// Fixed launch overhead dominates (tiny kernels).
    Overhead,
}

/// Fully itemized simulated kernel latency.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Tensor-core pipeline time (s).
    pub tensor_s: f64,
    /// DRAM traffic time (s).
    pub dram_s: f64,
    /// L2 traffic time (s).
    pub l2_s: f64,
    /// Shared-memory traffic time (s).
    pub shmem_s: f64,
    /// CUDA-core (epilogue / element-wise) time (s).
    pub cuda_s: f64,
    /// Fixed launch overhead (s).
    pub overhead_s: f64,
    /// Final modeled latency (s).
    pub total_s: f64,
    /// Dominant term.
    pub bound: Bound,
    /// Latency-hiding efficiency in `[0, 1]` from resident-warp TLP.
    pub hide_efficiency: f64,
}

/// Price a kernel from its aggregate counters.
///
/// `grid` blocks are assumed statistically uniform (standard for tiled GEMM /
/// conv); the busiest SM therefore executes `ceil(grid / num_sms)` blocks in
/// sequence, each at the occupancy-derived efficiency.
pub fn price(
    spec: &GpuSpec,
    cfg: &KernelConfig,
    occ: &Occupancy,
    totals: &Counters,
) -> CostBreakdown {
    let grid = cfg.grid_blocks.max(1) as f64;
    let serial_rounds = (grid / spec.num_sms as f64).ceil();

    // Per-block averages.
    let block_macs = totals.tc_macs as f64 / grid;
    let block_shmem = totals.shmem_bytes as f64 / grid;
    let block_int = totals.cuda_int_ops as f64 / grid;
    let block_fp = totals.cuda_flops as f64 / grid;

    // --- Tensor-core time -------------------------------------------------
    let hide = occ.hide_efficiency;
    let mac_rate = spec.mac_per_cycle_sm(cfg.precision) * spec.clock_hz();
    let eff = (cfg.efficiency * hide).max(1e-6);
    let tensor_s = serial_rounds * block_macs / (mac_rate * eff);

    // --- DRAM time --------------------------------------------------------
    // Sector-quantized *compulsory* traffic: the coalescing model already
    // inflated `global_sectors` for strided patterns; cached tile re-loads
    // recorded no sectors.
    let dram_bytes = (totals.global_sectors * 32) as f64;
    let dram_s = dram_bytes / spec.effective_dram_bw();

    // --- L2 time ------------------------------------------------------------
    // All global traffic (compulsory + cached re-loads) flows through L2.
    let l2_s = totals.global_bytes() as f64 / spec.l2_bytes_per_s;

    // --- Shared-memory time ------------------------------------------------
    let shmem_rate = spec.shmem_bytes_per_cycle_sm * spec.clock_hz();
    let shmem_s = serial_rounds * block_shmem / shmem_rate;

    // --- CUDA-core time -----------------------------------------------------
    let int_rate = spec.cuda_int_op_per_cycle_sm * spec.clock_hz();
    let fp_rate = spec.cuda_fp32_fma_per_cycle_sm * spec.clock_hz();
    let cuda_s = serial_rounds * (block_int / int_rate + block_fp / fp_rate);

    let overhead_s = spec.kernel_launch_overhead_s;
    let pipeline = tensor_s.max(dram_s).max(l2_s).max(shmem_s).max(cuda_s);
    let total_s = overhead_s + pipeline;

    let bound = if pipeline < overhead_s {
        Bound::Overhead
    } else if pipeline == tensor_s {
        Bound::TensorCore
    } else if pipeline == dram_s {
        Bound::Dram
    } else if pipeline == l2_s {
        Bound::L2
    } else if pipeline == shmem_s {
        Bound::Shmem
    } else {
        Bound::CudaCore
    };

    CostBreakdown {
        tensor_s,
        dram_s,
        l2_s,
        shmem_s,
        cuda_s,
        overhead_s,
        total_s,
        bound,
        hide_efficiency: hide,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::occupancy_for;
    use crate::spec::Precision;

    fn cfg(grid: usize, prec: Precision) -> KernelConfig {
        KernelConfig {
            grid_blocks: grid,
            warps_per_block: 8,
            shmem_per_block: 32 * 1024,
            regs_per_thread: 64,
            precision: prec,
            efficiency: 1.0,
        }
    }

    #[test]
    fn compute_bound_kernel_prices_at_peak() {
        let spec = GpuSpec::rtx3090();
        let c = cfg(82 * 4, Precision::Int1);
        let occ = occupancy_for(&spec, &c);
        // 1 GMAC per block, no memory traffic.
        let totals = Counters {
            tc_macs: (82 * 4) * 1_000_000_000,
            ..Default::default()
        };
        let price = price(&spec, &c, &occ, &totals);
        assert_eq!(price.bound, Bound::TensorCore);
        // 4 serial rounds of 1 GMAC at 8192 MAC/cyc/SM * 1.695 GHz.
        let expected = 4.0 * 1.0e9 / (8192.0 * 1.695e9);
        assert!((price.tensor_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn memory_bound_kernel_prices_at_bandwidth() {
        let spec = GpuSpec::rtx3090();
        let c = cfg(82, Precision::Int1);
        let occ = occupancy_for(&spec, &c);
        let totals = Counters {
            global_load_bytes: 936_000_000, // ~1 ms at effective bw
            global_sectors: 936_000_000 / 32,
            ..Default::default()
        };
        let price = price(&spec, &c, &occ, &totals);
        assert_eq!(price.bound, Bound::Dram);
        let expected = 936.0e6 / (936.0e9 * 0.78);
        assert!((price.dram_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn tiny_kernel_is_overhead_bound() {
        let spec = GpuSpec::rtx3090();
        let c = cfg(1, Precision::Int1);
        let occ = occupancy_for(&spec, &c);
        let totals = Counters {
            tc_macs: 8192,
            ..Default::default()
        };
        let price = price(&spec, &c, &occ, &totals);
        assert_eq!(price.bound, Bound::Overhead);
        assert!(price.total_s >= spec.kernel_launch_overhead_s);
    }

    #[test]
    fn strided_access_costs_more() {
        let spec = GpuSpec::rtx3090();
        let c = cfg(82, Precision::Int1);
        let occ = occupancy_for(&spec, &c);
        let coalesced = Counters {
            global_load_bytes: 1 << 20,
            global_sectors: (1 << 20) / 32,
            ..Default::default()
        };
        let strided = Counters {
            global_load_bytes: 1 << 20,
            global_sectors: 4 * (1 << 20) / 32,
            ..Default::default()
        };
        let p1 = price(&spec, &c, &occ, &coalesced);
        let p2 = price(&spec, &c, &occ, &strided);
        assert!(p2.dram_s > 3.9 * p1.dram_s);
    }

    #[test]
    fn more_serial_rounds_scale_compute_linearly() {
        let spec = GpuSpec::rtx3090();
        let per_block_macs = 10_000_000u64;
        let mk = |grid: usize| {
            let c = cfg(grid, Precision::Int4);
            let occ = occupancy_for(&spec, &c);
            let totals = Counters {
                tc_macs: per_block_macs * grid as u64,
                ..Default::default()
            };
            price(&spec, &c, &occ, &totals).tensor_s
        };
        let t1 = mk(82);
        let t2 = mk(82 * 2);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
