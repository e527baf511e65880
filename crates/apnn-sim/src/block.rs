//! Per-thread-block instrumentation context.
//!
//! Simulated kernels are written as closures over a [`BlockCtx`]: they
//! perform their (real) computation and *narrate* every architectural event
//! — global loads, shared-memory traffic, bmma issues, epilogue ALU work —
//! through the context. The recorded [`Counters`] are what the cost model
//! prices. This mirrors how the paper reasons about its kernels: §4's
//! designs are all arguments about which of these counters shrink.

use crate::bmma::MACS_PER_BMMA;
use crate::counters::Counters;

/// Global-memory access pattern, which determines how many 32-byte DRAM
/// sectors a request touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coalescing {
    /// Contiguous, 32-byte-aligned accesses: `sectors = ceil(bytes/32)`.
    /// The channel-major NPHWC layout achieves this (paper Fig. 4b).
    Coalesced,
    /// Strided/unaligned access touching `waste ×` more sectors than useful
    /// bytes. NCHW bit-conv reads `K·P` bits per row (paper Fig. 4a) and
    /// lands here with waste ≈ 32B / useful-bytes-per-sector.
    Strided {
        /// Sector amplification factor (≥ 1.0).
        waste: f64,
    },
}

impl Coalescing {
    fn sectors(self, bytes: u64) -> u64 {
        let base = bytes.div_ceil(32);
        match self {
            Coalescing::Coalesced => base,
            Coalescing::Strided { waste } => {
                debug_assert!(waste >= 1.0);
                (base as f64 * waste).ceil() as u64
            }
        }
    }
}

/// Event recorder handed to a simulated kernel, one per thread block.
#[derive(Debug, Default)]
pub struct BlockCtx {
    counters: Counters,
}

impl BlockCtx {
    /// Fresh context with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a *first-touch* global-memory read of `bytes` with the given
    /// access pattern: counted as both L2 traffic and DRAM sectors.
    pub fn global_load(&mut self, bytes: u64, pattern: Coalescing) {
        self.counters.global_load_bytes += bytes;
        self.counters.global_sectors += pattern.sectors(bytes);
    }

    /// Record a global-memory read of data already resident in L2 (a tile
    /// re-load of an operand another block has streamed in): counted as L2
    /// traffic only, no DRAM sectors.
    pub fn global_load_cached(&mut self, bytes: u64) {
        self.counters.global_load_bytes += bytes;
    }

    /// Record a global-memory write.
    pub fn global_store(&mut self, bytes: u64, pattern: Coalescing) {
        self.counters.global_store_bytes += bytes;
        self.counters.global_sectors += pattern.sectors(bytes);
    }

    /// Record shared-memory traffic (loads and stores both count — shmem is
    /// symmetric on Ampere).
    pub fn shmem(&mut self, bytes: u64) {
        self.counters.shmem_bytes += bytes;
    }

    /// Record `n` issued `bmma.8x8x128` instructions.
    pub fn bmma(&mut self, n: u64) {
        self.counters.bmma_ops += n;
        self.counters.tc_macs += n * MACS_PER_BMMA;
    }

    /// Record raw tensor-core MACs directly (IMMA/HMMA baselines whose tile
    /// shape is not the b1 8×8×128).
    pub fn tc_macs(&mut self, macs: u64) {
        self.counters.tc_macs += macs;
    }

    /// Record integer ALU work on CUDA cores (shift/add/pack of the bit
    /// decomposition & combination, quantization, pooling).
    pub fn cuda_int_ops(&mut self, n: u64) {
        self.counters.cuda_int_ops += n;
    }

    /// Record floating-point CUDA-core work (BN, softmax).
    pub fn cuda_flops(&mut self, n: u64) {
        self.counters.cuda_flops += n;
    }

    /// Record a block-wide barrier.
    pub fn sync(&mut self) {
        self.counters.syncs += 1;
    }

    /// Final counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_sector_math() {
        assert_eq!(Coalescing::Coalesced.sectors(32), 1);
        assert_eq!(Coalescing::Coalesced.sectors(33), 2);
        assert_eq!(Coalescing::Coalesced.sectors(0), 0);
        assert_eq!(Coalescing::Strided { waste: 4.0 }.sectors(32), 4);
    }

    #[test]
    fn ctx_records_everything() {
        let mut ctx = BlockCtx::new();
        ctx.global_load(256, Coalescing::Coalesced);
        ctx.global_store(64, Coalescing::Strided { waste: 2.0 });
        ctx.shmem(512);
        ctx.bmma(3);
        ctx.cuda_int_ops(10);
        ctx.cuda_flops(5);
        ctx.sync();
        let c = ctx.counters();
        assert_eq!(c.global_load_bytes, 256);
        assert_eq!(c.global_store_bytes, 64);
        assert_eq!(c.global_sectors, 8 + 4);
        assert_eq!(c.shmem_bytes, 512);
        assert_eq!(c.bmma_ops, 3);
        assert_eq!(c.tc_macs, 3 * 8192);
        assert_eq!(c.cuda_int_ops, 10);
        assert_eq!(c.cuda_flops, 5);
        assert_eq!(c.syncs, 1);
    }
}
