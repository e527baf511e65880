//! Property-based tests for the cost model and launch machinery.

use apnn_sim::{launch, Coalescing, Counters, GpuSpec, KernelConfig, Precision};
use proptest::prelude::*;

fn any_spec() -> impl Strategy<Value = GpuSpec> {
    prop_oneof![
        Just(GpuSpec::rtx3090()),
        Just(GpuSpec::a100()),
        Just(GpuSpec::t4()),
    ]
}

fn any_cfg() -> impl Strategy<Value = KernelConfig> {
    (
        1usize..4000,
        1u32..=16,
        0usize..64 * 1024,
        prop_oneof![
            Just(Precision::Int1),
            Just(Precision::Int4),
            Just(Precision::Int8),
            Just(Precision::Fp16),
            Just(Precision::Fp32),
        ],
    )
        .prop_map(|(grid, warps, shmem, prec)| KernelConfig {
            grid_blocks: grid,
            warps_per_block: warps,
            shmem_per_block: shmem,
            regs_per_thread: 64,
            precision: prec,
            efficiency: 0.8,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn occupancy_invariants(spec in any_spec(), cfg in any_cfg()) {
        let occ = apnn_sim::launch::occupancy_for(&spec, &cfg);
        prop_assert!(occ.blocks_per_sm >= 1);
        prop_assert!(occ.resident_blocks_per_sm >= 1);
        prop_assert!(occ.resident_blocks_per_sm <= occ.blocks_per_sm);
        prop_assert!(occ.hide_efficiency > 0.0 && occ.hide_efficiency <= 1.0);
        // Waves must cover the grid.
        let concurrent = spec.num_sms as usize * occ.blocks_per_sm as usize;
        prop_assert!(occ.waves as usize * concurrent >= cfg.grid_blocks);
    }

    #[test]
    fn cost_monotone_in_compute(
        spec in any_spec(), cfg in any_cfg(),
        macs in 1u64..1u64 << 40,
    ) {
        let t = |m: u64| {
            let c = Counters { tc_macs: m, ..Default::default() };
            apnn_sim::launch::finish(&spec, &cfg, c).cost.total_s
        };
        prop_assert!(t(2 * macs) >= t(macs));
    }

    #[test]
    fn cost_monotone_in_dram_traffic(
        spec in any_spec(), cfg in any_cfg(),
        sectors in 1u64..1u64 << 32,
    ) {
        let t = |s: u64| {
            let c = Counters { global_sectors: s, ..Default::default() };
            apnn_sim::launch::finish(&spec, &cfg, c).cost.total_s
        };
        prop_assert!(t(2 * sectors) >= t(sectors));
    }

    #[test]
    fn latency_never_below_launch_overhead(spec in any_spec(), cfg in any_cfg()) {
        let r = apnn_sim::launch::finish(&spec, &cfg, Counters::default());
        prop_assert!(r.cost.total_s >= spec.kernel_launch_overhead_s);
    }

    #[test]
    fn strided_never_cheaper_than_coalesced(
        spec in any_spec(),
        bytes in 1u64..1 << 24,
        waste in 1.0f64..8.0,
    ) {
        let cfg = KernelConfig::new(128, Precision::Int1);
        let run = |pattern| {
            launch(&spec, &cfg, |_, ctx| ctx.global_load(bytes, pattern)).cost.total_s
        };
        let strided = run(Coalescing::Strided { waste });
        let coalesced = run(Coalescing::Coalesced);
        prop_assert!(strided >= coalesced);
    }
}
