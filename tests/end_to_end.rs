//! Cross-crate integration tests: the full compaction flow from generator
//! to compacted, re-runnable PTP.

use warpstl::compactor::{baseline::IterativeCompactor, Compactor};
use warpstl::fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse, SimGuide};
use warpstl::gpu::{Gpu, RunOptions};
use warpstl::netlist::modules::ModuleKind;
use warpstl::programs::generators::{
    generate_cntrl, generate_imm, generate_mem, generate_rand_sp, generate_sfu_imm, generate_tpgen,
    CntrlConfig, ImmConfig, MemConfig, RandConfig, SfuImmConfig, TpgenConfig,
};
use warpstl::programs::{segment_small_blocks, BasicBlocks, Ptp};

/// Standalone coverage of a PTP at module level (fresh lists).
fn standalone_fc(ptp: &Ptp, module: ModuleKind) -> f64 {
    let gpu = Gpu::default();
    let run = gpu
        .run(
            &ptp.to_kernel().expect("kernel"),
            &RunOptions::capture_all(),
        )
        .expect("runs");
    let netlist = module.build();
    let universe = FaultUniverse::enumerate(&netlist);
    let streams: Vec<_> = match module {
        ModuleKind::DecoderUnit => vec![&run.patterns.du],
        ModuleKind::SpCore => run.patterns.sp.iter().collect(),
        ModuleKind::Sfu => run.patterns.sfu.iter().collect(),
        ModuleKind::Fp32 => run.patterns.fp32.iter().collect(),
    };
    let mut acc = 0.0;
    for s in &streams {
        let mut list = FaultList::new(&universe);
        if !s.is_empty() {
            fault_simulate(
                &netlist,
                s,
                &mut list,
                &FaultSimConfig::default(),
                None,
                &SimGuide::default(),
            );
        }
        acc += list.coverage();
    }
    acc / streams.len() as f64
}

#[test]
fn du_flow_compacts_and_preserves_standalone_coverage() {
    let ptp = generate_imm(&ImmConfig {
        sb_count: 20,
        ..ImmConfig::default()
    });
    let compactor = Compactor::default();
    let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let out = compactor.compact(&ptp, &mut ctx).expect("compacts");

    // The compacted PTP runs and is smaller.
    assert!(out.compacted.size() < ptp.size());
    let fc_orig = standalone_fc(&ptp, ModuleKind::DecoderUnit);
    let fc_comp = standalone_fc(&out.compacted, ModuleKind::DecoderUnit);
    // First PTP against a fresh list: labeling preserves every first
    // detection, so the coverage holds to within sequence effects.
    assert!(
        fc_comp >= fc_orig - 0.02,
        "coverage fell {fc_orig} -> {fc_comp}"
    );
}

#[test]
fn full_stl_order_matches_paper_flow() {
    // IMM -> MEM -> CNTRL on the DU; TPGEN -> RAND on the SPs; SFU_IMM on
    // the SFUs with reversed patterns. Everything must compact and re-run.
    let compactor = Compactor::default();

    let mut du_ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let du_ptps = [
        generate_imm(&ImmConfig {
            sb_count: 10,
            ..ImmConfig::default()
        }),
        generate_mem(&MemConfig {
            sb_count: 10,
            ..MemConfig::default()
        }),
        generate_cntrl(&CntrlConfig {
            regions: 3,
            loops: 1,
            threads: 64,
            ..CntrlConfig::default()
        }),
    ];
    let mut compacted_du = Vec::new();
    for ptp in &du_ptps {
        let out = compactor.compact(ptp, &mut du_ctx).expect("compacts");
        let kernel = out.compacted.to_kernel().expect("kernel");
        Gpu::default()
            .run(&kernel, &RunOptions::default())
            .expect("compacted PTP runs");
        compacted_du.push(out.compacted);
    }
    // CNTRL's parametric loops are inadmissible: they survive compaction
    // intact (the compacted program still contains a CFG cycle).
    let cntrl = &compacted_du[2];
    let bbs = BasicBlocks::of(&cntrl.program);
    let cfg = warpstl::programs::ControlFlowGraph::of(&cntrl.program, &bbs);
    assert!(
        bbs.iter().any(|b| cfg.in_cycle(b)),
        "compacted CNTRL lost its parametric loop"
    );

    let mut sp_ctx = compactor.context_for(ModuleKind::SpCore);
    let tpgen = generate_tpgen(&TpgenConfig {
        max_patterns: 12,
        ..TpgenConfig::default()
    });
    let rand = generate_rand_sp(&RandConfig {
        sb_count: 10,
        ..RandConfig::default()
    });
    let t = compactor.compact(&tpgen, &mut sp_ctx).expect("TPGEN");
    let r = compactor.compact(&rand, &mut sp_ctx).expect("RAND");
    assert!(t.compacted.size() <= tpgen.size());
    assert!(r.compacted.size() <= rand.size());

    let sfu_compactor = Compactor {
        reverse_patterns: true,
        ..Compactor::default()
    };
    let mut sfu_ctx = sfu_compactor.context_for(ModuleKind::Sfu);
    let sfu = generate_sfu_imm(&SfuImmConfig {
        max_patterns: 12,
        ..SfuImmConfig::default()
    });
    let s = sfu_compactor.compact(&sfu, &mut sfu_ctx).expect("SFU_IMM");
    assert!(s.compacted.size() <= sfu.size());
}

#[test]
fn compacted_mem_ptp_data_relocation_is_consistent() {
    // After compaction, surviving loads must read exactly the words the
    // relocated image provides (no dangling slot reads).
    let ptp = generate_mem(&MemConfig {
        sb_count: 12,
        ..MemConfig::default()
    });
    let compactor = Compactor::default();
    let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let out = compactor.compact(&ptp, &mut ctx).expect("compacts");
    // Runs without memory errors.
    let kernel = out.compacted.to_kernel().expect("kernel");
    Gpu::default()
        .run(&kernel, &RunOptions::default())
        .expect("relocated PTP runs");
    // If SBs vanished, data shrank too.
    if out.report.sbs_removed > 0 {
        assert!(out.compacted.global_init.len() <= ptp.global_init.len());
    }
}

#[test]
fn method_is_never_worse_than_doing_nothing_and_faster_than_baseline() {
    let ptp = generate_imm(&ImmConfig {
        sb_count: 6,
        ..ImmConfig::default()
    });
    let compactor = Compactor::default();
    let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let fast = compactor.compact(&ptp, &mut ctx).expect("method");

    let base_ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let (_, slow) = IterativeCompactor::default()
        .compact(&ptp, &base_ctx)
        .expect("baseline");

    assert_eq!(fast.report.fault_sim_runs, 1);
    assert!(slow.fault_sim_runs > 1);
    assert!(fast.compacted.size() <= ptp.size());
}

#[test]
fn labels_respect_sb_granularity() {
    // Any removed instruction must belong to an SB that was removed whole:
    // the compacted program contains every SB either fully or not at all.
    let ptp = generate_imm(&ImmConfig {
        sb_count: 15,
        ..ImmConfig::default()
    });
    let compactor = Compactor::default();
    let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
    let out = compactor.compact(&ptp, &mut ctx).expect("compacts");

    let bbs = BasicBlocks::of(&ptp.program);
    let sbs = segment_small_blocks(&ptp.program, &bbs);
    let removed_total: usize = ptp.size() - out.compacted.size();
    let sb_lens: Vec<usize> = sbs.iter().map(|s| s.len()).collect();
    // The removal total must be expressible as a sum of whole SB lengths.
    // (Cheap necessary condition: every SB has 15..=18 instructions here.)
    if removed_total > 0 {
        let min = sb_lens.iter().min().copied().unwrap_or(1);
        assert!(removed_total >= min);
    }
}
