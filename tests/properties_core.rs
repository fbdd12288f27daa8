//! Property-based tests over the compaction pipeline's invariants.

use std::sync::Arc;

use proptest::prelude::*;

use warpstl::compactor::{label_instructions, reduce_ptp, Compactor};
use warpstl::fault::FaultSimReport;
use warpstl::gpu::{Gpu, RunOptions};
use warpstl::netlist::modules::ModuleKind;
use warpstl::obs::Recorder;
use warpstl::programs::generators::{
    generate_cntrl, generate_imm, generate_mem, CntrlConfig, ImmConfig, MemConfig,
};
use warpstl::programs::{segment_small_blocks, BasicBlocks, Ptp};
use warpstl::verify::{verify_reduction, VerifyOptions};

/// A small pseudorandom PTP (IMM or MEM flavoured).
fn arb_ptp() -> impl Strategy<Value = Ptp> {
    (any::<u64>(), 2usize..10, any::<bool>()).prop_map(|(seed, sb_count, mem)| {
        if mem {
            generate_mem(&MemConfig {
                sb_count,
                seed,
                ..MemConfig::default()
            })
        } else {
            generate_imm(&ImmConfig {
                sb_count,
                seed,
                ..ImmConfig::default()
            })
        }
    })
}

/// Like [`arb_ptp`] but also drawing CNTRL programs, whose parametric loops
/// and `SSY`/`SYNC` regions exercise the verifier's control-flow rules.
fn arb_ptp_any_flavour() -> impl Strategy<Value = Ptp> {
    (any::<u64>(), 2usize..10, 0usize..3).prop_map(|(seed, sb_count, flavour)| match flavour {
        0 => generate_imm(&ImmConfig {
            sb_count,
            seed,
            ..ImmConfig::default()
        }),
        1 => generate_mem(&MemConfig {
            sb_count,
            seed,
            ..MemConfig::default()
        }),
        _ => generate_cntrl(&CntrlConfig {
            seed,
            ..CntrlConfig::default()
        }),
    })
}

/// Labels derived from a synthetic detection pattern over the traced run.
fn labels_for(
    ptp: &Ptp,
    detect_mask: u64,
) -> (warpstl::compactor::Labels, warpstl::gpu::RunResult) {
    let run = Gpu::default()
        .run(&ptp.to_kernel().expect("kernel"), &RunOptions::tracing())
        .expect("runs");
    let mut report = FaultSimReport::new();
    for (i, rec) in run.trace.records().iter().enumerate() {
        if (detect_mask >> (i % 64)) & 1 == 1 {
            report.record_detected(rec.cc_start, 1);
        }
    }
    let labels = label_instructions(ptp.program.len(), &run.trace, &report);
    (labels, run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reduction never touches essential instructions, keeps relative
    /// order, and produces in-bounds branch targets.
    #[test]
    fn reduction_invariants(ptp in arb_ptp(), mask in any::<u64>()) {
        let (labels, _) = labels_for(&ptp, mask);
        let r = reduce_ptp(&ptp, &labels);

        // Size accounting.
        prop_assert_eq!(r.program.len() + r.removed_instructions, ptp.program.len());

        // The kept program is a subsequence of the original, modulo branch
        // target and slot-offset rewrites.
        let strip = |i: &warpstl::isa::Instruction| (i.opcode, i.dst, i.pdst, i.guard);
        let kept: Vec<_> = r.program.iter().map(strip).collect();
        let mut orig = ptp.program.iter().map(strip);
        for k in &kept {
            prop_assert!(orig.any(|o| o == *k), "not a subsequence");
        }

        // Every essential instruction survives.
        let essential_count = (0..ptp.program.len())
            .filter(|&pc| labels.is_essential(pc))
            .count();
        prop_assert!(r.program.len() >= essential_count);

        // Branch targets are in bounds.
        for i in &r.program {
            if let Some(t) = i.target() {
                prop_assert!(t <= r.program.len(), "target {t} out of bounds");
            }
        }

        // The compacted PTP still executes.
        let mut compacted = ptp.clone();
        compacted.program = r.program;
        compacted.global_init = r.global_init;
        compacted.sb_slots = r.sb_slots;
        let run = Gpu::default()
            .run(&compacted.to_kernel().expect("kernel"), &RunOptions::default());
        prop_assert!(run.is_ok(), "compacted PTP failed: {:?}", run.err());
    }

    /// All-essential labels remove nothing; all-unessential labels remove
    /// every admissible, liveness-free SB.
    #[test]
    fn labeling_extremes(ptp in arb_ptp()) {
        let (all_essential, _) = labels_for(&ptp, u64::MAX);
        let r = reduce_ptp(&ptp, &all_essential);
        prop_assert_eq!(r.removed_sbs, 0);
        prop_assert_eq!(r.program.len(), ptp.program.len());

        let (none_essential, _) = labels_for(&ptp, 0);
        let r = reduce_ptp(&ptp, &none_essential);
        let bbs = BasicBlocks::of(&ptp.program);
        let sbs = segment_small_blocks(&ptp.program, &bbs);
        prop_assert!(r.removed_sbs + r.liveness_protected <= sbs.len());
        // With self-contained generators, most SBs go.
        prop_assert!(r.removed_sbs > 0);
    }

    /// Every reduce-produced CPTP passes the static verifier with zero
    /// errors, whatever the detection labeling — the gate never rejects the
    /// pipeline's own output.
    #[test]
    fn reduction_output_verifies_clean(ptp in arb_ptp_any_flavour(), mask in any::<u64>()) {
        let (labels, _) = labels_for(&ptp, mask);
        let r = reduce_ptp(&ptp, &labels);
        let mut compacted = ptp.clone();
        compacted.program = r.program;
        compacted.global_init = r.global_init;
        compacted.sb_slots = r.sb_slots;
        let report = verify_reduction(&ptp, &compacted, &r.removed_pcs, &VerifyOptions::default());
        prop_assert_eq!(report.error_count(), 0, "verifier rejected: {}", report);
    }

    /// The observability counters a compaction records agree with the
    /// `CompactionReport` it returns, for every generated program: the
    /// metrics layer is a second bookkeeping path through the same pipeline,
    /// so any drift between the two is a bug in one of them.
    #[test]
    fn metrics_counters_match_report_fields(ptp in arb_ptp()) {
        let compactor = Compactor {
            obs: Some(Arc::new(Recorder::new())),
            ..Compactor::default()
        };
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let out = compactor.compact(&ptp, &mut ctx).expect("compacts");
        let r = &out.report;
        let m = &r.metrics;

        prop_assert_eq!(m.counter("pipeline.ptps"), 1);
        prop_assert_eq!(m.counter("pipeline.fsim_runs"), r.fault_sim_runs as u64);
        prop_assert_eq!(m.counter("pipeline.logic_sim_runs"), r.logic_sim_runs as u64);
        prop_assert_eq!(m.counter("label.essential"), r.essential_instructions as u64);
        prop_assert_eq!(m.counter("reduce.sbs_total"), r.sbs_total as u64);
        prop_assert_eq!(m.counter("reduce.sbs_removed"), r.sbs_removed as u64);
        prop_assert_eq!(
            m.counter("reduce.instructions_removed"),
            (r.original_size - r.compacted_size) as u64
        );
        prop_assert_eq!(m.counter("verify.errors"), r.verify.total_errors() as u64);
        prop_assert_eq!(m.counter("verify.warnings"), r.verify.total_warnings() as u64);
        // Raw engine counters include the eval-stage simulations, so they
        // bound the pipeline's budgeted count from above.
        prop_assert!(m.counter("fsim.runs") >= m.counter("pipeline.fsim_runs"));
    }

    /// Compaction is idempotent: compacting a compacted PTP with the same
    /// (fresh) context removes nothing new of significance — every SB that
    /// survived did so because it detects or feeds something.
    #[test]
    fn compaction_is_stable(seed in any::<u64>()) {
        let ptp = generate_imm(&ImmConfig {
            sb_count: 5,
            seed,
            ..ImmConfig::default()
        });
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let once = compactor.compact(&ptp, &mut ctx).expect("first pass");
        let mut ctx2 = compactor.context_for(ModuleKind::DecoderUnit);
        let twice = compactor
            .compact(&once.compacted, &mut ctx2)
            .expect("second pass");
        prop_assert_eq!(
            twice.compacted.size(),
            once.compacted.size(),
            "second compaction changed the program"
        );
    }
}
