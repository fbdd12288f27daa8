//! The evaluation stage's standalone coverages against the fresh-list
//! oracle. `Compactor::compact` computes `fc_before`/`fc_after` from what
//! its stage-3 fault simulation already decided plus a simulation of the
//! faults whose outcome is still unknown; `Compactor::features` simulates
//! a fresh fault list from scratch. The two must agree to the bit for
//! every PTP of the paper's flow, under every setting that changes what
//! stage 3 targets or how the evaluation simulates.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use warpstl::compactor::Compactor;
use warpstl::fault::{FaultModel, FaultSimConfig};
use warpstl::netlist::modules::ModuleKind;
use warpstl::programs::generators::{
    generate_cntrl, generate_fpu, generate_imm, generate_mem, generate_rand_sp, generate_sfu_imm,
    generate_tpgen, CntrlConfig, FpuConfig, ImmConfig, MemConfig, RandConfig, SfuImmConfig,
    TpgenConfig,
};
use warpstl::programs::Ptp;
use warpstl_store::Store;

/// PTPs compacted in order against one shared module context.
struct Flow {
    module: ModuleKind,
    ptps: Vec<Ptp>,
}

/// The paper's flow at test scale: IMM→MEM→CNTRL on the DU, TPGEN→RAND on
/// the SP cores (RAND runs after TPGEN has dropped faults), SFU_IMM
/// (reversed, see [`compactor_for`]) and FPU on FP32. The last SP flow's
/// RAND launches 4 threads, so SP cores 4–7 see an empty stream.
fn flows() -> Vec<Flow> {
    let tpgen = generate_tpgen(&TpgenConfig {
        max_patterns: 24,
        ..TpgenConfig::default()
    });
    vec![
        Flow {
            module: ModuleKind::DecoderUnit,
            ptps: vec![
                generate_imm(&ImmConfig {
                    sb_count: 12,
                    ..ImmConfig::default()
                }),
                generate_mem(&MemConfig {
                    sb_count: 12,
                    ..MemConfig::default()
                }),
                generate_cntrl(&CntrlConfig {
                    threads: 128,
                    ..CntrlConfig::default()
                }),
            ],
        },
        Flow {
            module: ModuleKind::SpCore,
            ptps: vec![
                tpgen.clone(),
                generate_rand_sp(&RandConfig {
                    sb_count: 8,
                    ..RandConfig::default()
                }),
            ],
        },
        Flow {
            module: ModuleKind::SpCore,
            ptps: vec![
                tpgen,
                generate_rand_sp(&RandConfig {
                    sb_count: 8,
                    threads: 4,
                    ..RandConfig::default()
                }),
            ],
        },
        Flow {
            module: ModuleKind::Sfu,
            ptps: vec![generate_sfu_imm(&SfuImmConfig {
                max_patterns: 24,
                ..SfuImmConfig::default()
            })],
        },
        Flow {
            module: ModuleKind::Fp32,
            ptps: vec![generate_fpu(&FpuConfig {
                sb_count: 8,
                ..FpuConfig::default()
            })],
        },
    ]
}

/// The paper's per-module compactor: SFU patterns apply in reverse order.
fn compactor_for(base: &Compactor, module: ModuleKind) -> Compactor {
    Compactor {
        reverse_patterns: module == ModuleKind::Sfu,
        ..base.clone()
    }
}

/// Runs every flow under `base`, asserting both coverages of every PTP
/// bit-equal the fresh-list oracle; returns the report JSONs in order.
fn check_flows(label: &str, base: &Compactor) -> Vec<String> {
    let mut jsons = Vec::new();
    for flow in flows() {
        let compactor = compactor_for(base, flow.module);
        let mut ctx = compactor.context_for(flow.module);
        for ptp in &flow.ptps {
            let out = compactor.compact(ptp, &mut ctx).expect("compacts");
            let r = &out.report;
            let before = compactor.features(ptp, &ctx).expect("runs").fault_coverage;
            let after = compactor
                .features(&out.compacted, &ctx)
                .expect("runs")
                .fault_coverage;
            assert_eq!(
                r.fc_before.to_bits(),
                before.to_bits(),
                "{label} {:?} {}: fc_before {} vs fresh {before}",
                flow.module,
                ptp.name,
                r.fc_before
            );
            assert_eq!(
                r.fc_after.to_bits(),
                after.to_bits(),
                "{label} {:?} {}: fc_after {} vs fresh {after}",
                flow.module,
                ptp.name,
                r.fc_after
            );
            jsons.push(r.to_json());
        }
    }
    jsons
}

#[test]
fn flows_exercise_novel_rows_and_empty_streams() {
    // The cases the reuse has to get right are really reached: the DU's
    // compacted CNTRL applies rows its original never did, and the short
    // RAND leaves SP cores without a single pattern.
    let base = Compactor::default();
    let flows = flows();
    let du = &flows[0];
    let mut ctx = base.context_for(ModuleKind::DecoderUnit);
    let mut novel = 0;
    for ptp in &du.ptps {
        let out = base.compact(ptp, &mut ctx).expect("compacts");
        let original = base.trace(ptp).expect("runs").patterns.du;
        let compacted = base.trace(&out.compacted).expect("runs").patterns.du;
        let applied: HashSet<&[u64]> = (0..original.len()).map(|t| original.row(t)).collect();
        novel += (0..compacted.len())
            .filter(|&t| !applied.contains(compacted.row(t)))
            .count();
    }
    assert!(novel > 0, "no compacted DU row is novel");

    let rand = &flows[2].ptps[1];
    let run = base.trace(rand).expect("runs");
    let ctx = base.context_for(ModuleKind::SpCore);
    let streams = ctx.streams(&run.patterns);
    assert!(streams.iter().any(|s| s.is_empty()), "no empty SP stream");
    assert!(streams.iter().any(|s| !s.is_empty()));
}

#[test]
fn stuck_at_eval_matches_fresh_lists() {
    check_flows("stuck-at", &Compactor::default());
}

#[test]
fn bridging_eval_matches_fresh_lists() {
    check_flows(
        "bridging",
        &Compactor {
            fault_model: FaultModel::Bridging,
            ..Compactor::default()
        },
    );
}

#[test]
fn unpruned_eval_matches_fresh_lists() {
    check_flows(
        "no-prune",
        &Compactor {
            prune_untestable: false,
            ..Compactor::default()
        },
    );
}

#[test]
fn non_dropping_eval_matches_fresh_lists() {
    // Without dropping, stage 3 targets every fault, so its report decides
    // the whole original coverage.
    for model in [FaultModel::StuckAt, FaultModel::Bridging] {
        check_flows(
            "no-drop",
            &Compactor {
                fault_model: model,
                fsim_config: FaultSimConfig {
                    drop_detected: false,
                    ..FaultSimConfig::default()
                },
                ..Compactor::default()
            },
        );
    }
}

fn temp_store(tag: &str) -> (PathBuf, Arc<Store>) {
    let dir = std::env::temp_dir().join(format!("warpstl-eval-reuse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(&dir).expect("store opens"));
    (dir, store)
}

#[test]
fn cached_eval_matches_fresh_lists_cold_and_warm() {
    for (tag, model) in [
        ("stuck-at", FaultModel::StuckAt),
        ("bridging", FaultModel::Bridging),
    ] {
        let (dir, store) = temp_store(tag);
        let base = Compactor {
            fault_model: model,
            store: Some(store.clone()),
            ..Compactor::default()
        };
        let cold = check_flows("cold", &base);
        let warm = check_flows("warm", &base);
        assert_eq!(cold, warm, "{tag}: warm reports differ from cold");
        assert!(
            store.session().hits > 0,
            "{tag}: warm run never hit the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
