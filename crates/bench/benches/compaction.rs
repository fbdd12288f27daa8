//! Criterion benches for the compaction pipeline and its substrates.
//!
//! One bench group per paper artifact:
//!
//! - `table1`: PTP feature evaluation on the Decoder Unit programs
//!   (generation + trace + standalone FC);
//! - `table2`: the DU compaction flow (IMM → MEM → CNTRL, shared list);
//! - `table3`: the SFU compaction flow (reverse-order patterns);
//! - `method_vs_baseline`: proposed single-fault-simulation compaction
//!   versus the iterative prior-art baseline on the same PTP;
//! - `substrates`: the building blocks (logic sim, fault sim, PODEM).
//!
//! The SP-core experiments (8 instances × 13 k faults each) cost minutes
//! per evaluation on one core and are exercised by the `table3` *binary*
//! rather than timed here; these benches use the Decoder Unit and the SFU,
//! whose costs fit Criterion's sampling budget.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use warpstl_bench::{compact_group, Scale};
use warpstl_core::baseline::IterativeCompactor;
use warpstl_core::Compactor;
use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse, SimGuide};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{simulate_seq, PatternSeq};
use warpstl_programs::generators::{
    generate_cntrl, generate_imm, generate_mem, generate_sfu_imm, ImmConfig,
};
use warpstl_programs::Ptp;

/// Bench scale: small fixed divisor so runs finish in seconds.
fn bench_scale() -> Scale {
    Scale::new(128)
}

/// The Decoder-Unit PTP group at bench scale.
fn du_group() -> Vec<Ptp> {
    let scale = bench_scale();
    vec![
        generate_imm(&scale.imm()),
        generate_mem(&scale.mem()),
        generate_cntrl(&scale.cntrl()),
    ]
}

fn bench_table1(c: &mut Criterion) {
    let du = du_group();
    let compactor = Compactor::default();
    let ctx = compactor.context_for(ModuleKind::DecoderUnit);
    c.bench_function("table1/du_features", |b| {
        b.iter(|| {
            du.iter()
                .map(|ptp| compactor.features(ptp, &ctx).expect("runs"))
                .collect::<Vec<_>>()
        });
    });
}

fn bench_table2(c: &mut Criterion) {
    let du = du_group();
    let compactor = Compactor::default();
    c.bench_function("table2/du_group", |b| {
        b.iter(|| compact_group(&du, ModuleKind::DecoderUnit, &compactor));
    });
}

fn bench_table3(c: &mut Criterion) {
    let scale = bench_scale();
    let sfu = vec![generate_sfu_imm(&scale.sfu_imm())];
    let sfu_compactor = Compactor {
        reverse_patterns: true,
        ..Compactor::default()
    };
    c.bench_function("table3/sfu_group", |b| {
        b.iter(|| compact_group(&sfu, ModuleKind::Sfu, &sfu_compactor));
    });
}

fn bench_method_vs_baseline(c: &mut Criterion) {
    let ptp = generate_imm(&ImmConfig {
        sb_count: 8,
        ..ImmConfig::default()
    });
    let compactor = Compactor::default();
    let baseline = IterativeCompactor::default();
    c.bench_function("method_vs_baseline/proposed", |b| {
        b.iter_batched(
            || compactor.context_for(ModuleKind::DecoderUnit),
            |mut ctx| compactor.compact(&ptp, &mut ctx).expect("compacts"),
            BatchSize::SmallInput,
        );
    });
    c.bench_function("method_vs_baseline/iterative", |b| {
        b.iter_batched(
            || compactor.context_for(ModuleKind::DecoderUnit),
            |ctx| baseline.compact(&ptp, &ctx).expect("compacts"),
            BatchSize::SmallInput,
        );
    });
}

fn bench_substrates(c: &mut Criterion) {
    // Gate-level logic simulation of the Decoder Unit over 1 k patterns.
    let du = ModuleKind::DecoderUnit.build();
    let width = du.inputs().width();
    let mut pats = PatternSeq::new(width);
    let mut x = 0x1234_5678_9abc_def0u64;
    for cc in 0..1000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bits: Vec<bool> = (0..width).map(|b| (x >> (b % 64)) & 1 == 1).collect();
        pats.push_bits(cc, &bits);
    }
    c.bench_function("substrates/logic_sim_du_1k", |b| {
        b.iter(|| simulate_seq(&du, &pats));
    });

    // Fault simulation of the same patterns against the full DU list.
    let universe = FaultUniverse::enumerate(&du);
    c.bench_function("substrates/fault_sim_du_1k", |b| {
        b.iter_batched(
            || FaultList::new(&universe),
            |mut list| {
                fault_simulate(
                    &du,
                    &pats,
                    &mut list,
                    &FaultSimConfig::default(),
                    None,
                    &SimGuide::default(),
                )
            },
            BatchSize::SmallInput,
        );
    });

    // PODEM on the SP core (a handful of targets).
    let sp = ModuleKind::SpCore.build();
    let sp_universe = FaultUniverse::enumerate(&sp);
    let podem = warpstl_atpg::Podem::new(&sp).with_backtrack_limit(50);
    let targets: Vec<_> = sp_universe.faults().iter().step_by(1997).copied().collect();
    c.bench_function("substrates/podem_sp_sample", |b| {
        b.iter(|| {
            for &f in &targets {
                let _ = podem.generate(f);
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_table2, bench_table3, bench_method_vs_baseline, bench_substrates
}
criterion_main!(benches);
