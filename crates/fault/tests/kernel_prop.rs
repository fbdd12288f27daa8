//! Property: the levelized SoA batch kernel is **bit-identical** to the
//! event path on random combinational netlists and random pattern
//! sequences — same report (detections, stamps, tallies) and same fault
//! list state — in drop and non-drop mode, and across pattern counts that
//! exercise every block shape (narrow-only spans, exact wide blocks, wide
//! blocks with a 64-bit remainder and a masked tail word) and the kernel's
//! 1024-pattern window boundaries.

use proptest::prelude::*;

use warpstl_fault::{
    fault_simulate, FaultList, FaultSimConfig, FaultUniverse, SimBackend, SimGuide,
};
use warpstl_netlist::{Builder, NetId, Netlist, PatternSeq};

/// One random gate: `kind` selects the operator, `a`/`b`/`c` pick
/// operands among the already-built nets (mod current count).
type GateSpec = (u8, u8, u8, u8);

/// Builds a random combinational netlist from a gate-spec list: every gate
/// reads already-existing nets, and the tail nets become outputs so late
/// logic stays observable.
fn build_netlist(n_inputs: usize, specs: &[GateSpec]) -> Netlist {
    let mut b = Builder::new("prop");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    for &(kind, a, bb, c) in specs {
        let pick = |sel: u8| nets[sel as usize % nets.len()];
        let (x, y, z) = (pick(a), pick(bb), pick(c));
        let net = match kind % 9 {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.nand(x, y),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            5 => b.xnor(x, y),
            6 => b.not(x),
            7 => b.buf(x),
            _ => b.mux(x, y, z),
        };
        nets.push(net);
    }
    let n_out = nets.len().clamp(1, 4);
    for (k, &net) in nets.iter().rev().take(n_out).enumerate() {
        b.output(&format!("o{k}"), net);
    }
    b.finish()
}

fn pseudorandom_patterns(width: usize, count: usize, mut seed: u64) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for cc in 0..count {
        let bits: Vec<bool> = (0..width)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & 1 == 1
            })
            .collect();
        p.push_bits(cc as u64, &bits);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_is_bit_identical_to_event_path(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..48,
        ),
        seed in any::<u64>(),
        n_pat in 1usize..96,
        drop in any::<bool>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        prop_assert!(netlist.is_combinational());
        let universe = FaultUniverse::enumerate(&netlist);
        let patterns = pseudorandom_patterns(netlist.inputs().width(), n_pat, seed | 1);
        let cfg = |backend| FaultSimConfig {
            drop_detected: drop,
            early_exit: drop,
            threads: 1,
            backend,
        };

        let mut event_list = FaultList::new(&universe);
        let event = fault_simulate(&netlist, &patterns, &mut event_list, &cfg(SimBackend::Event), None, &SimGuide::default());

        let mut list = FaultList::new(&universe);
        let report = fault_simulate(&netlist, &patterns, &mut list, &cfg(SimBackend::Kernel), None, &SimGuide::default());
        prop_assert_eq!(&report, &event, "report diverged");
        prop_assert_eq!(
            list.to_report_text(),
            event_list.to_report_text(),
            "list state diverged"
        );
    }
}

/// The identity also survives multi-pattern spans that cross the wide
/// block boundary and the kernel's 1024-pattern window boundary on a real
/// module, in drop and non-drop mode, with threading in the mix.
#[test]
fn module_kernel_identity_across_block_shapes() {
    let netlist = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
    let universe = FaultUniverse::enumerate(&netlist);
    // 64 (narrow only), 256 (exactly one wide block), 320 (wide + narrow),
    // 100 (narrow + masked tail), 1023 (one short of a window), 1025 (one
    // window + a one-pattern window), 2148 (two windows + a masked tail).
    for n_pat in [64usize, 256, 320, 100, 1023, 1025, 2148] {
        let patterns =
            pseudorandom_patterns(netlist.inputs().width(), n_pat, 0xb10c ^ n_pat as u64);
        for drop in [true, false] {
            for threads in [1usize, 3] {
                let cfg = |backend| FaultSimConfig {
                    drop_detected: drop,
                    early_exit: drop,
                    threads,
                    backend,
                };
                let guide = SimGuide::default();
                let mut event_list = FaultList::new(&universe);
                let event = fault_simulate(
                    &netlist,
                    &patterns,
                    &mut event_list,
                    &cfg(SimBackend::Event),
                    None,
                    &guide,
                );
                let mut kernel_list = FaultList::new(&universe);
                let kernel = fault_simulate(
                    &netlist,
                    &patterns,
                    &mut kernel_list,
                    &cfg(SimBackend::Kernel),
                    None,
                    &guide,
                );
                let at = format!("{n_pat} patterns, drop={drop}, {threads} threads");
                assert_eq!(kernel, event, "{at}");
                assert_eq!(
                    kernel_list.to_report_text(),
                    event_list.to_report_text(),
                    "{at}"
                );
            }
        }
    }
}
