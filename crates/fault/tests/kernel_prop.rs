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

mod common;
use common::{assert_backends_agree, build_netlist, pseudorandom_patterns};

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
                let at = format!("{n_pat} patterns, drop={drop}, {threads} threads");
                assert_backends_agree(&netlist, &patterns, cfg, || FaultList::new(&universe), &at);
            }
        }
    }
}
