//! Bridging-model soundness properties:
//!
//! 1. On small random combinational netlists under **exhaustive** 2^n
//!    stimulus, the parallel bridge simulator's detected set and
//!    first-detection stamps match a trivial scalar oracle that re-evaluates
//!    the whole netlist per fault per assignment with the wired value
//!    forced at both endpoints.
//! 2. The engine's event and kernel loops are **bit-identical** on bridges
//!    — same report (detections, stamps, tallies) and same list state — in
//!    drop and non-drop mode, on random netlists and on a real module
//!    across the kernel's pattern-window boundaries.
//! 3. Non-drop per-pattern activation tallies equal the count of bridges
//!    whose endpoint values differ under that assignment.

use proptest::prelude::*;

use warpstl_fault::{
    fault_simulate, BridgeConfig, BridgeFault, BridgeUniverse, FaultSimConfig, SimBackend, SimGuide,
};
use warpstl_netlist::Netlist;

mod common;
use common::{
    assert_backends_agree, build_netlist, exhaustive, outputs_differ, pseudorandom_patterns,
    scalar_eval,
};

/// The oracle: the first assignment (in 0..2^n order) at which forcing the
/// bridge's wired value changes any output, or `None` if undetectable.
fn oracle_first_detection(netlist: &Netlist, f: BridgeFault, width: usize) -> Option<u64> {
    for v in 0..(1u64 << width) {
        let good = scalar_eval(netlist, v, None);
        let w = f.kind.wired(good[f.a.index()], good[f.b.index()]);
        let faulty = scalar_eval(netlist, v, Some((f.a.index(), f.b.index(), w)));
        if outputs_differ(netlist, &good, &faulty) {
            return Some(v);
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bridge_simulation_matches_exhaustive_oracle(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..32,
        ),
        seed in any::<u64>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        prop_assert!(netlist.is_combinational());
        let width = netlist.inputs().width();
        let cfg = BridgeConfig { pairs: 16, seed };
        let universe = BridgeUniverse::sample(&netlist, &cfg);
        let patterns = exhaustive(width);

        let mut list = universe.new_list();
        fault_simulate(&netlist, &patterns, &mut list, &FaultSimConfig::default(), None, &SimGuide::default());

        for (id, &f) in universe.faults().iter().enumerate() {
            let expected = oracle_first_detection(&netlist, f, width);
            match (expected, list.status(id)) {
                (None, warpstl_fault::FaultStatus::Undetected) => {}
                (Some(v), warpstl_fault::FaultStatus::Detected { cc, pattern, .. }) => {
                    // Drop mode over an in-order sweep records the *first*
                    // detecting assignment; cc stamps are the assignment
                    // values here.
                    prop_assert_eq!(pattern as u64, v, "{} first-detection pattern", f);
                    prop_assert_eq!(cc, v, "{} first-detection cc", f);
                }
                (exp, got) => {
                    prop_assert!(false, "{}: oracle {:?}, simulator {:?}", f, exp, got);
                }
            }
        }
    }

    #[test]
    fn bridge_event_and_kernel_paths_are_bit_identical(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..48,
        ),
        seed in any::<u64>(),
        drop in any::<bool>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let universe = BridgeUniverse::sample(&netlist, &BridgeConfig { pairs: 48, seed });
        let patterns = exhaustive(netlist.inputs().width());
        let cfg = |backend| FaultSimConfig {
            drop_detected: drop,
            early_exit: drop,
            threads: 1,
            backend,
        };

        let mut event_list = universe.new_list();
        let event = fault_simulate(&netlist, &patterns, &mut event_list, &cfg(SimBackend::Event), None, &SimGuide::default());
        let mut kernel_list = universe.new_list();
        let kernel =
            fault_simulate(&netlist, &patterns, &mut kernel_list, &cfg(SimBackend::Kernel), None, &SimGuide::default());

        prop_assert_eq!(&kernel, &event, "report diverged");
        prop_assert_eq!(
            kernel_list.to_report_text(),
            event_list.to_report_text(),
            "list state diverged"
        );
    }

    #[test]
    fn non_drop_activation_counts_differing_endpoints(
        n_inputs in 2usize..5,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..24,
        ),
        seed in any::<u64>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let width = netlist.inputs().width();
        let universe = BridgeUniverse::sample(&netlist, &BridgeConfig { pairs: 16, seed });
        let patterns = exhaustive(width);
        let cfg = FaultSimConfig {
            drop_detected: false,
            early_exit: false,
            threads: 1,
            backend: SimBackend::Event,
        };
        let mut list = universe.new_list();
        let report = fault_simulate(&netlist, &patterns, &mut list, &cfg, None, &SimGuide::default());

        for (t, stats) in report.patterns().iter().enumerate() {
            let good = scalar_eval(&netlist, t as u64, None);
            let expected = universe
                .faults()
                .iter()
                .filter(|f| good[f.a.index()] != good[f.b.index()])
                .count() as u32;
            prop_assert_eq!(stats.activated, expected, "pattern {}", t);
        }
    }
}

/// The event/kernel identity on a real module's sampled bridges, across
/// the kernel's 1024-pattern window boundaries (one short of a window, one
/// past it, and two windows plus a masked tail), with threading in the mix.
#[test]
fn module_bridge_kernel_identity_across_windows() {
    let netlist = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
    let universe = BridgeUniverse::sample(&netlist, &BridgeConfig::default());
    assert!(!universe.is_empty());
    for n_pat in [1023usize, 1025, 2148] {
        let patterns =
            pseudorandom_patterns(netlist.inputs().width(), n_pat, 0xb41d ^ n_pat as u64);
        for drop in [true, false] {
            for threads in [1usize, 2] {
                let cfg = |backend| FaultSimConfig {
                    drop_detected: drop,
                    early_exit: drop,
                    threads,
                    backend,
                };
                let at = format!("{n_pat} patterns, drop={drop}, {threads} threads");
                assert_backends_agree(&netlist, &patterns, cfg, || universe.new_list(), &at);
            }
        }
    }
}
