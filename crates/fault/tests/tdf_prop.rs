//! Transition-fault properties:
//!
//! 1. On small random combinational netlists under random pattern
//!    sequences, every transition fault's first detection matches a scalar
//!    oracle — the first pattern `t >= 1` whose predecessor holds the line
//!    at the initial value, that moves it to the final value, and at which
//!    the stale initial value changes a module output — on both engine
//!    loops, in drop and non-drop mode.
//! 2. The event and kernel loops are **bit-identical** on transition faults
//!    of a real module across block shapes and the kernel's 1024-pattern
//!    windows, whose first lane launches from the previous window's last
//!    good value.

use proptest::prelude::*;

use warpstl_fault::tdf::{self, Transition, TransitionFault};
use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultStatus, SimBackend, SimGuide};
use warpstl_netlist::{Netlist, PatternSeq};

mod common;
use common::{
    assert_backends_agree, build_netlist, outputs_differ, pseudorandom_patterns, scalar_eval,
};

/// The oracle: the first pattern launching `f`'s transition at which the
/// stale value changes an output. `good[t]` is the scalar good machine
/// under assignment `values[t]`.
fn oracle_first_detection(
    netlist: &Netlist,
    f: TransitionFault,
    values: &[u64],
    good: &[Vec<bool>],
) -> Option<usize> {
    let net = f.net.index();
    let initial = f.transition == Transition::SlowToFall;
    (1..values.len()).find(|&t| {
        good[t - 1][net] == initial
            && good[t][net] != initial
            && outputs_differ(
                netlist,
                &good[t],
                &scalar_eval(netlist, values[t], Some((net, net, initial))),
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tdf_simulation_matches_scalar_oracle(
        n_inputs in 2usize..6,
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            4..32,
        ),
        seed in any::<u64>(),
        n_pat in 1usize..300,
        drop in any::<bool>(),
    ) {
        let netlist = build_netlist(n_inputs, &specs);
        let width = netlist.inputs().width();
        let mut x = seed | 1;
        let values: Vec<u64> = (0..n_pat)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & ((1 << width) - 1)
            })
            .collect();
        // Stamps differ from pattern indices so both are checked.
        let mut patterns = PatternSeq::new(width);
        for (t, &v) in values.iter().enumerate() {
            patterns.push_value(3 * t as u64 + 1, v);
        }
        let good: Vec<Vec<bool>> = values.iter().map(|&v| scalar_eval(&netlist, v, None)).collect();
        let faults = tdf::enumerate(&netlist);

        for backend in [SimBackend::Event, SimBackend::Kernel] {
            let cfg = FaultSimConfig {
                drop_detected: drop,
                early_exit: drop,
                threads: 1,
                backend,
            };
            let mut list = FaultList::from_faults(faults.clone());
            fault_simulate(&netlist, &patterns, &mut list, &cfg, None, &SimGuide::default());
            for (id, &f) in faults.iter().enumerate() {
                match (oracle_first_detection(&netlist, f, &values, &good), list.status(id)) {
                    (None, FaultStatus::Undetected) => {}
                    (Some(t), FaultStatus::Detected { cc, pattern, .. }) => {
                        prop_assert_eq!(pattern, t, "{} on {}", f, backend);
                        prop_assert_eq!(cc, 3 * t as u64 + 1, "{} on {}", f, backend);
                    }
                    (exp, got) => {
                        prop_assert!(false, "{} on {}: oracle {:?}, simulator {:?}", f, backend, exp, got);
                    }
                }
            }
        }
    }
}

/// The event/kernel identity on the decoder unit's transition faults, in
/// drop and non-drop mode (whose per-pattern activation tallies count
/// every launch, so a wrong window carry shows at patterns 1024 and 2048),
/// with threading in the mix.
#[test]
fn module_tdf_kernel_identity_across_windows() {
    let netlist = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
    let faults = tdf::enumerate(&netlist);
    // 100 (narrow + masked tail), 320 (wide + narrow), 1023 (one short of
    // a window), 1025 (one window + a one-pattern window), 2148 (two
    // windows + a masked tail).
    for n_pat in [100usize, 320, 1023, 1025, 2148] {
        let patterns =
            pseudorandom_patterns(netlist.inputs().width(), n_pat, 0x7df0 ^ n_pat as u64);
        for drop in [true, false] {
            for threads in [1usize, 2] {
                let cfg = |backend| FaultSimConfig {
                    drop_detected: drop,
                    early_exit: drop,
                    threads,
                    backend,
                };
                let at = format!("{n_pat} patterns, drop={drop}, {threads} threads");
                let fresh = || FaultList::from_faults(faults.clone());
                assert_backends_agree(&netlist, &patterns, cfg, fresh, &at);
            }
        }
    }
}
