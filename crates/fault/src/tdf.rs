//! Transition-delay faults (the paper's future-work fault model).
//!
//! A transition fault makes a line *slow to rise* or *slow to fall*: it is
//! detected by a pattern **pair** — the first pattern sets the line to the
//! initial value, the second launches the transition and must propagate the
//! stale value to an observable output. [`TransitionFault`] is an
//! [`Injectable`] whose activation is the set of launch patterns, so a TDF
//! ledger is a plain [`FaultList`](crate::FaultList) over the faults of
//! [`enumerate`], simulated by [`fault_simulate`](crate::fault_simulate)
//! like any other model. Because the compaction method's Fault Sim Report
//! interface is just "detections per clock cycle", its output plugs into
//! the unchanged instruction-labeling and reduction stages.
//!
//! # Examples
//!
//! ```
//! use warpstl_fault::{fault_simulate, tdf, FaultList, FaultSimConfig, SimGuide};
//! use warpstl_netlist::{Builder, PatternSeq};
//!
//! let mut b = Builder::new("buf");
//! let x = b.input("x");
//! let y = b.buf(x);
//! b.output("y", y);
//! let n = b.finish();
//!
//! let mut list = FaultList::from_faults(tdf::enumerate(&n));
//! let mut p = PatternSeq::new(1);
//! p.push_value(0, 0);
//! p.push_value(1, 1); // launches the rising transition
//! p.push_value(2, 0); // launches the falling transition
//! fault_simulate(&n, &p, &mut list, &FaultSimConfig::default(), None, &SimGuide::default());
//! assert_eq!(list.coverage(), 1.0);
//! ```

use warpstl_netlist::{Gate, GateKind, NetId, Netlist};

use crate::{FaultSite, Injectable};

/// The slow transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Transition {
    /// Slow to rise (behaves as stuck-at-0 during a 0→1 launch).
    SlowToRise,
    /// Slow to fall (behaves as stuck-at-1 during a 1→0 launch).
    SlowToFall,
}

impl Transition {
    /// Both directions.
    pub const BOTH: [Transition; 2] = [Transition::SlowToRise, Transition::SlowToFall];
}

impl std::fmt::Display for Transition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transition::SlowToRise => "STR",
            Transition::SlowToFall => "STF",
        })
    }
}

/// A transition-delay fault on a gate-output line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionFault {
    /// The faulted line (stem).
    pub net: NetId,
    /// The slow direction.
    pub transition: Transition,
}

impl std::fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.net, self.transition)
    }
}

/// The stale value is forced on the stem in *launch* lanes only — the
/// patterns where the good machine moved the line in the slow direction
/// since the previous pattern. Elsewhere the forced word equals the good
/// word, so the fault is inert there.
impl Injectable for TransitionFault {
    fn sites(&self) -> impl IntoIterator<Item = FaultSite> {
        [FaultSite::Output(self.net)]
    }

    /// The launch lanes: `good & !prev` for a slow rise, `!good & prev`
    /// for a slow fall.
    fn activation(
        &self,
        _gates: &[Gate],
        good: impl Fn(usize) -> u64,
        prev: impl Fn(usize) -> u64,
    ) -> u64 {
        let (now, before) = (good(self.net.index()), prev(self.net.index()));
        match self.transition {
            Transition::SlowToRise => now & !before,
            Transition::SlowToFall => !now & before,
        }
    }

    /// The good word with the launch lanes held at the stale value.
    fn forced(&self, good: impl Fn(usize) -> u64, prev: impl Fn(usize) -> u64) -> u64 {
        good(self.net.index()) ^ self.activation(&[], &good, &prev)
    }
}

/// Both transitions on every gate-output line, in gate order, rising
/// first (constants excluded: they never transition). Build the ledger
/// with [`FaultList::from_faults`](crate::FaultList::from_faults).
#[must_use]
pub fn enumerate(netlist: &Netlist) -> Vec<TransitionFault> {
    netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| !matches!(g.kind, GateKind::Const0 | GateKind::Const1))
        .flat_map(|(i, _)| {
            Transition::BOTH.map(|transition| TransitionFault {
                net: NetId(i as u32),
                transition,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fault_simulate, FaultList, FaultSimConfig, FaultSimReport, FaultStatus, SimGuide};
    use warpstl_netlist::{Builder, PatternSeq};

    type TdfList = FaultList<TransitionFault>;

    fn tdf_list(n: &Netlist) -> TdfList {
        FaultList::from_faults(enumerate(n))
    }

    fn simulate(
        n: &Netlist,
        p: &PatternSeq,
        list: &mut TdfList,
        cfg: &FaultSimConfig,
    ) -> FaultSimReport {
        fault_simulate(n, p, list, cfg, None, &SimGuide::default())
    }

    fn detected_at(list: &TdfList, i: usize) -> Option<u64> {
        match list.status(i) {
            FaultStatus::Detected { cc, .. } => Some(cc),
            FaultStatus::Undetected => None,
        }
    }

    fn and2() -> Netlist {
        let mut b = Builder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and(x, y);
        b.output("z", z);
        b.finish()
    }

    #[test]
    fn single_pattern_detects_nothing() {
        // Transition faults need pairs: one pattern cannot launch.
        let n = and2();
        let mut list = tdf_list(&n);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b11);
        let r = simulate(&n, &p, &mut list, &FaultSimConfig::default());
        assert_eq!(r.total_detected(), 0);
        assert_eq!(list.coverage(), 0.0);
    }

    #[test]
    fn rising_pair_detects_slow_to_rise() {
        let n = and2();
        let mut list = tdf_list(&n);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b01); // z = 0, x = 1, y = 0
        p.push_value(1, 0b11); // z rises, x holds, y rises
        simulate(&n, &p, &mut list, &FaultSimConfig::default());
        // Detected: z/STR (z rose and the stale 0 is visible) and y/STR
        // (y's rise is what made z rise). x held, so x/STR launched nothing.
        let detected: Vec<String> = (0..list.len())
            .filter(|&i| detected_at(&list, i).is_some())
            .map(|i| list.fault(i).to_string())
            .collect();
        assert!(detected.contains(&"n2/STR".to_string()), "{detected:?}");
        assert!(detected.contains(&"n1/STR".to_string()), "{detected:?}");
        assert!(!detected.contains(&"n0/STR".to_string()), "{detected:?}");
        assert!(!detected.iter().any(|d| d.ends_with("STF")));
    }

    #[test]
    fn exhaustive_walk_covers_all_transitions() {
        // A walk that rises and falls every line with propagation.
        let n = and2();
        let mut list = tdf_list(&n);
        let mut p = PatternSeq::new(2);
        for (cc, v) in [
            (0, 0b01),
            (1, 0b11),
            (2, 0b01),
            (3, 0b10),
            (4, 0b11),
            (5, 0b10),
        ] {
            p.push_value(cc, v);
        }
        simulate(&n, &p, &mut list, &FaultSimConfig::default());
        assert_eq!(
            list.coverage(),
            1.0,
            "undetected: {:?}",
            list.undetected()
                .map(|i| list.fault(i).to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn detection_stamps_use_the_launch_cycle() {
        let n = and2();
        let mut list = tdf_list(&n);
        let mut p = PatternSeq::new(2);
        p.push_value(100, 0b01);
        p.push_value(200, 0b11);
        simulate(&n, &p, &mut list, &FaultSimConfig::default());
        for i in 0..list.len() {
            if let Some(cc) = detected_at(&list, i) {
                assert_eq!(cc, 200, "{}", list.fault(i));
            }
        }
    }

    #[test]
    fn dropping_skips_detected() {
        let n = and2();
        let mut list = tdf_list(&n);
        let mut p = PatternSeq::new(2);
        for (cc, v) in [
            (0, 0b01),
            (1, 0b11),
            (2, 0b01),
            (3, 0b10),
            (4, 0b11),
            (5, 0b10),
        ] {
            p.push_value(cc, v);
        }
        let cfg = FaultSimConfig::default();
        simulate(&n, &p, &mut list, &cfg);
        let r2 = simulate(&n, &p, &mut list, &cfg);
        assert_eq!(r2.total_detected(), 0);
        list.reset();
        assert_eq!(list.coverage(), 0.0);
    }

    #[test]
    fn tdf_coverage_is_harder_than_stuck_at() {
        // On the decoder unit with random patterns, transition coverage
        // trails stuck-at coverage (pairs are harder than single patterns).
        let n = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
        let width = n.inputs().width();
        let mut p = PatternSeq::new(width);
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for cc in 0..60 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bits: Vec<bool> = (0..width).map(|b| (x >> (b % 64)) & 1 == 1).collect();
            p.push_bits(cc, &bits);
        }
        let mut tdf = tdf_list(&n);
        simulate(&n, &p, &mut tdf, &FaultSimConfig::default());

        let u = crate::FaultUniverse::enumerate(&n);
        let mut sa = crate::FaultList::new(&u);
        let cfg = FaultSimConfig::default();
        crate::fault_simulate(&n, &p, &mut sa, &cfg, None, &crate::SimGuide::default());
        assert!(
            tdf.coverage() < sa.coverage(),
            "TDF {} >= SA {}",
            tdf.coverage(),
            sa.coverage()
        );
        assert!(tdf.coverage() > 0.05, "TDF {}", tdf.coverage());
    }
}
