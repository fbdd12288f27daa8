//! Single stuck-at faults and their sites.

use std::fmt;

use warpstl_netlist::{Gate, NetId};

/// The stuck value of a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// Stuck-at-0.
    Sa0,
    /// Stuck-at-1.
    Sa1,
}

impl Polarity {
    /// Both polarities.
    pub const BOTH: [Polarity; 2] = [Polarity::Sa0, Polarity::Sa1];

    /// The stuck logic value.
    #[must_use]
    pub fn value(self) -> bool {
        self == Polarity::Sa1
    }

    /// The opposite polarity.
    #[must_use]
    pub fn inverted(self) -> Polarity {
        match self {
            Polarity::Sa0 => Polarity::Sa1,
            Polarity::Sa1 => Polarity::Sa0,
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Polarity::Sa0 => "SA0",
            Polarity::Sa1 => "SA1",
        })
    }
}

/// Where a fault sits: a net (gate-output stem) or a gate input pin
/// (fanout branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The output net of a gate (stem fault).
    Output(NetId),
    /// Input pin `pin` of the gate driving `NetId` (branch fault).
    InputPin(NetId, u8),
}

impl FaultSite {
    /// The gate the site belongs to.
    #[must_use]
    pub fn gate(self) -> NetId {
        match self {
            FaultSite::Output(n) | FaultSite::InputPin(n, _) => n,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Output(n) => write!(f, "{n}"),
            FaultSite::InputPin(n, p) => write!(f, "{n}.in{p}"),
        }
    }
}

/// A single stuck-at fault.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{Fault, FaultSite, Polarity};
/// use warpstl_netlist::{Gate, NetId};
///
/// let f = Fault::new(FaultSite::Output(NetId(3)), Polarity::Sa1);
/// assert_eq!(f.to_string(), "n3/SA1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault {
    /// The fault site.
    pub site: FaultSite,
    /// The stuck value.
    pub polarity: Polarity,
}

impl Fault {
    /// Creates a fault.
    #[must_use]
    pub fn new(site: FaultSite, polarity: Polarity) -> Fault {
        Fault { site, polarity }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.site, self.polarity)
    }
}

/// A fault model the simulation engine can inject. Both engine loops are
/// generic over it — the event path, whose 64-bit word lanes are faulty
/// machines, and the levelized kernel, whose lanes are patterns — so every
/// model shares the engine's batching, cone pruning, threading and
/// windowing, and [`fault_simulate`](crate::fault_simulate) is one entry
/// point for all of them.
///
/// A fault forces one value at one or more sites. `good` maps a net index
/// to that net's fault-free word in the lanes being simulated, and `prev`
/// to its fault-free word one pattern earlier (the first pattern of a
/// sequence is its own predecessor). Stuck-at and bridging faults ignore
/// `prev`; transition faults launch from it.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{Fault, FaultSite, Injectable, Polarity};
/// use warpstl_netlist::NetId;
///
/// let f = Fault::new(FaultSite::Output(NetId(0)), Polarity::Sa1);
/// let good = |_net: usize| 0b0101u64;
/// let prev = |_net: usize| 0b0011u64;
/// assert_eq!(f.forced(good, prev), !0); // stuck-at-1 forces all ones
/// assert_eq!(f.activation(&[], good, prev), !0b0101); // active where good is 0
/// ```
pub trait Injectable: Copy + Send + Sync {
    /// The sites the fault forces its value at: gate outputs (stems) or
    /// gate input pins (branches). No site may lie in the fanout cone of
    /// another, so the good machine determines the forced value exactly.
    fn sites(&self) -> impl IntoIterator<Item = FaultSite>;

    /// The lanes in which the fault is activated: where the forced value
    /// differs from a site's fault-free value.
    fn activation(
        &self,
        gates: &[Gate],
        good: impl Fn(usize) -> u64,
        prev: impl Fn(usize) -> u64,
    ) -> u64;

    /// The value forced at every site.
    fn forced(&self, good: impl Fn(usize) -> u64, prev: impl Fn(usize) -> u64) -> u64;
}

impl Injectable for Fault {
    fn sites(&self) -> impl IntoIterator<Item = FaultSite> {
        [self.site]
    }

    fn activation(
        &self,
        gates: &[Gate],
        good: impl Fn(usize) -> u64,
        _prev: impl Fn(usize) -> u64,
    ) -> u64 {
        let src = match self.site {
            FaultSite::Output(n) => n.index(),
            FaultSite::InputPin(n, p) => gates[n.index()].pins[p as usize].index(),
        };
        let g = good(src);
        if self.polarity.value() {
            !g
        } else {
            g
        }
    }

    fn forced(&self, _good: impl Fn(usize) -> u64, _prev: impl Fn(usize) -> u64) -> u64 {
        if self.polarity.value() {
            !0
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_helpers() {
        assert!(!Polarity::Sa0.value());
        assert!(Polarity::Sa1.value());
        assert_eq!(Polarity::Sa0.inverted(), Polarity::Sa1);
        assert_eq!(Polarity::Sa1.inverted(), Polarity::Sa0);
    }

    #[test]
    fn display_formats() {
        let f = Fault::new(FaultSite::InputPin(NetId(7), 1), Polarity::Sa0);
        assert_eq!(f.to_string(), "n7.in1/SA0");
        assert_eq!(f.site.gate(), NetId(7));
    }

    #[test]
    fn ordering_is_total() {
        let a = Fault::new(FaultSite::Output(NetId(1)), Polarity::Sa0);
        let b = Fault::new(FaultSite::Output(NetId(1)), Polarity::Sa1);
        let c = Fault::new(FaultSite::InputPin(NetId(0), 0), Polarity::Sa0);
        let mut v = vec![b, c, a];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }
}
