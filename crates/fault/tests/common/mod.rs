//! Helpers shared by the fault crate's property suites: random netlists,
//! pattern sequences, a scalar reference evaluator, and the event/kernel
//! identity assertion.

// Each suite compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use std::fmt::Display;

use warpstl_fault::{
    fault_simulate, FaultList, FaultSimConfig, FaultSite, Injectable, SimBackend, SimGuide,
};
use warpstl_netlist::{Builder, GateKind, NetId, Netlist, PatternSeq};

/// One random gate: `kind` selects the operator, `a`/`b`/`c` pick
/// operands among the already-built nets (mod current count).
pub type GateSpec = (u8, u8, u8, u8);

/// Builds a random combinational netlist from a gate-spec list: every gate
/// reads already-existing nets, and the tail nets become outputs so late
/// logic stays observable.
pub fn build_netlist(n_inputs: usize, specs: &[GateSpec]) -> Netlist {
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

/// `count` xorshift patterns of `width` bits, stamped `cc = t`.
pub fn pseudorandom_patterns(width: usize, count: usize, mut seed: u64) -> PatternSeq {
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

/// Every assignment of `width` inputs in counting order, stamped with
/// its own value.
pub fn exhaustive(width: usize) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for v in 0..(1u64 << width) {
        p.push_value(v, v);
    }
    p
}

/// Scalar single-assignment evaluation; `force` injects the value `w` at
/// nets `a` and `b` as their outputs are computed (exact when neither lies
/// in the other's fanout cone).
pub fn scalar_eval(
    netlist: &Netlist,
    assignment: u64,
    force: Option<(usize, usize, bool)>,
) -> Vec<bool> {
    let gates = netlist.gates();
    let mut vals = vec![false; gates.len()];
    for (bit_pos, net) in netlist.inputs().nets().iter().enumerate() {
        vals[net.index()] = (assignment >> bit_pos) & 1 == 1;
    }
    for i in 0..gates.len() {
        let g = &gates[i];
        let v = match g.kind {
            GateKind::Input => vals[i],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Dff => unreachable!("combinational only"),
            kind => {
                let p = g.pins;
                let word = |b: bool| if b { !0u64 } else { 0 };
                let a = word(vals[p[0].index()]);
                let (b, c) = match kind.arity() {
                    2 => (word(vals[p[1].index()]), 0),
                    3 => (word(vals[p[1].index()]), word(vals[p[2].index()])),
                    _ => (0, 0),
                };
                kind.eval(a, b, c) & 1 == 1
            }
        };
        vals[i] = match force {
            Some((a, b, w)) if i == a || i == b => w,
            _ => v,
        };
    }
    vals
}

/// Whether any module output differs between two scalar evaluations.
pub fn outputs_differ(netlist: &Netlist, good: &[bool], faulty: &[bool]) -> bool {
    netlist
        .outputs()
        .nets()
        .iter()
        .any(|o| good[o.index()] != faulty[o.index()])
}

/// Checks [`Injectable::activation`] over pattern lanes: lane `l` applies
/// `values[l]` (at most 64 of them) and launches from `values[l - 1]` (the
/// first lane is its own predecessor). Each fault's activation lanes must
/// be exactly the lanes where its forced value differs from the fault-free
/// value at one of its sites — for a pin site, the value of the net
/// driving the pin. That is the condition the kernel's block screen relies
/// on: a block with no activation lane is skipped unsimulated.
pub fn assert_activation_marks_differing_sites<F: Injectable + Display>(
    netlist: &Netlist,
    values: &[u64],
    faults: &[F],
) {
    assert!(!values.is_empty() && values.len() <= 64);
    let lanes = |assignments: &mut dyn Iterator<Item = u64>| {
        let mut words = vec![0u64; netlist.gates().len()];
        for (l, v) in assignments.enumerate() {
            for (n, bit) in scalar_eval(netlist, v, None).into_iter().enumerate() {
                words[n] |= u64::from(bit) << l;
            }
        }
        words
    };
    let good = lanes(&mut values.iter().copied());
    let before = &values[..values.len() - 1];
    let prev = lanes(&mut std::iter::once(values[0]).chain(before.iter().copied()));
    let mask = u64::MAX >> (64 - values.len());
    let gates = netlist.gates();
    for f in faults {
        let activation = f.activation(gates, |n| good[n], |n| prev[n]) & mask;
        let forced = f.forced(|n| good[n], |n| prev[n]);
        let differs = f
            .sites()
            .into_iter()
            .map(|site| match site {
                FaultSite::Output(n) => good[n.index()],
                FaultSite::InputPin(n, p) => good[gates[n.index()].pins[p as usize].index()],
            })
            .fold(0u64, |acc, site_good| acc | (forced ^ site_good))
            & mask;
        assert_eq!(
            activation, differs,
            "{f}: activation {activation:#x}, forced differs at {differs:#x}"
        );
    }
}

/// `count` xorshift assignments of `width` bits (`width < 64`).
pub fn pseudorandom_values(width: usize, count: usize, mut seed: u64) -> Vec<u64> {
    (0..count)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed & ((1 << width) - 1)
        })
        .collect()
}

/// Simulates `patterns` on the event path and on the kernel, each from a
/// `fresh` list, and asserts identical reports and list states.
pub fn assert_backends_agree<F: Injectable + Display>(
    netlist: &Netlist,
    patterns: &PatternSeq,
    cfg: impl Fn(SimBackend) -> FaultSimConfig,
    fresh: impl Fn() -> FaultList<F>,
    at: &str,
) {
    let guide = SimGuide::default();
    let mut event_list = fresh();
    let event = fault_simulate(
        netlist,
        patterns,
        &mut event_list,
        &cfg(SimBackend::Event),
        None,
        &guide,
    );
    let mut kernel_list = fresh();
    let kernel = fault_simulate(
        netlist,
        patterns,
        &mut kernel_list,
        &cfg(SimBackend::Kernel),
        None,
        &guide,
    );
    assert_eq!(kernel, event, "{at}");
    assert_eq!(
        kernel_list.to_report_text(),
        event_list.to_report_text(),
        "{at}"
    );
}
