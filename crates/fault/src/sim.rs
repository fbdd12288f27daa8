//! The fault-simulation entry point, its configuration, and the serial
//! stuck-at reference engine.

use warpstl_netlist::{GateKind, Levelization, Netlist, PatternSeq};

use crate::{FaultId, FaultList, FaultSimReport, FaultSite, Injectable, Polarity};

/// Which simulation path the engine runs.
///
/// Both backends produce **bit-identical** results — same detection stamps,
/// same per-pattern tallies, same report — so the choice is purely a
/// performance knob and is deliberately excluded from the artifact-store
/// cache key (`key_fsim`): entries written by either backend replay
/// interchangeably.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// Resolve via `WARPSTL_SIM_BACKEND` if set, else pick the levelized
    /// kernel for combinational netlists and the event path otherwise.
    #[default]
    Auto,
    /// The event-style loop: per-gate dispatch over 63-fault batch words,
    /// one pattern at a time. The only loop that carries flip-flop state,
    /// so sequential netlists always use it; it is also the test oracle
    /// for the kernel.
    Event,
    /// The levelized SoA kernel: rank-major, kind-segmented evaluation over
    /// 256-bit pattern blocks (4×u64) in fixed pattern windows, one fault
    /// at a time, with a 64-bit remainder path. Combinational only —
    /// sequential netlists fall back to [`SimBackend::Event`].
    Kernel,
}

impl SimBackend {
    /// Parses a backend name (`auto`, `event`, or `kernel`),
    /// case-insensitively. Returns `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<SimBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SimBackend::Auto),
            "event" => Some(SimBackend::Event),
            "kernel" => Some(SimBackend::Kernel),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimBackend::Auto => "auto",
            SimBackend::Event => "event",
            SimBackend::Kernel => "kernel",
        })
    }
}

/// Configuration of a fault-simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSimConfig {
    /// Simulate only still-undetected faults and record first detections
    /// (the paper's fault-dropping mode). When `false`, every fault is
    /// simulated across the whole sequence and the per-pattern report counts
    /// *all* faults observed at each cycle, not just new ones.
    pub drop_detected: bool,
    /// Stop a fault batch early once all of its faults are detected
    /// (only meaningful with `drop_detected`).
    pub early_exit: bool,
    /// Worker threads for batch-level parallelism. `0` (the default) means
    /// auto: the `WARPSTL_THREADS` environment variable if set, otherwise
    /// the machine's available parallelism. Requests beyond the host's
    /// available parallelism are clamped to it (oversubscription only adds
    /// scheduling overhead), and results are bit-identical for every
    /// thread count.
    pub threads: usize,
    /// Simulation path selection. [`SimBackend::Auto`] (the default)
    /// consults `WARPSTL_SIM_BACKEND` and otherwise picks the levelized
    /// kernel for combinational netlists. Results are bit-identical across
    /// backends, and the choice is excluded from artifact-cache keys.
    pub backend: SimBackend,
}

impl FaultSimConfig {
    /// The worker count this configuration resolves to: `threads` if
    /// nonzero, else `WARPSTL_THREADS`, else the machine's available
    /// parallelism — clamped to the host's available parallelism in every
    /// case. Callers running several simulations concurrently can use this
    /// to split the budget across them.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        crate::engine::resolve_threads(self)
    }

    /// The backend this configuration resolves to for a netlist that is
    /// (`combinational == true`) or is not purely combinational: `backend`
    /// if not [`SimBackend::Auto`], else `WARPSTL_SIM_BACKEND`, else auto —
    /// with the kernel falling back to [`SimBackend::Event`] on sequential
    /// netlists (only the event path carries flip-flop state). Never
    /// returns `Auto`, nor `Kernel` for sequential input.
    #[must_use]
    pub fn resolved_backend(&self, combinational: bool) -> SimBackend {
        crate::engine::resolve_backend(self, combinational)
    }
}

impl Default for FaultSimConfig {
    fn default() -> Self {
        FaultSimConfig {
            drop_detected: true,
            early_exit: true,
            threads: 0,
            backend: SimBackend::Auto,
        }
    }
}

/// Static-analysis guidance for a fault-simulation run — the bridge from
/// `warpstl-analyze` and the module context to the engine without a crate
/// dependency.
///
/// Both fields are optional and independent; the default (all `None`)
/// simulates every target with a per-run levelization.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimGuide<'a> {
    /// Per-fault untestability bitmap, indexed by [`FaultId`]: classes the
    /// static implication engine proved redundant are excluded from the
    /// target list entirely — they can never be detected, so the detected
    /// set is bit-identical to the unpruned run while the engine skips
    /// their batches. Because the *pattern tallies* of the report change
    /// with the target set, this field participates in cache keys
    /// (`key_fsim`), unlike `levels`.
    pub untestable: Option<&'a [bool]>,
    /// Precomputed [`Levelization`] of the netlist (rank-major SoA layout
    /// for the levelized kernel). Purely an accelerator: when `None` the
    /// engine levelizes on demand, and the results are identical either
    /// way, so this never enters cache keys. Callers holding a
    /// `ModuleContext` pass its cached copy.
    pub levels: Option<&'a Levelization>,
}

/// Runs one fault simulation of `patterns` against `netlist`, updating
/// `list` and returning the per-pattern Fault Sim Report. The one entry
/// point for every fault model: stuck-at ([`Fault`](crate::Fault)),
/// bridging ([`BridgeFault`](crate::BridgeFault)) and transition-delay
/// ([`TransitionFault`](crate::tdf::TransitionFault)) lists alike, through
/// any [`Injectable`] model.
///
/// Faults are simulated in independent 63-fault batches, pruned to the
/// fanout cone of their injection sites and fanned out over
/// [`FaultSimConfig::threads`] workers (see [`crate::engine`]). Each worker
/// runs the levelized kernel on combinational netlists and the event path
/// — 63 faulty machines plus the good machine per 64-bit word, one pattern
/// at a time, with per-lane flip-flop state — otherwise. Discrepancies are
/// observed at the module outputs (the paper's *module-level fault
/// observability*). The report is bit-identical for every thread count and
/// backend, and to the serial [`fault_simulate_reference`].
///
/// When `obs` is `Some(recorder)`, the engine emits `fsim.run` /
/// `fsim.worker` / `fsim.group` / `fsim.kernel` spans and its internal
/// counters (batches, cone-prune sizes, detections, activations, early
/// exits); with `None` it reads no clock and takes no lock. `guide`
/// carries static pruning and a cached levelization (see [`SimGuide`]).
///
/// # Panics
///
/// Panics if `patterns.width()` differs from the netlist's input width.
///
/// # Examples
///
/// ```
/// use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse, SimGuide};
/// use warpstl_netlist::{Builder, PatternSeq};
///
/// let mut b = Builder::new("xor2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.xor(x, y);
/// b.output("z", z);
/// let n = b.finish();
///
/// let universe = FaultUniverse::enumerate(&n);
/// let mut list = FaultList::new(&universe);
/// let mut pats = PatternSeq::new(2);
/// for (cc, v) in [(0, 0b00), (1, 0b01), (2, 0b10), (3, 0b11)] {
///     pats.push_value(cc, v);
/// }
/// let cfg = FaultSimConfig::default();
/// let report = fault_simulate(&n, &pats, &mut list, &cfg, None, &SimGuide::default());
/// assert_eq!(list.coverage(), 1.0); // exhaustive patterns test XOR fully
/// assert_eq!(report.total_detected() as usize, list.len());
/// ```
pub fn fault_simulate<F: Injectable>(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList<F>,
    config: &FaultSimConfig,
    obs: warpstl_obs::Obs<'_>,
    guide: &SimGuide<'_>,
) -> FaultSimReport {
    crate::engine::simulate(netlist, patterns, list, config, obs, guide)
}

/// The original single-threaded engine, kept as the oracle for the parallel
/// engine's equivalence tests and as the `threads = 1`, no-pruning baseline
/// for benchmarks. Evaluates the *whole* netlist once per pattern per batch.
///
/// Semantics are identical to [`fault_simulate`]; prefer that entry point.
///
/// # Panics
///
/// Panics if `patterns.width()` differs from the netlist's input width.
pub fn fault_simulate_reference(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList,
    config: &FaultSimConfig,
) -> FaultSimReport {
    assert_eq!(
        patterns.width(),
        netlist.inputs().width(),
        "pattern width must match netlist inputs"
    );
    list.begin_run();
    let mut report = FaultSimReport::new();

    let targets: Vec<FaultId> = if config.drop_detected {
        list.undetected().collect()
    } else {
        (0..list.len()).collect()
    };

    let n_pat = patterns.len();
    let mut activated_per_pattern = vec![0u32; n_pat];
    let mut detected_per_pattern = vec![0u32; n_pat];

    let gates = netlist.gates();
    let out_nets: Vec<usize> = netlist.outputs().nets().iter().map(|n| n.index()).collect();
    let in_nets: Vec<usize> = netlist.inputs().nets().iter().map(|n| n.index()).collect();
    let dff_nets: Vec<usize> = netlist.dffs().iter().map(|n| n.index()).collect();

    let mut values = vec![0u64; gates.len()];
    // Injection tables: per-gate output masks and per-pin masks. At most 63
    // gates per batch carry an injection, so `injected` gives the gate loop
    // a mask-free fast path for everything else.
    let mut out_sa0 = vec![0u64; gates.len()];
    let mut out_sa1 = vec![0u64; gates.len()];
    let mut pin_sa0 = vec![[0u64; 3]; gates.len()];
    let mut pin_sa1 = vec![[0u64; 3]; gates.len()];
    let mut injected = vec![false; gates.len()];
    let mut dirty: Vec<usize> = Vec::new();

    for batch in targets.chunks(63) {
        // Build injection masks; lane 0 is the good machine.
        for d in dirty.drain(..) {
            out_sa0[d] = 0;
            out_sa1[d] = 0;
            pin_sa0[d] = [0; 3];
            pin_sa1[d] = [0; 3];
            injected[d] = false;
        }
        let mut lane_fault: Vec<FaultId> = Vec::with_capacity(batch.len());
        for (lane0, &fid) in batch.iter().enumerate() {
            let lane = lane0 + 1;
            let bit = 1u64 << lane;
            let f = list.fault(fid);
            match f.site {
                FaultSite::Output(n) => {
                    let g = n.index();
                    match f.polarity {
                        Polarity::Sa0 => out_sa0[g] |= bit,
                        Polarity::Sa1 => out_sa1[g] |= bit,
                    }
                    injected[g] = true;
                    dirty.push(g);
                }
                FaultSite::InputPin(n, p) => {
                    let g = n.index();
                    match f.polarity {
                        Polarity::Sa0 => pin_sa0[g][p as usize] |= bit,
                        Polarity::Sa1 => pin_sa1[g][p as usize] |= bit,
                    }
                    injected[g] = true;
                    dirty.push(g);
                }
            }
            lane_fault.push(fid);
        }
        let lanes_mask: u64 = if batch.len() == 63 {
            !1u64
        } else {
            ((1u64 << (batch.len() + 1)) - 1) & !1
        };

        values.fill(0);
        let mut state = vec![0u64; dff_nets.len()];
        let mut detected_mask: u64 = 0;

        for t in 0..n_pat {
            // Drive inputs (same stimulus in every lane).
            for (bit_pos, &net) in in_nets.iter().enumerate() {
                values[net] = if patterns.bit(t, bit_pos) { !0 } else { 0 };
            }
            // Evaluate with injection; uninjected gates (all but <= 63)
            // take the mask-free fast path.
            let mut dff_i = 0;
            for (i, g) in gates.iter().enumerate() {
                let kind = g.kind;
                if !injected[i] {
                    let v = match kind {
                        GateKind::Input => values[i],
                        GateKind::Const0 => 0,
                        GateKind::Const1 => !0,
                        GateKind::Dff => {
                            let s = state[dff_i];
                            dff_i += 1;
                            s
                        }
                        _ => {
                            let p = g.pins;
                            let a = values[p[0].index()];
                            let (b, c) = match kind.arity() {
                                2 => (values[p[1].index()], 0),
                                3 => (values[p[1].index()], values[p[2].index()]),
                                _ => (0, 0),
                            };
                            kind.eval(a, b, c)
                        }
                    };
                    values[i] = v;
                    continue;
                }
                let mut v = match kind {
                    GateKind::Input => values[i],
                    GateKind::Const0 => 0,
                    GateKind::Const1 => !0,
                    GateKind::Dff => {
                        let s = state[dff_i];
                        dff_i += 1;
                        s
                    }
                    _ => {
                        let p = g.pins;
                        let ps0 = &pin_sa0[i];
                        let ps1 = &pin_sa1[i];
                        let a = (values[p[0].index()] & !ps0[0]) | ps1[0];
                        let (b, c) = match kind.arity() {
                            2 => ((values[p[1].index()] & !ps0[1]) | ps1[1], 0),
                            3 => (
                                (values[p[1].index()] & !ps0[1]) | ps1[1],
                                (values[p[2].index()] & !ps0[2]) | ps1[2],
                            ),
                            _ => (0, 0),
                        };
                        kind.eval(a, b, c)
                    }
                };
                v = (v & !out_sa0[i]) | out_sa1[i];
                values[i] = v;
            }
            // Capture flip-flops (pin-0 masks apply at the D input).
            for (k, &q) in dff_nets.iter().enumerate() {
                let d = gates[q].pins[0].index();
                let masked = (values[d] & !pin_sa0[q][0]) | pin_sa1[q][0];
                state[k] = masked;
            }

            // Observe outputs: lanes differing from the good machine.
            let mut diff: u64 = 0;
            for &o in &out_nets {
                let v = values[o];
                let good = (v & 1).wrapping_neg();
                diff |= v ^ good;
            }
            diff &= lanes_mask;

            // Activation counts (good-machine value opposite to stuck value
            // at the site).
            let mut activated = 0u32;
            for (lane0, &fid) in batch.iter().enumerate() {
                if config.drop_detected && detected_mask >> (lane0 + 1) & 1 == 1 {
                    continue;
                }
                let f = list.fault(fid);
                let good_bit = match f.site {
                    FaultSite::Output(n) => values[n.index()] & 1 == 1,
                    FaultSite::InputPin(n, p) => {
                        let src = gates[n.index()].pins[p as usize].index();
                        values[src] & 1 == 1
                    }
                };
                if good_bit != f.polarity.value() {
                    activated += 1;
                }
            }
            activated_per_pattern[t] += activated;

            let cc = patterns.cc(t);
            if config.drop_detected {
                let newly = diff & !detected_mask;
                if newly != 0 {
                    let mut rest = newly;
                    while rest != 0 {
                        let lane = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let fid = lane_fault[lane - 1];
                        list.mark_detected(fid, cc, t);
                        report.record_detection(fid, cc, t);
                    }
                    detected_per_pattern[t] += newly.count_ones();
                    detected_mask |= newly;
                    if config.early_exit && detected_mask == lanes_mask {
                        break;
                    }
                }
            } else {
                detected_per_pattern[t] += diff.count_ones();
                let mut rest = diff & !detected_mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let fid = lane_fault[lane - 1];
                    list.mark_detected(fid, cc, t);
                    report.record_detection(fid, cc, t);
                }
                detected_mask |= diff;
            }
        }
    }

    for t in 0..n_pat {
        report.record_pattern(
            patterns.cc(t),
            activated_per_pattern[t],
            detected_per_pattern[t],
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultUniverse;
    use warpstl_netlist::Builder;

    fn and2() -> Netlist {
        let mut b = Builder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and(x, y);
        b.output("z", z);
        b.finish()
    }

    fn exhaustive(width: usize) -> PatternSeq {
        let mut p = PatternSeq::new(width);
        for v in 0..(1u64 << width) {
            p.push_value(v, v);
        }
        p
    }

    #[test]
    fn exhaustive_patterns_reach_full_coverage() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let r = fault_simulate(
            &n,
            &exhaustive(2),
            &mut l,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        assert_eq!(l.coverage(), 1.0, "{l}");
        assert_eq!(r.total_detected() as usize, u.collapsed_len());
    }

    #[test]
    fn single_pattern_detects_expected_subset() {
        // x=1, y=1 detects z/SA0 (and its class) but not x/SA1 etc.
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b11);
        fault_simulate(
            &n,
            &p,
            &mut l,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        assert!(l.coverage() > 0.0 && l.coverage() < 1.0);
        // The detected class is the big SA0 class (5 of 10 faults).
        assert!((l.coverage() - 0.5).abs() < 1e-9, "{}", l.coverage());
    }

    #[test]
    fn dropping_skips_already_detected() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let cfg = FaultSimConfig::default();
        let r1 = fault_simulate(&n, &exhaustive(2), &mut l, &cfg, None, &SimGuide::default());
        assert!(r1.total_detected() > 0);
        // Second run with dropping: nothing left to detect.
        let r2 = fault_simulate(&n, &exhaustive(2), &mut l, &cfg, None, &SimGuide::default());
        assert_eq!(r2.total_detected(), 0);
    }

    #[test]
    fn non_dropping_counts_every_observation() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let cfg = FaultSimConfig {
            drop_detected: false,
            early_exit: false,
            ..FaultSimConfig::default()
        };
        // Two identical detecting patterns: both report detections.
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b11);
        p.push_value(1, 0b11);
        let r = fault_simulate(&n, &p, &mut l, &cfg, None, &SimGuide::default());
        assert_eq!(r.patterns()[0].detected, r.patterns()[1].detected);
        assert!(r.patterns()[1].detected > 0);
    }

    #[test]
    fn detections_carry_cc_stamps() {
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let mut p = PatternSeq::new(2);
        p.push_value(100, 0b00);
        p.push_value(200, 0b11);
        fault_simulate(
            &n,
            &p,
            &mut l,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        for (_, cc, _, _) in l.detected() {
            assert!(cc == 100 || cc == 200);
        }
        // The SA0 class is detected by the second pattern.
        let at_200 = l.detected().filter(|&(_, cc, _, _)| cc == 200).count();
        assert!(at_200 >= 1);
    }

    #[test]
    fn sequential_faults_propagate_through_state() {
        // in -> DFF -> out: a fault on the input is observed one cycle later.
        let mut b = Builder::new("ff");
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let n = b.finish();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let mut p = PatternSeq::new(1);
        p.push_value(0, 1);
        p.push_value(1, 0);
        p.push_value(2, 1);
        p.push_value(3, 0);
        fault_simulate(
            &n,
            &p,
            &mut l,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        // Both classes (x/SA0 ≡ d/SA0 ≡ q/SA0 and the SA1 dual) are
        // observable: SA1 directly at cc 0 (q stuck high while the state is
        // still 0), SA0 only after a 1 has been clocked through.
        assert_eq!(l.coverage(), 1.0, "{l}");
        assert!(
            l.detected().any(|(_, cc, _, _)| cc >= 1),
            "state propagation never exercised"
        );
    }

    #[test]
    fn activation_without_propagation_is_counted() {
        // z = AND(x, y); pattern x=1,y=0 activates z/SA1? good z=0, so z/SA1
        // activated and detected; x/SA0 activated (x=1) and... masked by y=0.
        let n = and2();
        let u = FaultUniverse::enumerate(&n);
        let mut l = FaultList::new(&u);
        let mut p = PatternSeq::new(2);
        p.push_value(0, 0b01); // x=1, y=0
        let r = fault_simulate(
            &n,
            &p,
            &mut l,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        let stats = r.patterns()[0];
        assert!(stats.activated > stats.detected, "{stats:?}");
    }

    #[test]
    fn large_module_batches_are_consistent() {
        // >63 faults forces multiple batches; drop mode coverage must equal
        // the union of per-batch detections.
        let n = warpstl_netlist::modules::ModuleKind::DecoderUnit.build();
        let u = FaultUniverse::enumerate(&n);
        assert!(u.collapsed_len() > 63);
        let mut l = FaultList::new(&u);
        let width = n.inputs().width();
        let mut p = PatternSeq::new(width);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for cc in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bits: Vec<bool> = (0..width).map(|b| (x >> (b % 64)) & 1 == 1).collect();
            p.push_bits(cc, &bits);
        }
        let r = fault_simulate(
            &n,
            &p,
            &mut l,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        let listed = l.detected().count() as u32;
        assert_eq!(listed, r.total_detected());
        assert!(l.coverage() > 0.1, "{l}");
    }
}
