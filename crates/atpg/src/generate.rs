//! The ATPG loop: PODEM per fault with fault-simulation dropping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse, SimGuide};
use warpstl_netlist::{Netlist, PatternSeq};

use crate::podem::{Podem, PodemOutcome};

/// How the ATPG loop credits a generated pattern against the fault list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AtpgDropMode {
    /// Fault-simulate every new pattern against the whole remaining list
    /// (full dropping): the resulting pattern set is near-minimal.
    #[default]
    FullFaultSim,
    /// Credit only the *targeted* fault. Each collapsed fault gets its own
    /// pattern, so the set carries heavy incidental redundancy — the
    /// regime the paper's TPGEN/SFU_IMM programs are in (their compaction
    /// method removes 41–76 % of the ATPG-derived SBs, and the SFU_IMM
    /// reverse-order trick only has an effect on redundant sets).
    TargetOnly,
}

/// Configuration of an ATPG run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgConfig {
    /// PODEM backtrack limit per fault.
    pub backtrack_limit: usize,
    /// Seed for don't-care filling (deterministic).
    pub seed: u64,
    /// Stop after this many patterns (0 = unlimited).
    pub max_patterns: usize,
    /// Pattern-crediting mode.
    pub drop_mode: AtpgDropMode,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            backtrack_limit: 200,
            seed: 0xA7B6_C5D4,
            max_patterns: 0,
            drop_mode: AtpgDropMode::FullFaultSim,
        }
    }
}

/// The result of an ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The generated patterns, in generation order (flat input-bit vectors,
    /// don't-cares filled with seeded random bits).
    pub patterns: Vec<Vec<bool>>,
    /// The raw PODEM assignments behind each pattern (`None` = don't-care).
    /// The instruction converter uses these to decide which bits an
    /// instruction actually has to drive.
    pub assignments: Vec<Vec<Option<bool>>>,
    /// Collapsed faults the pattern set detects (per fault simulation).
    pub detected: usize,
    /// Faults proven untestable.
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Total collapsed faults targeted.
    pub total: usize,
    /// Weighted coverage over the full fault universe.
    coverage: f64,
}

impl AtpgResult {
    /// The achieved fault coverage over the full (uncollapsed) universe.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// The patterns as a timestamped sequence (cc = pattern index).
    #[must_use]
    pub fn to_pattern_seq(&self, width: usize) -> PatternSeq {
        let mut seq = PatternSeq::new(width);
        for (i, p) in self.patterns.iter().enumerate() {
            seq.push_bits(i as u64, p);
        }
        seq
    }
}

/// Runs the ATPG flow on a combinational netlist: target every collapsed
/// fault with PODEM, X-fill with seeded random bits, and fault-simulate each
/// new pattern against the remaining fault list so already-covered faults
/// are dropped.
///
/// # Panics
///
/// Panics if the netlist is sequential (see [`Podem::new`]).
///
/// # Examples
///
/// See the [crate-level example](crate).
#[must_use]
pub fn generate_patterns(netlist: &Netlist, config: &AtpgConfig) -> AtpgResult {
    let universe = FaultUniverse::enumerate(netlist);
    let mut list = FaultList::new(&universe);
    let podem = Podem::new(netlist).with_backtrack_limit(config.backtrack_limit);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let width = netlist.inputs().width();

    let mut patterns: Vec<Vec<bool>> = Vec::new();
    let mut assignments: Vec<Vec<Option<bool>>> = Vec::new();
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let sim_cfg = FaultSimConfig::default();

    for id in 0..list.len() {
        if config.max_patterns > 0 && patterns.len() >= config.max_patterns {
            break;
        }
        if !matches!(list.status(id), warpstl_fault::FaultStatus::Undetected) {
            continue;
        }
        let fault = list.fault(id);
        match podem.generate(fault) {
            PodemOutcome::Test(assignment) => {
                let bits: Vec<bool> = assignment
                    .iter()
                    .map(|b| b.unwrap_or_else(|| rng.gen()))
                    .collect();
                match config.drop_mode {
                    AtpgDropMode::FullFaultSim => {
                        let mut seq = PatternSeq::new(width);
                        seq.push_bits(patterns.len() as u64, &bits);
                        fault_simulate(
                            netlist,
                            &seq,
                            &mut list,
                            &sim_cfg,
                            None,
                            &SimGuide::default(),
                        );
                    }
                    AtpgDropMode::TargetOnly => {
                        list.begin_run();
                        list.mark_detected(id, patterns.len() as u64, patterns.len());
                    }
                }
                patterns.push(bits);
                assignments.push(assignment);
            }
            PodemOutcome::Untestable => untestable += 1,
            PodemOutcome::Aborted => aborted += 1,
        }
    }

    // In target-only mode the loop's ledger undercounts what the patterns
    // really detect; measure the set's true coverage with one fault
    // simulation at the end.
    if config.drop_mode == AtpgDropMode::TargetOnly && !patterns.is_empty() {
        let mut seq = PatternSeq::new(width);
        for (i, bits) in patterns.iter().enumerate() {
            seq.push_bits(i as u64, bits);
        }
        list = FaultList::new(&universe);
        fault_simulate(
            netlist,
            &seq,
            &mut list,
            &sim_cfg,
            None,
            &SimGuide::default(),
        );
    }

    let detected = list.detected().count();
    AtpgResult {
        patterns,
        assignments,
        detected,
        untestable,
        aborted,
        total: list.len(),
        coverage: list.coverage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::Builder;

    fn adder(width: usize) -> Netlist {
        let mut b = Builder::new("add");
        let x = b.input_bus("x", width);
        let y = b.input_bus("y", width);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        b.finish()
    }

    #[test]
    fn adder_reaches_full_coverage() {
        let n = adder(6);
        let r = generate_patterns(&n, &AtpgConfig::default());
        // The constant-0 carry-in of stage 0 leaves a couple of genuinely
        // redundant (untestable) faults; everything else is covered.
        assert!(r.coverage() > 0.96, "coverage {}", r.coverage());
        assert_eq!(r.aborted, 0);
        assert!(r.untestable <= 3, "untestable {}", r.untestable);
        // Far fewer patterns than faults, thanks to dropping.
        assert!(
            r.patterns.len() * 3 < r.total,
            "{} patterns",
            r.patterns.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let n = adder(4);
        let a = generate_patterns(&n, &AtpgConfig::default());
        let b = generate_patterns(&n, &AtpgConfig::default());
        assert_eq!(a.patterns, b.patterns);
        let c = generate_patterns(
            &n,
            &AtpgConfig {
                seed: 99,
                ..AtpgConfig::default()
            },
        );
        // Different X-fill, same coverage.
        assert!((a.coverage() - c.coverage()).abs() < 1e-9);
    }

    #[test]
    fn max_patterns_caps_generation() {
        let n = adder(8);
        let r = generate_patterns(
            &n,
            &AtpgConfig {
                max_patterns: 3,
                ..AtpgConfig::default()
            },
        );
        assert_eq!(r.patterns.len(), 3);
        assert!(r.coverage() < 1.0);
    }

    #[test]
    fn redundant_logic_is_reported_untestable() {
        let mut b = Builder::new("r");
        let x = b.input("x");
        let nx = b.not(x);
        let y = b.or(x, nx); // constant 1
        let z = b.input("z");
        let o = b.and(y, z);
        b.output("o", o);
        let n = b.finish();
        let r = generate_patterns(&n, &AtpgConfig::default());
        assert!(r.untestable > 0);
        assert!(r.coverage() < 1.0);
    }

    #[test]
    fn pattern_seq_round_trip() {
        let n = adder(4);
        let r = generate_patterns(&n, &AtpgConfig::default());
        let seq = r.to_pattern_seq(n.inputs().width());
        assert_eq!(seq.len(), r.patterns.len());
        for (i, p) in r.patterns.iter().enumerate() {
            for (j, &b) in p.iter().enumerate() {
                assert_eq!(seq.bit(i, j), b);
            }
        }
    }

    #[test]
    fn sp_core_atpg_smoke() {
        // The real SP module: cap patterns for test speed; expect meaningful
        // coverage from a few patterns.
        let n = warpstl_netlist::modules::ModuleKind::SpCore.build();
        let r = generate_patterns(
            &n,
            &AtpgConfig {
                max_patterns: 20,
                backtrack_limit: 50,
                ..AtpgConfig::default()
            },
        );
        assert_eq!(r.patterns.len(), 20);
        assert!(r.coverage() > 0.2, "coverage {}", r.coverage());
    }
}
