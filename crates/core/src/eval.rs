//! The evaluation stage's standalone coverages, built on stage 3.
//!
//! `fc_before` and `fc_after` are *standalone* coverages: what a fresh
//! fault list detects under the original and under the compacted pattern
//! streams. Simulating both from scratch re-simulates, twice per PTP, the
//! hard tail of faults the budgeted stage-3 run has just shown that no
//! pattern of the PTP detects. On a combinational netlist under stuck-at
//! and bridging faults, whether a pattern detects a fault depends on that
//! one input vector alone, so most outcomes are already known:
//!
//! - **Before.** Stage 3 applied the same patterns to every fault the
//!   shared list had not yet dropped (to every fault without dropping).
//!   Pattern order and drop mode do not change the detected set, so such a
//!   fault is detected exactly when the stage-3 report lists it. Only the
//!   faults earlier PTPs dropped are simulated.
//! - **After.** A fault the original stream detects is detected by the
//!   compacted stream when its detecting row (its *witness*) still occurs
//!   there; when the witness is gone it is simulated against the compacted
//!   stream. A fault the original stream misses can only be detected by a
//!   compacted row the original stream never applied (a *novel* row), so
//!   it is simulated against the novel rows alone.
//!
//! Excluded faults reach the engine through [`SimGuide::untestable`], the
//! per-fault target mask. Both coverages are bit-identical to the
//! fresh-list simulation, which sequential netlists keep.
//!
//! [`SimGuide::untestable`]: warpstl_fault::SimGuide

use std::borrow::Cow;
use std::collections::HashMap;

use warpstl_fault::{FaultList, FaultSimConfig, FaultSimReport, FaultStatus};
use warpstl_netlist::PatternSeq;
use warpstl_obs::Obs;

use crate::pipeline::simulate_instances_with;

/// What one instance group brings to the evaluation, per instance.
pub(crate) struct EvalInputs<'a> {
    /// The original run's streams, in capture order.
    pub original: Vec<&'a PatternSeq>,
    /// The compacted run's streams, in capture order.
    pub compacted: Vec<&'a PatternSeq>,
    /// The stage-3 reports (`None` where the stream was empty).
    pub reports: &'a [Option<FaultSimReport>],
    /// The faults each stage-3 run targeted, indexed by fault id: exactly
    /// these have a known outcome on the original stream.
    pub known: &'a [Vec<bool>],
    /// Whether stage 3 applied the streams in reverse order (its report
    /// indexes patterns of the reversed stream).
    pub reversed: bool,
    /// Whether to leave the fresh lists' proven-untestable faults out of
    /// every simulation (the compactor's pruning switch).
    pub prune_untestable: bool,
}

/// The two standalone coverages and how their faults were decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Coverages {
    /// Mean standalone coverage of the original streams.
    pub before: f64,
    /// Mean standalone coverage of the compacted streams.
    pub after: f64,
    /// Testable faults of the two fresh lists decided without simulation.
    pub reused: u64,
    /// Testable faults of the two fresh lists handed to the engine.
    pub simulated: u64,
}

/// A fresh list and the faults a simulation of it must not target.
struct Slot<F> {
    list: FaultList<F>,
    exclude: Vec<bool>,
}

impl<F> Slot<F> {
    /// The testable faults a simulation of this slot would target.
    fn targets(&self) -> usize {
        self.list
            .undetected()
            .filter(|&id| !self.exclude[id] && !self.list.is_untestable(id))
            .count()
    }
}

/// Mean coverage over instances, summed in instance order exactly as the
/// fresh-list path sums it.
fn mean_coverage<F>(slots: &[Slot<F>]) -> f64 {
    slots.iter().map(|s| s.list.coverage()).sum::<f64>() / slots.len().max(1) as f64
}

/// Simulates each slot against its stream, skipping instances with an
/// empty stream or no target; returns the testable faults simulated.
fn run_phase<F, S>(
    streams: &[&PatternSeq],
    slots: &mut [Slot<F>],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    sim: &S,
) -> u64
where
    F: Send,
    S: Fn(&PatternSeq, &mut FaultList<F>, &[bool], &FaultSimConfig) -> FaultSimReport + Sync,
{
    let mut simulated = 0;
    let work: Vec<Cow<'_, PatternSeq>> = streams
        .iter()
        .zip(slots.iter())
        .map(|(&s, slot)| {
            let targets = if s.is_empty() { 0 } else { slot.targets() };
            simulated += targets as u64;
            // `simulate_instances_with` skips an instance whose stream is
            // empty, so an idle instance gets an empty stream.
            if targets == 0 {
                Cow::Owned(PatternSeq::new(s.width()))
            } else {
                Cow::Borrowed(s)
            }
        })
        .collect();
    simulate_instances_with(&work, slots, config, obs, |s, slot, cfg| {
        sim(s, &mut slot.list, &slot.exclude, cfg)
    });
    simulated
}

/// The standalone coverages of the original and compacted streams, reusing
/// stage 3 (see the module docs). `fresh` builds one fresh list per
/// instance under the active fault model; `sim` runs one simulation with a
/// per-fault exclusion mask.
pub(crate) fn coverages<F, S>(
    inputs: &EvalInputs<'_>,
    fresh: impl Fn() -> Vec<FaultList<F>>,
    config: &FaultSimConfig,
    obs: Obs<'_>,
    sim: S,
) -> Coverages
where
    F: Send,
    S: Fn(&PatternSeq, &mut FaultList<F>, &[bool], &FaultSimConfig) -> FaultSimReport + Sync,
{
    // Before: pre-mark what stage 3 detected (stamped with the row's index
    // in the original stream), simulate what earlier PTPs had dropped.
    let mut before: Vec<Slot<F>> = fresh()
        .into_iter()
        .enumerate()
        .map(|(i, mut list)| {
            if let Some(report) = &inputs.reports[i] {
                let last = inputs.original[i].len().saturating_sub(1);
                for &(id, cc, t) in report.detections() {
                    list.mark_detected(id, cc, if inputs.reversed { last - t } else { t });
                }
            }
            Slot {
                list,
                exclude: inputs.known[i].clone(),
            }
        })
        .collect();
    let mut simulated = run_phase(&inputs.original, &mut before, config, obs, &sim);

    // After: pre-mark the faults whose witness survives, then simulate the
    // rest of the detected ones against the compacted stream and the
    // undetected ones against its novel rows.
    let mut after = Vec::with_capacity(before.len());
    let mut novel_rows = Vec::with_capacity(before.len());
    let mut novel_exclude = Vec::with_capacity(before.len());
    for ((prior, &original), (&compacted, mut list)) in before
        .iter()
        .zip(&inputs.original)
        .zip(inputs.compacted.iter().zip(fresh()))
    {
        // Each distinct compacted row: its first index, and whether the
        // original stream applied it too.
        let mut rows: HashMap<&[u64], (usize, bool)> = HashMap::new();
        for t in 0..compacted.len() {
            rows.entry(compacted.row(t)).or_insert((t, false));
        }
        for t in 0..original.len() {
            if let Some(row) = rows.get_mut(original.row(t)) {
                row.1 = true;
            }
        }
        let mut retry_exclude = vec![true; list.len()];
        let mut undetected_exclude = vec![true; list.len()];
        for id in 0..list.len() {
            match prior.list.status(id) {
                FaultStatus::Detected { pattern, .. } => match rows.get(original.row(pattern)) {
                    Some(&(t, _)) => list.mark_detected(id, compacted.cc(t), t),
                    None => retry_exclude[id] = false,
                },
                FaultStatus::Undetected => {
                    undetected_exclude[id] = inputs.prune_untestable && list.is_untestable(id);
                }
            }
        }
        let mut novel = PatternSeq::new(compacted.width());
        for t in 0..compacted.len() {
            if !rows[compacted.row(t)].1 {
                novel.push_row(compacted.cc(t), compacted.row(t));
            }
        }
        after.push(Slot {
            list,
            exclude: retry_exclude,
        });
        novel_rows.push(novel);
        novel_exclude.push(undetected_exclude);
    }
    simulated += run_phase(&inputs.compacted, &mut after, config, obs, &sim);
    for (slot, exclude) in after.iter_mut().zip(novel_exclude) {
        slot.exclude = exclude;
    }
    let novel_refs: Vec<&PatternSeq> = novel_rows.iter().collect();
    simulated += run_phase(&novel_refs, &mut after, config, obs, &sim);

    let testable: u64 = before
        .iter()
        .map(|s| (s.list.len() - s.list.untestable_count()) as u64)
        .sum();
    Coverages {
        before: mean_coverage(&before),
        after: mean_coverage(&after),
        reused: 2 * testable - simulated,
        simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_fault::{
        fault_simulate, BridgeConfig, BridgeUniverse, Fault, Injectable, SimGuide,
    };
    use warpstl_netlist::modules::ModuleKind;
    use warpstl_netlist::Netlist;

    use crate::ModuleContext;

    /// A seeded stream of `rows` random input vectors stamped from `cc0`.
    fn random_stream(netlist: &Netlist, rows: usize, cc0: u64, seed: &mut u64) -> PatternSeq {
        let width = netlist.inputs().width();
        let mut seq = PatternSeq::new(width);
        for r in 0..rows {
            let bits: Vec<bool> = (0..width)
                .map(|_| {
                    *seed ^= *seed << 13;
                    *seed ^= *seed >> 7;
                    *seed ^= *seed << 17;
                    *seed & 1 == 1
                })
                .collect();
            seq.push_bits(cc0 + r as u64, &bits);
        }
        seq
    }

    fn simulate<F: Injectable>(
        netlist: &Netlist,
        stream: &PatternSeq,
        list: &mut FaultList<F>,
    ) -> FaultSimReport {
        let cfg = FaultSimConfig::default();
        fault_simulate(netlist, stream, list, &cfg, None, &SimGuide::default())
    }

    /// Random trials of two instances sharing a dropping list state left
    /// by an earlier program; the second instance's stream is empty. The
    /// compacted stream keeps a random subset of the original rows (in
    /// order) plus, in half the trials, some novel rows; half the trials
    /// apply the original stream reversed in stage 3.
    fn check_random_streams<F: Injectable>(
        netlist: &Netlist,
        fresh: impl Fn() -> FaultList<F>,
        prune_untestable: bool,
    ) {
        let cfg = FaultSimConfig::default();
        let mut seed = 0x0e7a_1234_u64;
        for trial in 0..8u64 {
            let reversed = trial % 2 == 1;
            let novel_rows = [0, 4][(trial / 2 % 2) as usize];
            let earlier = random_stream(netlist, 6, 0, &mut seed);
            let original = random_stream(netlist, 24, 100, &mut seed);
            let extra = random_stream(netlist, novel_rows, 1000, &mut seed);
            let mut compacted = PatternSeq::new(original.width());
            for t in 0..original.len() {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                if seed >> 63 == 1 {
                    compacted.push_row(original.cc(t), original.row(t));
                }
            }
            for t in 0..extra.len() {
                compacted.push_row(extra.cc(t), extra.row(t));
            }
            let empty = PatternSeq::new(original.width());

            let mut shared = fresh();
            simulate(netlist, &earlier, &mut shared);
            let known: Vec<Vec<bool>> = (0..2)
                .map(|_| {
                    (0..shared.len())
                        .map(|id| matches!(shared.status(id), FaultStatus::Undetected))
                        .collect()
                })
                .collect();
            let applied = if reversed {
                original.reversed()
            } else {
                original.clone()
            };
            let reports = [Some(simulate(netlist, &applied, &mut shared)), None];
            let inputs = EvalInputs {
                original: vec![&original, &empty],
                compacted: vec![&compacted, &empty],
                reports: &reports,
                known: &known,
                reversed,
                prune_untestable,
            };
            let got = coverages(
                &inputs,
                || vec![fresh(), fresh()],
                &cfg,
                None,
                |s, list, exclude, cfg| {
                    let guide = SimGuide {
                        untestable: Some(exclude),
                        levels: None,
                    };
                    fault_simulate(netlist, s, list, cfg, None, &guide)
                },
            );
            // The oracle: fresh lists, every fault simulated. The empty
            // instance covers nothing.
            let oracle = |stream: &PatternSeq| {
                let mut list = fresh();
                simulate(netlist, stream, &mut list);
                list.coverage() / 2.0
            };
            assert_eq!(
                got.before.to_bits(),
                oracle(&original).to_bits(),
                "trial {trial}"
            );
            assert_eq!(
                got.after.to_bits(),
                oracle(&compacted).to_bits(),
                "trial {trial}"
            );
            let list = fresh();
            let testable = (list.len() - list.untestable_count()) as u64;
            assert_eq!(got.reused + got.simulated, 4 * testable, "trial {trial}");
            assert!(
                got.reused > 0 && got.simulated > 0,
                "trial {trial}: {got:?}"
            );
        }
    }

    #[test]
    fn stuck_at_reuse_matches_fresh_lists_on_random_streams() {
        let ctx = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        for prune in [true, false] {
            check_random_streams::<Fault>(ctx.netlist(), || ctx.fresh_lists().remove(0), prune);
        }
    }

    #[test]
    fn bridging_reuse_matches_fresh_lists_on_random_streams() {
        let netlist = ModuleKind::DecoderUnit.build();
        let universe = BridgeUniverse::sample(&netlist, &BridgeConfig::default());
        check_random_streams(&netlist, || universe.new_list(), true);
    }
}
