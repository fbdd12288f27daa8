//! The five-stage compaction pipeline.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use warpstl_fault::{
    BridgeConfig, BridgeList, FaultList, FaultModel, FaultSimConfig, FaultSimReport, SimGuide,
};
use warpstl_gpu::{Gpu, RunOptions, RunResult, SimError};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::{Metrics, Obs, ObsExt, Recorder};
use warpstl_programs::{ArcAnalysis, BasicBlocks, Ptp};
use warpstl_store::{cached_bridge_sim, cached_fault_sim, CacheCtx, Store};
use warpstl_verify::{verify_reduction_observed, Severity, VerifyOptions};

use crate::{
    label_instructions, CompactionError, CompactionReport, ModuleContext, PtpFeatures, StageTimings,
};

/// Fault-simulates the per-instance pattern streams against their fault
/// lists, one scoped worker per non-empty stream (instance-level
/// parallelism), and returns the per-instance reports in instance order
/// (`None` where the stream was empty and the list untouched).
///
/// The engine's thread budget is divided across the concurrent instances so
/// instance- and batch-level parallelism compose instead of oversubscribing.
/// Reports and list updates are bit-identical to a serial instance loop:
/// each instance owns its list, and results are collected in instance order.
fn simulate_instances_with<L, F>(
    streams: &[Cow<'_, PatternSeq>],
    lists: &mut [L],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    sim: F,
) -> Vec<Option<FaultSimReport>>
where
    L: Send,
    F: Fn(&PatternSeq, &mut L, &FaultSimConfig) -> FaultSimReport + Sync,
{
    debug_assert_eq!(streams.len(), lists.len());
    let active = streams.iter().filter(|s| !s.is_empty()).count();
    let budget = config.resolved_threads();
    let per_instance = FaultSimConfig {
        threads: (budget / active.max(1)).max(1),
        ..*config
    };
    let mut span = obs.span("pipeline", "pipeline.instances");
    span.arg("active", active);
    span.arg("threads_each", per_instance.threads);
    if active <= 1 || budget <= 1 {
        return streams
            .iter()
            .zip(lists.iter_mut())
            .map(|(s, list)| (!s.is_empty()).then(|| sim(s.as_ref(), list, &per_instance)))
            .collect();
    }
    let sim = &sim;
    let per_instance = &per_instance;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(lists.iter_mut())
            .map(|(s, list)| {
                (!s.is_empty()).then(|| scope.spawn(move || sim(s.as_ref(), list, per_instance)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.map(|h| h.join().expect("fault-sim worker panicked")))
            .collect()
    })
}

/// The stuck-at instantiation: each instance runs through
/// [`cached_fault_sim`] with the shared simulation guide.
fn simulate_instances(
    netlist: &Netlist,
    streams: &[Cow<'_, PatternSeq>],
    lists: &mut [FaultList],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: SimGuide<'_>,
    cache: CacheCtx<'_>,
) -> Vec<Option<FaultSimReport>> {
    simulate_instances_with(streams, lists, config, obs, |s, list, cfg| {
        cached_fault_sim(cache, netlist, s, list, cfg, obs, &guide)
    })
}

/// The bridging instantiation: each instance runs through
/// [`cached_bridge_sim`] (no guide — untestability proofs are a stuck-at
/// construct).
fn simulate_bridge_instances(
    netlist: &Netlist,
    streams: &[Cow<'_, PatternSeq>],
    lists: &mut [BridgeList],
    config: &FaultSimConfig,
    obs: Obs<'_>,
    cache: CacheCtx<'_>,
) -> Vec<Option<FaultSimReport>> {
    simulate_instances_with(streams, lists, config, obs, |s, list, cfg| {
        cached_bridge_sim(cache, netlist, s, list, cfg, obs)
    })
}

/// The compaction method's driver.
///
/// One `Compactor` compacts the PTPs of an STL one by one, sharing a
/// [`ModuleContext`] (the dropping fault list) per target module — the
/// paper's flow: IMM, then MEM, then CNTRL against the Decoder Unit list;
/// TPGEN then RAND against the SP-core lists; SFU_IMM against the SFU
/// lists.
#[derive(Debug, Clone)]
pub struct Compactor {
    /// The GPU model used for the logic-tracing stage.
    pub gpu: Gpu,
    /// Fault-simulation configuration (dropping on by default).
    pub fsim_config: FaultSimConfig,
    /// The fault model the pipeline targets (stuck-at by default). The
    /// bridging model replaces the collapsed stuck-at universe with a
    /// deterministically sampled set of two-net wired-AND/OR bridges; the
    /// trace/label/reduce/verify stages are model-agnostic.
    pub fault_model: FaultModel,
    /// Bridge-universe sampling parameters (bridging model only).
    pub bridge_config: BridgeConfig,
    /// Apply the module patterns in reverse order during the fault
    /// simulation (the paper uses this for SFU_IMM).
    pub reverse_patterns: bool,
    /// Restrict removal to the Admissible Regions for Compaction (stage 1).
    /// Disabling this reproduces the failure mode the paper warns about
    /// (see the ARC ablation).
    pub respect_arc: bool,
    /// Prune statically-proven-untestable fault classes from every
    /// fault-simulation target set (on by default). Detected sets,
    /// coverages and reports are bit-identical either way — the pruned
    /// classes are provably undetectable — so disabling this is purely a
    /// cross-check/ablation knob.
    pub prune_untestable: bool,
    /// Observability sink. `None` (the default) keeps every instrumentation
    /// point a guaranteed no-op; `Some` collects spans and metrics for all
    /// pipeline stages and the fault-engine internals, exportable with
    /// [`Recorder::to_chrome_trace`]. Share one recorder across the PTPs of
    /// an STL to get a single contiguous trace.
    pub obs: Option<Arc<Recorder>>,
    /// Content-addressed artifact store. `None` (the default) computes
    /// everything; `Some` makes every fault-engine invocation consult the
    /// cache first and persist misses, so a rerun over unchanged inputs
    /// replays detection stamps instead of simulating. Results are
    /// bit-identical either way.
    pub store: Option<Arc<Store>>,
}

impl Default for Compactor {
    fn default() -> Self {
        Compactor {
            gpu: Gpu::default(),
            fsim_config: FaultSimConfig::default(),
            fault_model: FaultModel::default(),
            bridge_config: BridgeConfig::default(),
            reverse_patterns: false,
            respect_arc: true,
            prune_untestable: true,
            obs: None,
            store: None,
        }
    }
}

/// Everything a compaction run produces.
#[derive(Debug, Clone)]
pub struct CompactionOutcome {
    /// The compacted PTP (the CPTP of the paper).
    pub compacted: Ptp,
    /// The Table II/III row.
    pub report: CompactionReport,
}

impl Compactor {
    /// The borrowed observability handle instrumented code passes around
    /// (`None` when no recorder is attached).
    #[must_use]
    pub fn observer(&self) -> Obs<'_> {
        self.obs.as_deref()
    }

    /// Builds the shared per-module context (netlist, collapsed fault
    /// universe, one dropping fault list per instance).
    #[must_use]
    pub fn context_for(&self, module: ModuleKind) -> ModuleContext {
        let instances = match module {
            ModuleKind::DecoderUnit => 1,
            ModuleKind::SpCore | ModuleKind::Fp32 => self.gpu.config.sp_cores,
            ModuleKind::Sfu => self.gpu.config.sfus,
        };
        ModuleContext::observed(module, instances, self.observer())
            .with_pruning(self.prune_untestable)
            .with_store(self.store.clone())
            .with_model(self.fault_model, &self.bridge_config)
    }

    /// Runs `ptp` with the hardware monitor on (the stage-2 logic
    /// simulation).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model.
    pub fn trace(&self, ptp: &Ptp) -> Result<RunResult, SimError> {
        let kernel = ptp.to_kernel()?;
        self.gpu.run(&kernel, &RunOptions::capture_all())
    }

    /// Fault-simulates a traced run's module patterns against the context's
    /// shared fault lists, merging the per-instance Fault Sim Reports.
    ///
    /// The netlist is borrowed (not cloned) and the pattern streams are only
    /// materialized when `reverse_patterns` demands it; the instances run
    /// concurrently (see [`simulate_instances`]).
    fn fault_sim(&self, run: &RunResult, ctx: &mut ModuleContext) -> FaultSimReport {
        let streams: Vec<Cow<'_, PatternSeq>> = ctx
            .streams(&run.patterns)
            .into_iter()
            .map(|s| {
                if self.reverse_patterns {
                    Cow::Owned(s.reversed())
                } else {
                    Cow::Borrowed(s)
                }
            })
            .collect();
        debug_assert_eq!(
            streams.len(),
            ctx.instances(),
            "context instance count must match the GPU configuration"
        );
        let reports = match ctx.model() {
            FaultModel::StuckAt => {
                let (netlist, lists, guide, cache) = ctx.netlist_and_lists_mut();
                simulate_instances(
                    netlist,
                    &streams,
                    lists,
                    &self.fsim_config,
                    self.observer(),
                    guide,
                    cache,
                )
            }
            FaultModel::Bridging => {
                let (netlist, lists, cache) = ctx.bridge_netlist_and_lists_mut();
                simulate_bridge_instances(
                    netlist,
                    &streams,
                    lists,
                    &self.fsim_config,
                    self.observer(),
                    cache,
                )
            }
        };
        let mut merged = FaultSimReport::new();
        for report in reports.iter().flatten() {
            merged.merge(report);
        }
        merged
    }

    /// Compacts one PTP: stages 1–5 of the paper, using exactly one logic
    /// simulation and one fault simulation.
    ///
    /// `ctx` carries the shared dropping fault list: compact the PTPs of an
    /// STL in order against the same context. The report's `fc_before` /
    /// `fc_after` are *standalone* coverages (fresh fault lists), matching
    /// the paper's per-PTP FC columns — this is also where RAND's large FC
    /// drop comes from: its compaction dropped faults TPGEN already covers.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model (original or compacted
    /// program) as [`CompactionError::Sim`], and aborts with
    /// [`CompactionError::Verify`] when the post-reduction static
    /// verification gate finds the compacted PTP malformed — the structured
    /// report replaces a misleading fault-coverage number.
    pub fn compact(
        &self,
        ptp: &Ptp,
        ctx: &mut ModuleContext,
    ) -> Result<CompactionOutcome, CompactionError> {
        let start = Instant::now();
        let obs = self.observer();
        // Snapshot the shared recorder so the report carries this PTP's
        // metric *delta* even when several compacts share one recorder.
        let metrics_before = self.obs.as_deref().map(Recorder::metrics);
        let mut compact_span = obs.span("pipeline", "compact");
        compact_span.arg("ptp", &ptp.name);

        // Mandatory gate: check the target netlist's static analysis (run
        // once, when the context was built) before spending the single
        // logic and fault simulation on it. Lint errors (combinational
        // loops, undriven nets) make the fault model — and therefore the
        // whole compaction — meaningless.
        let analyze_stats = {
            let _s = obs.span("stage", "stage.analyze");
            let report = &ctx.analysis().report;
            if !report.is_clean() {
                obs.add("pipeline.analyze_rejects", 1);
                return Err(CompactionError::Analyze {
                    name: ctx.netlist().name().to_string(),
                    report: report.clone(),
                });
            }
            report.stats()
        };
        let analyze_time = start.elapsed();

        // Stage 1: partitioning (BBs, ARC) happens inside reduce_ptp; the
        // stage is cheap and pure, so it is recomputed there.
        // Stage 2: ONE logic simulation with tracing + pattern capture.
        let stamp = Instant::now();
        let run = {
            let _s = obs.span("stage", "stage.trace");
            self.trace(ptp)?
        };
        obs.add("pipeline.logic_sim_runs", 1);
        let trace_time = stamp.elapsed();

        // Stage 3a: ONE fault simulation against the shared dropping list.
        let stamp = Instant::now();
        let fsr = {
            let _s = obs.span("stage", "stage.fsim");
            self.fault_sim(&run, ctx)
        };
        obs.add("pipeline.fsim_runs", 1);
        let fsim_time = stamp.elapsed();

        // Stage 3b: instruction labeling (Fig. 2).
        let stamp = Instant::now();
        let labels = {
            let _s = obs.span("stage", "stage.label");
            label_instructions(ptp.program.len(), &run.trace, &fsr)
        };
        obs.add("label.essential", labels.essential_count() as u64);
        let label_time = stamp.elapsed();

        // Stage 4: reduction (Fig. 3) + stage 5: reassembling.
        let stamp = Instant::now();
        let reduce_span = obs.span("stage", "stage.reduce");
        let reduction = crate::reduce_ptp_with(ptp, &labels, self.respect_arc);

        let mut compacted = ptp.clone();
        compacted.program = reduction.program;
        compacted.global_init = reduction.global_init;
        compacted.sb_slots = reduction.sb_slots;
        drop(reduce_span);
        obs.add("reduce.sbs_total", reduction.total_sbs as u64);
        obs.add("reduce.sbs_removed", reduction.removed_sbs as u64);
        obs.add(
            "reduce.instructions_removed",
            reduction.removed_pcs.len() as u64,
        );
        let reduce_time = stamp.elapsed();

        // Mandatory gate: statically verify the reassembled CPTP before
        // spending fault simulations on it. ARC violations are only
        // possible when the ARC filter is off (the ablation), where they
        // are expected — downgrade them to warnings there.
        let stamp = Instant::now();
        let verify_opts = VerifyOptions {
            arc_severity: if self.respect_arc {
                Severity::Error
            } else {
                Severity::Warning
            },
        };
        let verify_report = {
            let _s = obs.span("stage", "stage.verify");
            verify_reduction_observed(ptp, &compacted, &reduction.removed_pcs, &verify_opts, obs)
        };
        let verify_time = stamp.elapsed();
        let compaction_time = start.elapsed();
        if !verify_report.is_clean() {
            obs.add("pipeline.verify_rejects", 1);
            return Err(CompactionError::Verify {
                name: ptp.name.clone(),
                report: verify_report,
            });
        }

        // Evaluation (outside the method's fault-simulation budget): the
        // standalone FC of the original and compacted programs, and the
        // compacted duration.
        let stamp = Instant::now();
        let (fc_before, compacted_run, fc_after) = {
            let _s = obs.span("stage", "stage.eval");
            let fc_before = self.standalone_coverage_of_run(&run, ctx);
            let compacted_run = self.trace(&compacted)?;
            let fc_after = self.standalone_coverage_of_run(&compacted_run, ctx);
            (fc_before, compacted_run, fc_after)
        };
        let eval_time = stamp.elapsed();

        obs.add("pipeline.ptps", 1);
        obs.record(
            "pipeline.size_reduction_pct",
            100.0 * (1.0 - compacted.size() as f64 / ptp.size().max(1) as f64),
        );

        compact_span.arg("compacted_size", compacted.size());
        drop(compact_span);
        // The per-PTP slice of the recorder: everything added since the
        // snapshot above (on a private recorder this is simply everything).
        let metrics = match (&metrics_before, self.obs.as_deref()) {
            (Some(before), Some(rec)) => rec.metrics().delta_since(before),
            _ => Metrics::default(),
        };

        let report = CompactionReport {
            name: ptp.name.clone(),
            original_size: ptp.size(),
            compacted_size: compacted.size(),
            original_duration: run.cycles,
            compacted_duration: compacted_run.cycles,
            fc_before,
            fc_after,
            sbs_total: reduction.total_sbs,
            sbs_removed: reduction.removed_sbs,
            essential_instructions: labels.essential_count(),
            fault_sim_runs: 1,
            logic_sim_runs: 1,
            // Statically proven, so identical with pruning on or off —
            // keeps the deterministic JSON byte-identical across modes.
            untestable: ctx.untestable_count(),
            compaction_time,
            stage_timings: StageTimings {
                analyze: analyze_time,
                trace: trace_time,
                fsim: fsim_time,
                label: label_time,
                reduce: reduce_time,
                verify: verify_time,
                eval: eval_time,
            },
            analyze: analyze_stats,
            verify: verify_report.stats(),
            metrics,
        };
        Ok(CompactionOutcome { compacted, report })
    }

    /// The standalone fault coverage achieved by a traced run (fresh fault
    /// lists under the active model, dropping within the run), instances
    /// simulated concurrently.
    fn standalone_coverage_of_run(&self, run: &RunResult, ctx: &ModuleContext) -> f64 {
        let cfg = FaultSimConfig {
            threads: self.fsim_config.threads,
            backend: self.fsim_config.backend,
            ..FaultSimConfig::default()
        };
        let streams: Vec<Cow<'_, PatternSeq>> = ctx
            .streams(&run.patterns)
            .into_iter()
            .map(Cow::Borrowed)
            .collect();
        match ctx.model() {
            FaultModel::StuckAt => {
                let mut lists: Vec<FaultList> = ctx.fresh_lists();
                simulate_instances(
                    ctx.netlist(),
                    &streams,
                    &mut lists,
                    &cfg,
                    self.observer(),
                    ctx.sim_guide(),
                    ctx.cache_ctx(),
                );
                lists.iter().map(FaultList::coverage).sum::<f64>() / lists.len().max(1) as f64
            }
            FaultModel::Bridging => {
                let mut lists: Vec<BridgeList> = ctx.fresh_bridge_lists();
                simulate_bridge_instances(
                    ctx.netlist(),
                    &streams,
                    &mut lists,
                    &cfg,
                    self.observer(),
                    ctx.cache_ctx(),
                );
                lists.iter().map(BridgeList::coverage).sum::<f64>() / lists.len().max(1) as f64
            }
        }
    }

    /// Evaluates a PTP's Table I features: size, ARC fraction, duration and
    /// standalone fault coverage.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model.
    pub fn features(&self, ptp: &Ptp, ctx: &ModuleContext) -> Result<PtpFeatures, SimError> {
        let bbs = BasicBlocks::of(&ptp.program);
        let arc = ArcAnalysis::of(&ptp.program, &bbs);
        let run = self.trace(ptp)?;
        let fc = self.standalone_coverage_of_run(&run, ctx);
        Ok(PtpFeatures {
            name: ptp.name.clone(),
            size: ptp.size(),
            arc_fraction: arc.arc_fraction(),
            duration: run.cycles,
            fault_coverage: fc,
        })
    }

    /// The combined standalone coverage of several PTPs applied in order to
    /// fresh fault lists (used for the `IMM+MEM+CNTRL`-style rows).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the GPU model.
    pub fn combined_coverage(&self, ptps: &[&Ptp], ctx: &ModuleContext) -> Result<f64, SimError> {
        let cfg = FaultSimConfig {
            threads: self.fsim_config.threads,
            backend: self.fsim_config.backend,
            ..FaultSimConfig::default()
        };
        let mut sa_lists: Vec<FaultList> = match ctx.model() {
            FaultModel::StuckAt => ctx.fresh_lists(),
            FaultModel::Bridging => Vec::new(),
        };
        let mut bridge_lists: Vec<BridgeList> = match ctx.model() {
            FaultModel::StuckAt => Vec::new(),
            FaultModel::Bridging => ctx.fresh_bridge_lists(),
        };
        for ptp in ptps {
            let run = self.trace(ptp)?;
            let streams: Vec<Cow<'_, PatternSeq>> = ctx
                .streams(&run.patterns)
                .into_iter()
                .map(Cow::Borrowed)
                .collect();
            match ctx.model() {
                FaultModel::StuckAt => {
                    simulate_instances(
                        ctx.netlist(),
                        &streams,
                        &mut sa_lists,
                        &cfg,
                        self.observer(),
                        ctx.sim_guide(),
                        ctx.cache_ctx(),
                    );
                }
                FaultModel::Bridging => {
                    simulate_bridge_instances(
                        ctx.netlist(),
                        &streams,
                        &mut bridge_lists,
                        &cfg,
                        self.observer(),
                        ctx.cache_ctx(),
                    );
                }
            }
        }
        Ok(match ctx.model() {
            FaultModel::StuckAt => {
                sa_lists.iter().map(FaultList::coverage).sum::<f64>() / sa_lists.len().max(1) as f64
            }
            FaultModel::Bridging => {
                bridge_lists.iter().map(BridgeList::coverage).sum::<f64>()
                    / bridge_lists.len().max(1) as f64
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_programs::generators::{
        generate_imm, generate_mem, generate_sfu_imm, ImmConfig, MemConfig, SfuImmConfig,
    };

    #[test]
    fn imm_compaction_shrinks_and_keeps_coverage() {
        let ptp = generate_imm(&ImmConfig {
            sb_count: 24,
            ..ImmConfig::default()
        });
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();
        let r = &out.report;
        assert!(r.compacted_size < r.original_size, "{r}");
        assert!(r.compacted_duration < r.original_duration);
        assert!(r.sbs_removed > 0);
        assert_eq!(r.fault_sim_runs, 1);
        assert_eq!(r.logic_sim_runs, 1);
        // Module-level observability: pseudorandom DU programs repeat
        // formats heavily, so compaction barely moves the coverage.
        assert!(r.fc_diff_pct().abs() < 5.0, "ΔFC {}", r.fc_diff_pct());
        assert!(r.fc_before > 0.3, "FC {}", r.fc_before);
        // The verification gate ran and passed: zero errors on record.
        assert_eq!(r.verify.total_errors(), 0);
    }

    #[test]
    fn dropping_across_ptps_boosts_second_compaction() {
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let imm = generate_imm(&ImmConfig {
            sb_count: 16,
            ..ImmConfig::default()
        });
        let mem = generate_mem(&MemConfig {
            sb_count: 16,
            ..MemConfig::default()
        });
        let r1 = compactor.compact(&imm, &mut ctx).unwrap().report;
        let r2 = compactor.compact(&mem, &mut ctx).unwrap().report;
        // MEM compacts harder than it would standalone: most DU faults are
        // already dropped. Sanity: reduction percentages are meaningful.
        assert!(r1.size_reduction_pct() > 10.0, "{r1}");
        assert!(r2.size_reduction_pct() > 10.0, "{r2}");

        // Compare against a fresh context for MEM: the shared-list run must
        // remove at least as many SBs.
        let mut fresh = compactor.context_for(ModuleKind::DecoderUnit);
        let r2_fresh = compactor.compact(&mem, &mut fresh).unwrap().report;
        assert!(
            r2.sbs_removed >= r2_fresh.sbs_removed,
            "dropping removed {} vs fresh {}",
            r2.sbs_removed,
            r2_fresh.sbs_removed
        );
    }

    #[test]
    fn second_ptp_after_saturation_loses_standalone_coverage() {
        // The paper's RAND effect, demonstrated on the fast-saturating DU:
        // once the shared list is nearly covered by a first program, a
        // second program compacts away almost everything — and its
        // *standalone* coverage drops accordingly (Table III's −17.07 pp
        // for RAND after TPGEN).
        let compactor = Compactor::default();
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let first = generate_imm(&ImmConfig {
            sb_count: 48,
            ..ImmConfig::default()
        });
        let second = generate_imm(&ImmConfig {
            sb_count: 16,
            seed: 0xdead_beef,
            ..ImmConfig::default()
        });
        let _ = compactor.compact(&first, &mut ctx).unwrap();
        let r2 = compactor.compact(&second, &mut ctx).unwrap().report;
        assert!(
            r2.size_reduction_pct() > 50.0,
            "expected heavy compaction, got {}",
            r2.size_reduction_pct()
        );
        assert!(
            r2.fc_diff_pct() < -1.0,
            "expected a standalone FC drop, got {}",
            r2.fc_diff_pct()
        );
    }

    #[test]
    fn compacted_ptp_still_runs_and_is_smaller_on_sfu() {
        let compactor = Compactor {
            reverse_patterns: true, // the paper's SFU_IMM trick
            ..Compactor::default()
        };
        let ptp = generate_sfu_imm(&SfuImmConfig {
            max_patterns: 16,
            ..SfuImmConfig::default()
        });
        let mut ctx = compactor.context_for(ModuleKind::Sfu);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();
        assert!(out.compacted.size() <= ptp.size());
        // SFU SBs are independent: coverage must not drop measurably.
        assert!(
            out.report.fc_diff_pct() > -1.0,
            "ΔFC {}",
            out.report.fc_diff_pct()
        );
    }

    #[test]
    fn observed_compaction_records_stage_spans_and_metrics() {
        let compactor = Compactor {
            obs: Some(Arc::new(Recorder::new())),
            ..Compactor::default()
        };
        let ptp = generate_imm(&ImmConfig {
            sb_count: 8,
            ..ImmConfig::default()
        });
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();

        let rec = compactor.obs.as_deref().unwrap();
        let spans = rec.spans();
        for stage in [
            "stage.analyze",
            "stage.trace",
            "stage.fsim",
            "stage.label",
            "stage.reduce",
            "stage.verify",
            "stage.eval",
        ] {
            assert_eq!(
                spans.iter().filter(|s| s.name == stage).count(),
                1,
                "expected exactly one {stage} span"
            );
        }
        assert!(
            spans.iter().any(|s| s.name == "fsim.worker"),
            "fault-engine worker spans missing"
        );
        assert!(
            spans.iter().any(|s| s.name == "analyze.run"),
            "netlist-analyzer spans missing"
        );
        // The report carries the delta, which on a fresh recorder is the
        // whole run; its pipeline counters match the report's fields.
        let m = &out.report.metrics;
        assert_eq!(m.counter("pipeline.ptps"), 1);
        assert_eq!(
            m.counter("pipeline.fsim_runs"),
            out.report.fault_sim_runs as u64
        );
        assert_eq!(
            m.counter("label.essential"),
            out.report.essential_instructions as u64
        );
        assert_eq!(
            m.counter("reduce.sbs_removed"),
            out.report.sbs_removed as u64
        );
        assert_eq!(m.counter("verify.errors"), 0);
        assert_eq!(m.counter("analyze.errors"), 0);
        assert_eq!(out.report.analyze.total_errors(), 0);
        // Eval-stage simulations observe too, so the raw engine counter
        // exceeds the method's single budgeted run.
        assert!(m.counter("fsim.runs") > 1);
    }

    #[test]
    fn disabled_observer_leaves_metrics_empty() {
        let compactor = Compactor::default();
        let ptp = generate_imm(&ImmConfig {
            sb_count: 6,
            ..ImmConfig::default()
        });
        let mut ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let out = compactor.compact(&ptp, &mut ctx).unwrap();
        assert!(out.report.metrics.is_empty());
    }

    #[test]
    fn features_match_table1_shape() {
        let compactor = Compactor::default();
        let ctx = compactor.context_for(ModuleKind::DecoderUnit);
        let ptp = generate_imm(&ImmConfig {
            sb_count: 8,
            ..ImmConfig::default()
        });
        let f = compactor.features(&ptp, &ctx).unwrap();
        assert_eq!(f.size, ptp.size());
        assert!(f.arc_fraction > 0.99);
        assert!(f.duration > 0);
        assert!(f.fault_coverage > 0.0);
    }
}
