//! The traced replay: the compaction pipeline re-run one layer at a time
//! through each layer's public functions, with a span around every call.
//!
//! The replay mirrors `Compactor::compact` and `compact_stl_with` call for
//! call (same inputs, same fault-list mutations, the same per-instance
//! thread split), so its outputs must equal the untraced job's byte for
//! byte — the benchmark checks that. Spans are recorded by this file only;
//! the program itself runs with observability off.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use warpstl_core::jobs::{gpu_for_lanes, stl_report_array, JobOptions};
use warpstl_core::{
    label_instructions, reduce_ptp_with, CompactionReport, Compactor, ModuleContext, StageTimings,
};
use warpstl_fault::{
    BridgeConfig, BridgeList, FaultList, FaultModel, FaultSimConfig, FaultSimReport, FaultUniverse,
};
use warpstl_gpu::RunResult;
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::PatternSeq;
use warpstl_programs::serialize::{ptp_from_text, ptp_to_text, stl_from_text, stl_to_text};
use warpstl_programs::{segment_small_blocks, ArcAnalysis, BasicBlocks, Ptp};
use warpstl_store::{
    cached_analyze, cached_bridge_sim, cached_fault_sim, key_bridge_sim, key_fsim, CacheCtx,
    EntryKind, Store,
};
use warpstl_verify::{verify_reduction, Severity, VerifyOptions};

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `gpu.trace`.
    name: &'static str,
    /// Start, seconds since the tracer was created.
    start: f64,
    /// End, seconds since the tracer was created.
    end: f64,
    /// Index of the enclosing span, `None` for a top-level span.
    parent: Option<usize>,
}

/// In-memory span and count recorder for one replay pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Adds `n` to the count `name`.
    pub fn add(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// A recorded count (0 when never added).
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds in spans named `name`, at any depth.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Total seconds covered by top-level spans.
    #[must_use]
    pub fn top_level_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// The compactor `compact_job` / `compact_stl_job` build from `opts`.
///
/// # Errors
///
/// An invalid lane count.
pub fn compactor_for(opts: &JobOptions, store: Option<Arc<Store>>) -> Result<Compactor, String> {
    let gpu = gpu_for_lanes(opts.lanes).map_err(|e| e.to_string())?;
    let mut bridge_config = BridgeConfig::default();
    if opts.bridge_pairs != 0 {
        bridge_config.pairs = opts.bridge_pairs;
    }
    Ok(Compactor {
        gpu,
        reverse_patterns: opts.reverse,
        respect_arc: opts.respect_arc,
        prune_untestable: opts.prune,
        fault_model: opts.fault_model,
        bridge_config,
        obs: None,
        store,
        fsim_config: FaultSimConfig {
            backend: opts.backend,
            threads: opts.threads,
            drop_detected: opts.drop_detected,
            early_exit: opts.drop_detected,
        },
    })
}

/// The compactor the STL flow uses for `module` (reverse-order patterns
/// for the SFU, as in `compact_stl_job`).
#[must_use]
pub fn module_compactor(base: &Compactor, module: ModuleKind) -> Compactor {
    Compactor {
        reverse_patterns: module == ModuleKind::Sfu,
        ..base.clone()
    }
}

/// Target modules of an STL in first-appearance order.
#[must_use]
pub fn modules_of(ptps: &[Ptp]) -> Vec<ModuleKind> {
    let mut modules = Vec::new();
    for p in ptps {
        if !modules.contains(&p.target) {
            modules.push(p.target);
        }
    }
    modules
}

/// What one fault-engine call did, measured inside its worker.
struct Call {
    report: FaultSimReport,
    /// `Some(true)` when the store already held the entry.
    hit: Option<bool>,
    targeted: usize,
    patterns: usize,
}

/// The pipeline's per-instance thread split: each non-empty stream gets
/// `budget / active` engine threads and its own scoped worker when more
/// than one instance is active and the budget allows; otherwise the
/// instances run inline in order.
fn per_instance<L: Send>(
    streams: &[Cow<'_, PatternSeq>],
    lists: &mut [L],
    config: &FaultSimConfig,
    sim: impl Fn(&PatternSeq, &mut L, &FaultSimConfig) -> Call + Sync,
) -> Vec<Call> {
    let active = streams.iter().filter(|s| !s.is_empty()).count();
    let budget = config.resolved_threads();
    let each = FaultSimConfig {
        threads: (budget / active.max(1)).max(1),
        ..*config
    };
    if active <= 1 || budget <= 1 {
        return streams
            .iter()
            .zip(lists.iter_mut())
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, list)| sim(s.as_ref(), list, &each))
            .collect();
    }
    let (sim, each) = (&sim, &each);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(lists.iter_mut())
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, list)| scope.spawn(move || sim(s.as_ref(), list, each)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fault-sim worker panicked"))
            .collect()
    })
}

/// Simulates `streams` against `lists` with the active fault model's
/// cached entry point, classifying each call as a store hit or miss by
/// looking its key up before the call.
fn simulate_stuck_at(
    ctx_parts: (
        &warpstl_netlist::Netlist,
        &mut [FaultList],
        warpstl_fault::SimGuide<'_>,
        CacheCtx<'_>,
    ),
    streams: &[Cow<'_, PatternSeq>],
    config: &FaultSimConfig,
) -> Vec<Call> {
    let (netlist, lists, guide, cache) = ctx_parts;
    per_instance(streams, lists, config, |s, list, cfg| {
        let hit = cache.store.map(|store| {
            let key = key_fsim(cache.netlist_key, s, list, cfg, &guide);
            store.entry_path(EntryKind::FsimStamps, key).exists()
        });
        let targeted = list.undetected().count();
        let report = cached_fault_sim(cache, netlist, s, list, cfg, None, &guide);
        Call {
            report,
            hit,
            targeted,
            patterns: s.len(),
        }
    })
}

/// The bridging twin of [`simulate_stuck_at`].
fn simulate_bridging(
    ctx_parts: (&warpstl_netlist::Netlist, &mut [BridgeList], CacheCtx<'_>),
    streams: &[Cow<'_, PatternSeq>],
    config: &FaultSimConfig,
) -> Vec<Call> {
    let (netlist, lists, cache) = ctx_parts;
    per_instance(streams, lists, config, |s, list, cfg| {
        let hit = cache.store.map(|store| {
            let key = key_bridge_sim(cache.netlist_key, s, list, cfg);
            store.entry_path(EntryKind::FsimStamps, key).exists()
        });
        let targeted = list.undetected().count();
        let report = cached_bridge_sim(cache, netlist, s, list, cfg, None);
        Call {
            report,
            hit,
            targeted,
            patterns: s.len(),
        }
    })
}

/// Folds one instance group's calls into the tracer's counts and merges
/// the reports in instance order. The instances run concurrently, so the
/// store's time is the group's wall `seconds`: a read when every call was
/// served from the store, a miss (compute and write) otherwise.
fn account(t: &mut Tracer, calls: &[Call], seconds: f64, budgeted: bool) -> FaultSimReport {
    let mut merged = FaultSimReport::new();
    for call in calls {
        merged.merge(&call.report);
        t.add("fault.calls", 1.0);
        t.add("fault.patterns", call.patterns as f64);
        if budgeted {
            t.add("fault.targeted", call.targeted as f64);
            t.add("fault.detected", f64::from(call.report.total_detected()));
        }
    }
    if calls.iter().any(|c| c.hit == Some(false)) {
        t.add("store.miss_s", seconds);
    } else if calls.iter().any(|c| c.hit == Some(true)) {
        t.add("store.read_s", seconds);
    }
    merged
}

/// The stage-3a fault simulation against the context's dropping lists.
fn budgeted_sim(
    c: &Compactor,
    run: &RunResult,
    ctx: &mut ModuleContext,
    t: &mut Tracer,
) -> FaultSimReport {
    let streams: Vec<Cow<'_, PatternSeq>> = ctx
        .streams(&run.patterns)
        .into_iter()
        .map(|s| {
            if c.reverse_patterns {
                Cow::Owned(s.reversed())
            } else {
                Cow::Borrowed(s)
            }
        })
        .collect();
    let start = Instant::now();
    let calls = match ctx.model() {
        FaultModel::StuckAt => {
            simulate_stuck_at(ctx.netlist_and_lists_mut(), &streams, &c.fsim_config)
        }
        FaultModel::Bridging => {
            simulate_bridging(ctx.bridge_netlist_and_lists_mut(), &streams, &c.fsim_config)
        }
    };
    account(t, &calls, start.elapsed().as_secs_f64(), true)
}

/// Standalone coverage of a traced run on fresh lists (the eval stage).
fn standalone(c: &Compactor, run: &RunResult, ctx: &ModuleContext, t: &mut Tracer) -> f64 {
    let cfg = FaultSimConfig {
        threads: c.fsim_config.threads,
        backend: c.fsim_config.backend,
        ..FaultSimConfig::default()
    };
    let streams: Vec<Cow<'_, PatternSeq>> = ctx
        .streams(&run.patterns)
        .into_iter()
        .map(Cow::Borrowed)
        .collect();
    match ctx.model() {
        FaultModel::StuckAt => {
            let mut lists = ctx.fresh_lists();
            let parts = (
                ctx.netlist(),
                lists.as_mut_slice(),
                ctx.sim_guide(),
                ctx.cache_ctx(),
            );
            let start = Instant::now();
            let calls = simulate_stuck_at(parts, &streams, &cfg);
            account(t, &calls, start.elapsed().as_secs_f64(), false);
            lists.iter().map(FaultList::coverage).sum::<f64>() / lists.len().max(1) as f64
        }
        FaultModel::Bridging => {
            let mut lists = ctx.fresh_bridge_lists();
            let start = Instant::now();
            let calls = simulate_bridging(
                (ctx.netlist(), lists.as_mut_slice(), ctx.cache_ctx()),
                &streams,
                &cfg,
            );
            account(t, &calls, start.elapsed().as_secs_f64(), false);
            lists.iter().map(BridgeList::coverage).sum::<f64>() / lists.len().max(1) as f64
        }
    }
}

/// Replays `Compactor::compact` for one PTP, stage by stage.
///
/// # Errors
///
/// A GPU-model failure or a rejected analyze/verify gate.
pub fn compact(
    c: &Compactor,
    ptp: &Ptp,
    ctx: &mut ModuleContext,
    t: &mut Tracer,
) -> Result<(Ptp, CompactionReport), String> {
    let analyze_report = t.span("analyze.gate", |_| {
        cached_analyze(ctx.store(), ctx.netlist_key(), ctx.netlist(), None)
    });
    if !analyze_report.is_clean() {
        return Err(format!("analyze gate rejected {}", ctx.netlist().name()));
    }
    let run = t
        .span("gpu.trace", |_| c.trace(ptp))
        .map_err(|e| e.to_string())?;
    t.add("gpu.sim_cycles", run.cycles as f64);
    let captured: usize = ctx.streams(&run.patterns).iter().map(|s| s.len()).sum();
    t.add("gpu.patterns", captured as f64);
    let fsr = t.span("fault.sim", |t| budgeted_sim(c, &run, ctx, t));
    let labels = t.span("core.label", |_| {
        label_instructions(ptp.program.len(), &run.trace, &fsr)
    });
    let (compacted, removed_pcs, total_sbs, removed_sbs) = t.span("core.reduce", |_| {
        let reduction = reduce_ptp_with(ptp, &labels, c.respect_arc);
        let mut compacted = ptp.clone();
        compacted.program = reduction.program;
        compacted.global_init = reduction.global_init;
        compacted.sb_slots = reduction.sb_slots;
        (
            compacted,
            reduction.removed_pcs,
            reduction.total_sbs,
            reduction.removed_sbs,
        )
    });
    let verify_opts = VerifyOptions {
        arc_severity: if c.respect_arc {
            Severity::Error
        } else {
            Severity::Warning
        },
    };
    let verify_report = t.span("verify.reduction", |_| {
        verify_reduction(ptp, &compacted, &removed_pcs, &verify_opts)
    });
    if !verify_report.is_clean() {
        return Err(format!("verify gate rejected {}", ptp.name));
    }
    let fc_before = t.span("fault.eval_sim", |t| standalone(c, &run, ctx, t));
    let compacted_run = t
        .span("gpu.eval_trace", |_| c.trace(&compacted))
        .map_err(|e| e.to_string())?;
    t.add("gpu.sim_cycles", compacted_run.cycles as f64);
    let fc_after = t.span("fault.eval_sim", |t| standalone(c, &compacted_run, ctx, t));
    t.add("core.sbs_removed", removed_sbs as f64);
    t.add("core.essential", labels.essential_count() as f64);

    let report = CompactionReport {
        name: ptp.name.clone(),
        original_size: ptp.size(),
        compacted_size: compacted.size(),
        original_duration: run.cycles,
        compacted_duration: compacted_run.cycles,
        fc_before,
        fc_after,
        sbs_total: total_sbs,
        sbs_removed: removed_sbs,
        essential_instructions: labels.essential_count(),
        fault_sim_runs: 1,
        logic_sim_runs: 1,
        untestable: ctx.untestable_count(),
        compaction_time: std::time::Duration::ZERO,
        stage_timings: StageTimings::default(),
        analyze: analyze_report.stats(),
        verify: verify_report.stats(),
        metrics: Default::default(),
    };
    Ok((compacted, report))
}

/// Replays `compact_stl_job`: parse, one context per target module, the
/// PTPs in STL order against their module's dropping lists, serialize.
/// Returns the compacted STL text and the report array, which must equal
/// the job's output.
///
/// # Errors
///
/// As [`compact`], plus unparseable STL text.
pub fn compact_stl_text(
    text: &str,
    opts: &JobOptions,
    store: Option<Arc<Store>>,
    t: &mut Tracer,
) -> Result<(String, String), String> {
    let stl = t
        .span("programs.parse", |_| stl_from_text(text))
        .map_err(|e| e.to_string())?;
    let base = compactor_for(opts, store)?;
    let mut compacted = stl.clone();
    let mut reports: Vec<Option<CompactionReport>> = vec![None; stl.len()];
    for module in modules_of(stl.ptps()) {
        let c = module_compactor(&base, module);
        let mut ctx = t.span("core.context", |_| c.context_for(module));
        t.add("analyze.untestable", ctx.untestable_count() as f64);
        for (i, ptp) in stl.ptps().iter().enumerate() {
            if ptp.target != module {
                continue;
            }
            let (out, report) = t.span("core.compact", |t| compact(&c, ptp, &mut ctx, t))?;
            compacted.replace(i, out);
            reports[i] = Some(report);
        }
    }
    let reports: Vec<CompactionReport> = reports.into_iter().flatten().collect();
    Ok(t.span("programs.serialize", |_| {
        (stl_to_text(&compacted), stl_report_array(&reports))
    }))
}

/// Replays `compact_job` for one PTP text. Returns the compacted PTP text
/// and the report JSON, which must equal the job's output.
///
/// # Errors
///
/// As [`compact`], plus unparseable PTP text.
pub fn compact_ptp_text(
    text: &str,
    opts: &JobOptions,
    store: Option<Arc<Store>>,
    t: &mut Tracer,
) -> Result<(String, String), String> {
    let ptp = t
        .span("programs.parse", |_| ptp_from_text(text))
        .map_err(|e| e.to_string())?;
    let c = compactor_for(opts, store)?;
    let mut ctx = t.span("core.context", |_| c.context_for(ptp.target));
    t.add("analyze.untestable", ctx.untestable_count() as f64);
    let (out, report) = t.span("core.compact", |t| compact(&c, &ptp, &mut ctx, t))?;
    Ok(t.span("programs.serialize", |_| {
        (ptp_to_text(&out), report.to_json())
    }))
}

/// Times the pieces `ModuleContext::new` is built from, one layer call
/// each, for every module in `modules`; and the partitioning the reduce
/// stage recomputes, for every PTP in `ptps`. These calls sit outside the
/// replayed pass, so they do not count toward its residual.
pub fn probe_setup_layers(modules: &[ModuleKind], ptps: &[Ptp], t: &mut Tracer) {
    for &module in modules {
        let netlist = t.span("netlist.build", |_| module.build());
        t.add("netlist.gates", netlist.gates().len() as f64);
        let _levels = t.span("netlist.levelize", |_| netlist.levelize());
        let universe = t.span("fault.universe", |_| FaultUniverse::enumerate(&netlist));
        t.add("fault.collapsed_faults", universe.collapsed_len() as f64);
        let _analysis = t.span("analyze.run", |_| warpstl_analyze::analyze(&netlist));
    }
    for ptp in ptps {
        t.span("programs.partition", |_| {
            let bbs = BasicBlocks::of(&ptp.program);
            let arc = ArcAnalysis::of(&ptp.program, &bbs);
            let sbs = segment_small_blocks(&ptp.program, &bbs);
            (arc, sbs)
        });
    }
}
