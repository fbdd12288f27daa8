//! Per-module compaction context: the netlist and the shared fault lists.

use std::sync::Arc;

use warpstl_analyze::{analyze_observed, Analysis};
use warpstl_fault::{
    BridgeConfig, BridgeList, BridgeUniverse, Fault, FaultId, FaultList, FaultModel, FaultSite,
    FaultUniverse, Polarity, SimGuide,
};
use warpstl_gpu::ModulePatterns;
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Levelization, NetId, Netlist, PatternSeq};
use warpstl_obs::Obs;
use warpstl_store::{key_netlist, CacheCtx, Key, Store};

/// The per-target-module state shared across the PTPs of an STL: the module
/// netlist, its collapsed fault universe, and one fault list per physical
/// instance (8 SP cores, 2 SFUs, 1 DU).
///
/// This is the paper's fault-dropping mechanism: "this fault list report
/// initially includes all faults of a target module; after each fault
/// simulation (one per PTP) the fault list is updated and detected faults
/// are removed."
///
/// # Examples
///
/// ```
/// use warpstl_core::Compactor;
/// use warpstl_netlist::modules::ModuleKind;
///
/// let ctx = Compactor::default().context_for(ModuleKind::Sfu);
/// assert_eq!(ctx.instances(), 2);
/// assert_eq!(ctx.coverage(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ModuleContext {
    module: ModuleKind,
    netlist: Netlist,
    universe: FaultUniverse,
    lists: Vec<FaultList>,
    analysis: Analysis,
    levels: Levelization,
    /// Per collapsed-class flag: statically proven untestable.
    untestable: Vec<bool>,
    /// Whether the simulation guide prunes proven-untestable classes from
    /// the target set (list marking happens regardless).
    prune: bool,
    store: Option<Arc<Store>>,
    netlist_key: Key,
    /// The active fault model; the bridging state below is populated iff
    /// this is [`FaultModel::Bridging`].
    model: FaultModel,
    bridge: Option<BridgeState>,
}

/// The bridging counterpart of the stuck-at `universe` + `lists` pair: a
/// deterministically sampled two-net bridge universe and one dropping
/// [`BridgeList`] per instance. Untestability proofs are a stuck-at
/// construct, so bridging lists carry none — every sampled bridge counts
/// in the coverage denominator.
#[derive(Debug, Clone)]
struct BridgeState {
    universe: BridgeUniverse,
    lists: Vec<BridgeList>,
}

/// Maps the analyzer's per-site untestability proofs onto the collapsed
/// fault classes of `universe`: the returned bitmap flags every class with
/// a proven-untestable member (equivalent faults share test sets, so one
/// proven member condemns the class). Untestability also crosses the
/// analyzer's implication-derived `(pin-fault class, output-fault class)`
/// equivalences.
fn map_untestability(
    netlist: &Netlist,
    universe: &FaultUniverse,
    analysis: &Analysis,
) -> Vec<bool> {
    let unt = &analysis.untestable;
    let mut bitmap = vec![false; universe.collapsed_len()];
    let rep = |site: FaultSite, stuck: bool| {
        universe.rep_of(Fault::new(site, Polarity::BOTH[usize::from(stuck)]))
    };
    // The proofs are indexed by site, so walk every enumerable site and
    // map it through the universe — checking only class representatives
    // would miss proofs landing on a non-representative member.
    for (i, g) in netlist.gates().iter().enumerate() {
        let id = NetId(i as u32);
        for stuck in [false, true] {
            if unt.output_untestable(i, stuck) {
                if let Some(c) = rep(FaultSite::Output(id), stuck) {
                    bitmap[c] = true;
                }
            }
            for p in 0..g.kind.arity() {
                if unt.pin_untestable(i, p, stuck) {
                    if let Some(c) = rep(FaultSite::InputPin(id, p as u8), stuck) {
                        bitmap[c] = true;
                    }
                }
            }
        }
    }
    let pairs: Vec<(FaultId, FaultId)> = unt
        .merges()
        .iter()
        .filter_map(|m| {
            let id = NetId(m.gate as u32);
            let dropped = rep(FaultSite::InputPin(id, m.pin), m.pin_polarity)?;
            let kept = rep(FaultSite::Output(id), m.out_polarity)?;
            Some((dropped, kept))
        })
        .collect();
    // Equivalent classes share test sets: untestability crosses the
    // pairs (iterated, since merges can chain through shared classes).
    loop {
        let mut changed = false;
        for &(a, b) in &pairs {
            if bitmap[a] != bitmap[b] {
                bitmap[a] = true;
                bitmap[b] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    bitmap
}

impl ModuleContext {
    /// Builds the context for `module` with `instances` fault lists.
    ///
    /// The one-pass static analysis (SCOAP measures, lints, implication
    /// closure), the untestability bitmap and the levelization all run
    /// here, once per module; every PTP compacted against this context
    /// reuses them, the compactor's analyze gate included. Each fault list
    /// is born with the proven classes
    /// [marked untestable](FaultList::mark_untestable), so coverage
    /// denominators count testable faults only.
    #[must_use]
    pub fn new(module: ModuleKind, instances: usize) -> ModuleContext {
        ModuleContext::observed(module, instances, None)
    }

    /// [`ModuleContext::new`] with the analysis reporting to `obs` (its
    /// `analyze.run` spans and counters).
    pub(crate) fn observed(module: ModuleKind, instances: usize, obs: Obs<'_>) -> ModuleContext {
        let netlist = module.build();
        let universe = FaultUniverse::enumerate(&netlist);
        let analysis = analyze_observed(&netlist, obs);
        let untestable = map_untestability(&netlist, &universe, &analysis);
        let lists = (0..instances)
            .map(|_| {
                let mut l = FaultList::new(&universe);
                l.mark_untestable(&untestable);
                l
            })
            .collect();
        let levels = netlist.levelize();
        let netlist_key = key_netlist(&netlist);
        ModuleContext {
            module,
            netlist,
            universe,
            lists,
            analysis,
            levels,
            untestable,
            prune: true,
            store: None,
            netlist_key,
            model: FaultModel::StuckAt,
            bridge: None,
        }
    }

    /// Selects the fault model. [`FaultModel::Bridging`] samples the
    /// two-net bridge universe (deterministic in `config`) and replaces
    /// the per-instance ledgers with [`BridgeList`]s; the stuck-at
    /// universe and analysis products stay available (the analyze gate is
    /// model-independent). [`FaultModel::StuckAt`] restores the default.
    #[must_use]
    pub fn with_model(mut self, model: FaultModel, config: &BridgeConfig) -> ModuleContext {
        self.model = model;
        self.bridge = match model {
            FaultModel::StuckAt => None,
            FaultModel::Bridging => {
                let universe = BridgeUniverse::sample(&self.netlist, config);
                let lists = (0..self.lists.len()).map(|_| universe.new_list()).collect();
                Some(BridgeState { universe, lists })
            }
        };
        self
    }

    /// The active fault model.
    #[must_use]
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The sampled bridge universe (bridging model only).
    #[must_use]
    pub fn bridge_universe(&self) -> Option<&BridgeUniverse> {
        self.bridge.as_ref().map(|b| &b.universe)
    }

    /// The shared bridge list of instance `i` (bridging model only).
    ///
    /// # Panics
    ///
    /// Panics when the context is not in bridging mode.
    #[must_use]
    pub fn bridge_list(&self, i: usize) -> &BridgeList {
        &self.bridge.as_ref().expect("bridging model").lists[i]
    }

    /// Splits the borrow for the bridging model: the shared netlist and
    /// cache handle alongside all per-instance bridge lists — the
    /// bridging counterpart of [`netlist_and_lists_mut`].
    ///
    /// # Panics
    ///
    /// Panics when the context is not in bridging mode.
    ///
    /// [`netlist_and_lists_mut`]: ModuleContext::netlist_and_lists_mut
    pub fn bridge_netlist_and_lists_mut(&mut self) -> (&Netlist, &mut [BridgeList], CacheCtx<'_>) {
        let cache = CacheCtx {
            store: self.store.as_deref(),
            netlist_key: self.netlist_key,
        };
        let bridge = self.bridge.as_mut().expect("bridging model");
        (&self.netlist, &mut bridge.lists, cache)
    }

    /// Fresh bridge lists over the sampled universe (for standalone
    /// evaluations in bridging mode).
    ///
    /// # Panics
    ///
    /// Panics when the context is not in bridging mode.
    #[must_use]
    pub fn fresh_bridge_lists(&self) -> Vec<BridgeList> {
        let bridge = self.bridge.as_ref().expect("bridging model");
        (0..self.instances())
            .map(|_| bridge.universe.new_list())
            .collect()
    }

    /// Enables or disables static pruning: when disabled, the simulation
    /// guide omits the untestable bitmap, so the engine simulates every
    /// target class. The fault lists keep their untestability marks either
    /// way — detected sets and coverage are identical in both modes (the
    /// pruned classes are provably undetectable), making this a
    /// cross-check knob, not a semantics knob.
    #[must_use]
    pub fn with_pruning(mut self, prune: bool) -> ModuleContext {
        self.prune = prune;
        self
    }

    /// Attaches (or detaches) the artifact store: every fault-engine
    /// invocation against this context then consults it before computing.
    /// PTPs sharing the context (the STL flow) share its hits.
    #[must_use]
    pub fn with_store(mut self, store: Option<Arc<Store>>) -> ModuleContext {
        self.store = store;
        self
    }

    /// The attached artifact store, when caching is enabled.
    #[must_use]
    pub fn store(&self) -> Option<&Store> {
        self.store.as_deref()
    }

    /// The canonical content key of this module's netlist (all per-module
    /// artifact keys derive from it).
    #[must_use]
    pub fn netlist_key(&self) -> Key {
        self.netlist_key
    }

    /// The cache handle fault-simulation call sites thread through to
    /// [`cached_fault_sim`](warpstl_store::cached_fault_sim).
    #[must_use]
    pub fn cache_ctx(&self) -> CacheCtx<'_> {
        CacheCtx {
            store: self.store.as_deref(),
            netlist_key: self.netlist_key,
        }
    }

    /// The target module.
    #[must_use]
    pub fn module(&self) -> ModuleKind {
        self.module
    }

    /// The gate-level netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The collapsed fault universe.
    #[must_use]
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The module's static analysis (SCOAP measures + lint report).
    #[must_use]
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The module's levelization (rank-major gate ordering); the levelized
    /// simulation kernel evaluates over it.
    #[must_use]
    pub fn levels(&self) -> &Levelization {
        &self.levels
    }

    /// The per-class untestability bitmap (indexed by collapsed class id).
    #[must_use]
    pub fn untestable_bitmap(&self) -> &[bool] {
        &self.untestable
    }

    /// Number of fault classes statically proven untestable. The proofs
    /// are stuck-at constructs; in bridging mode this is always 0.
    #[must_use]
    pub fn untestable_count(&self) -> usize {
        match self.model {
            FaultModel::StuckAt => self.untestable.iter().filter(|&&u| u).count(),
            FaultModel::Bridging => 0,
        }
    }

    /// Whether the simulation guide prunes proven-untestable classes.
    #[must_use]
    pub fn pruning(&self) -> bool {
        self.prune
    }

    /// The simulation guide (untestable pruning + cached levelization)
    /// borrowed from this context — hand it to
    /// [`fault_simulate`](warpstl_fault::fault_simulate).
    #[must_use]
    pub fn sim_guide(&self) -> SimGuide<'_> {
        SimGuide {
            untestable: self.prune.then_some(self.untestable.as_slice()),
            levels: Some(&self.levels),
        }
    }

    /// The number of module instances (= fault lists).
    #[must_use]
    pub fn instances(&self) -> usize {
        self.lists.len()
    }

    /// The shared fault list of instance `i`.
    #[must_use]
    pub fn list(&self, i: usize) -> &FaultList {
        &self.lists[i]
    }

    /// Mutable access to instance `i`'s fault list.
    pub fn list_mut(&mut self, i: usize) -> &mut FaultList {
        &mut self.lists[i]
    }

    /// Splits the borrow: the (shared) netlist, simulation guide, and
    /// cache handle alongside all (mutable) per-instance fault lists, so
    /// fault simulation can borrow everything at once without cloning.
    pub fn netlist_and_lists_mut(
        &mut self,
    ) -> (&Netlist, &mut [FaultList], SimGuide<'_>, CacheCtx<'_>) {
        let guide = SimGuide {
            untestable: self.prune.then_some(self.untestable.as_slice()),
            levels: Some(&self.levels),
        };
        let cache = CacheCtx {
            store: self.store.as_deref(),
            netlist_key: self.netlist_key,
        };
        (&self.netlist, &mut self.lists, guide, cache)
    }

    /// Fresh fault lists (for standalone evaluations), untestability marks
    /// applied so their coverage uses the same denominator as the shared
    /// lists.
    #[must_use]
    pub fn fresh_lists(&self) -> Vec<FaultList> {
        (0..self.instances())
            .map(|_| {
                let mut l = FaultList::new(&self.universe);
                l.mark_untestable(&self.untestable);
                l
            })
            .collect()
    }

    /// The per-instance pattern streams of this module from a capture.
    #[must_use]
    pub fn streams<'a>(&self, patterns: &'a ModulePatterns) -> Vec<&'a PatternSeq> {
        match self.module {
            ModuleKind::DecoderUnit => vec![&patterns.du],
            ModuleKind::SpCore => patterns.sp.iter().collect(),
            ModuleKind::Sfu => patterns.sfu.iter().collect(),
            ModuleKind::Fp32 => patterns.fp32.iter().collect(),
        }
    }

    /// Aggregate fault coverage across all instances (weighted over the
    /// full universe of every instance), under the active fault model.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if let Some(bridge) = &self.bridge {
            if bridge.lists.is_empty() {
                return 0.0;
            }
            return bridge.lists.iter().map(BridgeList::coverage).sum::<f64>()
                / bridge.lists.len() as f64;
        }
        if self.lists.is_empty() {
            return 0.0;
        }
        self.lists.iter().map(FaultList::coverage).sum::<f64>() / self.lists.len() as f64
    }

    /// Total faults across instances under the active fault model (the
    /// paper counts the functional units' faults over all 8 SP cores /
    /// 2 SFUs).
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        if let Some(bridge) = &self.bridge {
            return bridge.lists.iter().map(BridgeList::total_weight).sum();
        }
        self.lists
            .iter()
            .map(warpstl_fault::FaultList::total_weight)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_match_module_kind() {
        let c = ModuleContext::new(ModuleKind::SpCore, ModuleKind::SpCore.instances_per_sm());
        assert_eq!(c.instances(), 8);
        assert_eq!(c.module(), ModuleKind::SpCore);
        assert!(c.total_faults() > 8 * 1000);
    }

    #[test]
    fn streams_select_the_right_capture() {
        let c = ModuleContext::new(ModuleKind::Sfu, 2);
        let caps = ModulePatterns::new(8, 2);
        assert_eq!(c.streams(&caps).len(), 2);
        let c = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        assert_eq!(c.streams(&caps).len(), 1);
    }

    #[test]
    fn context_carries_analysis_products() {
        let c = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        // Bundled modules pass the lint gate...
        assert!(c.analysis().is_clean());
        // ...and the guide hands the engine the cached levelization.
        assert!(c.sim_guide().levels.is_some());
    }

    #[test]
    fn pruning_toggle_leaves_detection_bit_identical() {
        // The acceptance property behind `--no-prune`: simulating with the
        // untestable classes pruned from the target set detects exactly
        // the same faults, with the same stamps, as simulating them all.
        let netlist = ModuleKind::DecoderUnit.build();
        let width = netlist.inputs().width();
        let mut patterns = PatternSeq::new(width);
        let mut seed = 0x5eed_0001_u64;
        for cc in 0..48u64 {
            let bits: Vec<bool> = (0..width)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed & 1 == 1
                })
                .collect();
            patterns.push_bits(cc, &bits);
        }
        let run = |prune: bool| {
            let mut ctx = ModuleContext::new(ModuleKind::DecoderUnit, 1).with_pruning(prune);
            assert_eq!(ctx.sim_guide().untestable.is_some(), prune);
            let (netlist, lists, guide, _) = ctx.netlist_and_lists_mut();
            let report = warpstl_fault::fault_simulate(
                netlist,
                &patterns,
                &mut lists[0],
                &warpstl_fault::FaultSimConfig::default(),
                None,
                &guide,
            );
            (ctx.list(0).to_report_text(), ctx.coverage(), report)
        };
        let (text_on, cov_on, rep_on) = run(true);
        let (text_off, cov_off, rep_off) = run(false);
        assert_eq!(text_on, text_off);
        assert_eq!(cov_on, cov_off);
        assert_eq!(rep_on.total_detected(), rep_off.total_detected());
        // The pruned run accounts for exactly the proven classes; the
        // unpruned run prunes nothing.
        let ctx = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        assert_eq!(rep_on.untestable_count() as usize, ctx.untestable_count());
        assert_eq!(rep_off.untestable_count(), 0);
        assert_eq!(ctx.untestable_count(), ctx.list(0).untestable_count());
    }

    #[test]
    fn coverage_averages_instances() {
        let mut c = ModuleContext::new(ModuleKind::DecoderUnit, 1);
        assert_eq!(c.coverage(), 0.0);
        c.list_mut(0).begin_run();
        for id in 0..c.list(0).len() {
            c.list_mut(0).mark_detected(id, 0, 0);
        }
        assert!((c.coverage() - 1.0).abs() < 1e-12);
    }
}
