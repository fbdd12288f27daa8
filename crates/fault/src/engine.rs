//! The parallel fault-simulation engine: batch-level threading plus
//! fanout-cone pruning, generic over the fault model ([`Injectable`]).
//!
//! [`fault_simulate`](crate::fault_simulate) partitions its target faults
//! into 63-fault batches (63 faulty machines + the good machine per 64-bit
//! word). The batches are *fully independent*: the target snapshot is taken
//! once per run, every fault belongs to exactly one batch, and the
//! [`FaultList`] is only written after all batches finish. That independence
//! is exploited twice:
//!
//! 1. **Threading** — batches are split into contiguous ranges and fanned
//!    out over a scoped worker pool (`std::thread::scope`; worker count from
//!    [`FaultSimConfig::threads`](crate::FaultSimConfig::threads), the
//!    `WARPSTL_THREADS` environment variable, or the machine's available
//!    parallelism). Each worker fills private buffers which are merged in
//!    global batch order afterwards, so the resulting [`FaultSimReport`] is
//!    **bit-identical** to a serial run: serial detections are emitted
//!    batch-major, and per-pattern detection counts are exact integer
//!    sums, which are order-independent.
//!
//! 2. **Fanout-cone pruning** — a gate's lanes can differ from the good
//!    machine only if the gate is an injection site or (transitively) reads
//!    one, i.e. only inside the union fanout cone
//!    ([`FanoutCones`]) of the batch's injection sites. The event path
//!    therefore evaluates the good machine once per pattern per batch
//!    *group* and re-evaluates only cone gates per batch, instead of the
//!    whole netlist per batch.
//!
//! Each worker runs one of two loops over its batches: the event path
//! below (lanes are faulty machines, one pattern at a time; the only loop
//! that carries flip-flop state) or the levelized kernel of the private
//! `kernel` module (lanes are patterns, combinational netlists only).

use warpstl_netlist::{FanoutCones, Gate, GateKind, Levelization, Netlist, PatternSeq};
use warpstl_obs::{Metrics, Obs, ObsExt};

use crate::{
    FaultId, FaultList, FaultSimConfig, FaultSimReport, FaultSite, Injectable, SimBackend, SimGuide,
};

/// How many batches a worker interleaves in one pattern sweep. Each batch in
/// a group costs a full-width value buffer, so the group bounds memory while
/// still amortizing the shared good-machine evaluation across its members.
const GROUP: usize = 16;

/// The host's available parallelism, queried **once per process** and
/// cached. The engine resolves its worker budget on every invocation, and a
/// long-running daemon resolves it once per job on top of that — re-querying
/// the OS each time is wasted syscall traffic and, worse, lets two layers
/// (a serve worker pool and the engine inside each worker) disagree about
/// the budget mid-flight. One cached value means every layer divides the
/// same number.
#[must_use]
pub fn host_parallelism() -> usize {
    static HOST: warpstl_sync::OnceLock<usize> = warpstl_sync::OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves the worker count: explicit config, then `WARPSTL_THREADS`, then
/// the machine's available parallelism — always clamped to the host's
/// available parallelism (resolved once per process, see
/// [`host_parallelism`]). Oversubscribing OS threads on a smaller host only
/// adds scheduling overhead (up to 20 % on a 1-core host in `BENCH_fsim`),
/// and the engine's results are bit-identical for every worker count, so
/// capping is safe.
pub(crate) fn resolve_threads(config: &FaultSimConfig) -> usize {
    let host = host_parallelism();
    if config.threads > 0 {
        return config.threads.min(host);
    }
    // An invalid WARPSTL_THREADS warns once per process (the engine is
    // called in loops) via the shared helper, then falls back to auto.
    warpstl_sync::env::parsed_var(
        "WARPSTL_THREADS",
        "a positive integer",
        "available parallelism",
        |s| s.trim().parse::<usize>().ok().filter(|n| *n > 0),
    )
    .map_or(host, |n| n.min(host))
}

/// Resolves the simulation backend: explicit config, then
/// `WARPSTL_SIM_BACKEND`, then auto — and the kernel falls back to the
/// event path on sequential netlists, since only the event path carries
/// flip-flop state across patterns. Both paths produce bit-identical
/// results, so this is purely a performance knob (and, like the thread
/// count, it never enters artifact-cache keys).
pub(crate) fn resolve_backend(config: &FaultSimConfig, combinational: bool) -> SimBackend {
    let requested = if config.backend != SimBackend::Auto {
        config.backend
    } else {
        // An unknown WARPSTL_SIM_BACKEND warns once per process via the
        // shared helper, then runs on auto.
        warpstl_sync::env::parsed_var(
            "WARPSTL_SIM_BACKEND",
            "auto, event, or kernel",
            "auto",
            SimBackend::parse,
        )
        .unwrap_or(SimBackend::Auto)
    };
    if requested != SimBackend::Event && combinational {
        SimBackend::Kernel
    } else {
        SimBackend::Event
    }
}

/// Read-only state shared by every worker.
pub(crate) struct Ctx<'a> {
    pub(crate) gates: &'a [Gate],
    pub(crate) patterns: &'a PatternSeq,
    pub(crate) cones: &'a FanoutCones,
    pub(crate) in_nets: &'a [usize],
    pub(crate) out_nets: &'a [usize],
    pub(crate) dff_nets: &'a [usize],
    pub(crate) config: FaultSimConfig,
    /// Rank-major netlist layout, present exactly when the resolved backend
    /// is the kernel (borrowed from the guide or levelized per run); the
    /// workers select their loop by it.
    pub(crate) levels: Option<&'a Levelization>,
}

/// One 63-fault batch, fully resolved for the event path: injection masks
/// are stored per *cone position* so the pattern loop never touches
/// full-width mask tables.
struct BatchPlan<F> {
    /// `(fault id, fault)` per lane; lane `i + 1` simulates `faults[i]`.
    faults: Vec<(FaultId, F)>,
    /// Bits of the faulty lanes (bit 0, the good machine, excluded).
    lanes_mask: u64,
    /// Union fanout cone of the injection sites, ascending gate indices
    /// (ascending is a topological order of the combinational logic).
    cone: Vec<u32>,
    /// Nets read by cone gates but not in the cone: they always carry the
    /// good-machine value and are copied in before each cone evaluation.
    boundary: Vec<u32>,
    /// Lanes whose fault forces this gate's output, aligned with `cone`.
    out_force: Vec<u64>,
    /// Lanes whose fault forces one of this gate's input pins.
    pin_force: Vec<[u64; 3]>,
    /// Cone flip-flops in cone order: `(q gate, d net, pin-0 lanes)`.
    dffs: Vec<(u32, u32, u64)>,
    /// Output nets inside the cone (the only ones that can observe a diff).
    outs: Vec<u32>,
}

impl<F: Injectable> BatchPlan<F> {
    /// Resolves one batch: builds injection masks, the union cone, and its
    /// boundary. `in_cone` is caller-provided scratch of `gates.len()`,
    /// false on entry and restored to false on exit.
    fn build(ctx: &Ctx<'_>, faults: &[(FaultId, F)], in_cone: &mut [bool]) -> BatchPlan<F> {
        let cone = ctx.cones.union_cone(
            faults
                .iter()
                .flat_map(|(_, f)| f.sites())
                .map(|s| s.gate().index()),
        );
        for &g in &cone {
            in_cone[g as usize] = true;
        }

        let mut out_force = vec![0u64; cone.len()];
        let mut pin_force = vec![[0u64; 3]; cone.len()];
        for (lane0, (_, f)) in faults.iter().enumerate() {
            let bit = 1u64 << (lane0 + 1);
            for site in f.sites() {
                let g = site.gate().index() as u32;
                let j = cone.binary_search(&g).expect("site gate is a cone seed");
                match site {
                    FaultSite::Output(_) => out_force[j] |= bit,
                    FaultSite::InputPin(_, p) => pin_force[j][p as usize] |= bit,
                }
            }
        }

        let mut boundary: Vec<u32> = Vec::new();
        let mut dffs = Vec::new();
        for (j, &gu) in cone.iter().enumerate() {
            let gate = &ctx.gates[gu as usize];
            for &pin in gate.inputs() {
                if !in_cone[pin.index()] {
                    boundary.push(pin.index() as u32);
                }
            }
            if gate.kind == GateKind::Dff {
                dffs.push((gu, gate.pins[0].index() as u32, pin_force[j][0]));
            }
        }
        boundary.sort_unstable();
        boundary.dedup();
        let outs = ctx
            .out_nets
            .iter()
            .filter(|&&o| in_cone[o])
            .map(|&o| o as u32)
            .collect();

        for &g in &cone {
            in_cone[g as usize] = false;
        }
        let lanes_mask: u64 = if faults.len() == 63 {
            !1u64
        } else {
            ((1u64 << (faults.len() + 1)) - 1) & !1
        };
        BatchPlan {
            faults: faults.to_vec(),
            lanes_mask,
            cone,
            boundary,
            out_force,
            pin_force,
            dffs,
            outs,
        }
    }
}

/// Per-batch mutable simulation state.
struct BatchState {
    /// Full-width value buffer; only cone and boundary slots are live.
    vals: Vec<u64>,
    /// Flip-flop state, aligned with `BatchPlan::dffs`.
    state: Vec<u64>,
    detected_mask: u64,
    /// Cleared on early exit; mirrors the serial engine's `break`.
    active: bool,
    /// Detections in occurrence order: `(fault, cc, pattern index)`.
    detections: Vec<(FaultId, u64, usize)>,
}

/// What one worker hands back: per-batch detection logs (in the worker's
/// batch order) plus per-pattern detection counts summed over its batches
/// (every observation in non-drop mode, first detections otherwise).
pub(crate) struct WorkerOut {
    pub(crate) detections: Vec<Vec<(FaultId, u64, usize)>>,
    pub(crate) detected: Vec<u32>,
}

/// Simulates a contiguous range of batches on the event path, interleaving
/// them in groups of [`GROUP`] so the good machine is evaluated once per
/// pattern per group.
///
/// When observability is live, the whole range is wrapped in a
/// `fsim.worker` span, each group gets a nested `fsim.group` span, and
/// per-batch counters (batches, cone sizes, executed batch-steps, early
/// exits) accumulate in a worker-local [`Metrics`] buffer flushed once at
/// the end — the pattern loop itself stays untouched.
fn run_batches<F: Injectable>(
    ctx: &Ctx<'_>,
    batches: &[Vec<(FaultId, F)>],
    obs: Obs<'_>,
    first_batch: usize,
) -> WorkerOut {
    let mut worker_span = obs.span("fsim", "fsim.worker");
    worker_span.arg("first_batch", first_batch);
    worker_span.arg("batches", batches.len());
    let mut local = Metrics::default();

    let n_pat = ctx.patterns.len();
    let n_gates = ctx.gates.len();
    let mut out = WorkerOut {
        detections: Vec::with_capacity(batches.len()),
        detected: vec![0u32; n_pat],
    };
    let mut in_cone = vec![false; n_gates];
    let mut good = vec![0u64; n_gates];
    // The previous pattern's good machine, for models that launch from it.
    let mut prev = vec![0u64; n_gates];
    let mut good_state = vec![0u64; ctx.dff_nets.len()];

    for (gi, group) in batches.chunks(GROUP).enumerate() {
        let mut group_span = obs.span("fsim", "fsim.group");
        let plans: Vec<BatchPlan<F>> = group
            .iter()
            .map(|b| BatchPlan::build(ctx, b, &mut in_cone))
            .collect();
        if obs.enabled() {
            let cone_gates: usize = plans.iter().map(|p| p.cone.len()).sum();
            group_span.arg("first_batch", first_batch + gi * GROUP);
            group_span.arg("batches", group.len());
            group_span.arg("cone_gates", cone_gates);
            local.add("fsim.batches", group.len() as u64);
            local.add("fsim.cone_gates", cone_gates as u64);
            local.add("fsim.cone_gate_slots", (n_gates * group.len()) as u64);
        }
        let mut states: Vec<BatchState> = plans
            .iter()
            .map(|p| BatchState {
                vals: vec![0u64; n_gates],
                state: vec![0u64; p.dffs.len()],
                detected_mask: 0,
                active: true,
                detections: Vec::new(),
            })
            .collect();
        // The serial engine starts every batch from all-zero values and
        // state; the good machine's trajectory is identical across batches,
        // so resetting once per group reproduces it.
        good.fill(0);
        prev.fill(0);
        good_state.fill(0);

        let mut steps: u64 = 0;
        for t in 0..n_pat {
            if states.iter().all(|s| !s.active) {
                break;
            }
            std::mem::swap(&mut good, &mut prev);
            // Good machine: inputs broadcast to every lane, no injections.
            for (bit_pos, &net) in ctx.in_nets.iter().enumerate() {
                good[net] = if ctx.patterns.bit(t, bit_pos) { !0 } else { 0 };
            }
            let mut dff_i = 0;
            for (i, g) in ctx.gates.iter().enumerate() {
                good[i] = match g.kind {
                    GateKind::Input => good[i],
                    GateKind::Const0 => 0,
                    GateKind::Const1 => !0,
                    GateKind::Dff => {
                        let s = good_state[dff_i];
                        dff_i += 1;
                        s
                    }
                    kind => {
                        let p = g.pins;
                        let a = good[p[0].index()];
                        let (b, c) = match kind.arity() {
                            2 => (good[p[1].index()], 0),
                            3 => (good[p[1].index()], good[p[2].index()]),
                            _ => (0, 0),
                        };
                        kind.eval(a, b, c)
                    }
                };
            }
            for (k, &q) in ctx.dff_nets.iter().enumerate() {
                good_state[k] = good[ctx.gates[q].pins[0].index()];
            }
            if t == 0 {
                // The first pattern is its own predecessor.
                prev.copy_from_slice(&good);
            }

            let cc = ctx.patterns.cc(t);
            for (plan, st) in plans.iter().zip(states.iter_mut()) {
                if !st.active {
                    continue;
                }
                step_batch(ctx, plan, st, &good, &prev, t, cc, &mut out);
                steps += 1;
            }
        }
        if obs.enabled() {
            let early = states.iter().filter(|s| !s.active).count();
            local.add("fsim.batch_steps", steps);
            local.add("fsim.early_exit_batches", early as u64);
        }
        for st in states {
            out.detections.push(st.detections);
        }
    }
    if let Some(rec) = obs {
        rec.merge_metrics(&local);
    }
    out
}

/// Replaces the `lanes` of `word` with the same lanes of `forced`.
#[inline]
fn force(word: u64, lanes: u64, forced: u64) -> u64 {
    (word & !lanes) | (forced & lanes)
}

/// Advances one batch by one pattern: forced values from the good
/// machine, cone evaluation with injection, flip-flop capture,
/// output observation, and detection recording — the same sequence, in the
/// same order, as the serial reference. `prev` is the good machine at the
/// previous pattern.
#[allow(clippy::too_many_arguments)]
fn step_batch<F: Injectable>(
    ctx: &Ctx<'_>,
    plan: &BatchPlan<F>,
    st: &mut BatchState,
    good: &[u64],
    prev: &[u64],
    t: usize,
    cc: u64,
    out: &mut WorkerOut,
) {
    // `good` is a broadcast word (every lane equal), so each fault's forced
    // value can be read off bit 0. Lanes already detected in drop mode are
    // not observed again, so their forced values are left at 0.
    let drop = ctx.config.drop_detected;
    let read = |n: usize| good[n];
    let before = |n: usize| prev[n];
    let mut forced = 0u64;
    for (lane0, (_, f)) in plan.faults.iter().enumerate() {
        let bit = 1u64 << (lane0 + 1);
        if drop && st.detected_mask & bit != 0 {
            continue;
        }
        forced |= f.forced(read, before) & bit;
    }

    let vals = &mut st.vals;
    for &p in &plan.boundary {
        vals[p as usize] = good[p as usize];
    }
    let mut dff_i = 0;
    for (j, &gu) in plan.cone.iter().enumerate() {
        let i = gu as usize;
        let g = &ctx.gates[i];
        let v = match g.kind {
            // Inputs are driven broadcast, so the good word *is* the
            // 64-lane input word. Constants likewise.
            GateKind::Input => good[i],
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Dff => {
                let s = st.state[dff_i];
                dff_i += 1;
                s
            }
            kind => {
                let p = g.pins;
                let pf = &plan.pin_force[j];
                let a = force(vals[p[0].index()], pf[0], forced);
                let (b, c) = match kind.arity() {
                    2 => (force(vals[p[1].index()], pf[1], forced), 0),
                    3 => (
                        force(vals[p[1].index()], pf[1], forced),
                        force(vals[p[2].index()], pf[2], forced),
                    ),
                    _ => (0, 0),
                };
                kind.eval(a, b, c)
            }
        };
        vals[i] = force(v, plan.out_force[j], forced);
    }
    // Capture cone flip-flops (pin-0 injections apply at the D input). A
    // cone DFF's D net is a cone-gate input, so it is in the cone or
    // boundary and `vals` holds its post-evaluation value.
    for (k, &(_, d, lanes)) in plan.dffs.iter().enumerate() {
        st.state[k] = force(vals[d as usize], lanes, forced);
    }

    // Observe: only cone outputs can differ from the good machine.
    let mut diff: u64 = 0;
    for &o in &plan.outs {
        let v = vals[o as usize];
        let good_bcast = (v & 1).wrapping_neg();
        diff |= v ^ good_bcast;
    }
    diff &= plan.lanes_mask;

    if drop {
        let newly = diff & !st.detected_mask;
        if newly != 0 {
            let mut rest = newly;
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                st.detections.push((plan.faults[lane - 1].0, cc, t));
            }
            out.detected[t] += newly.count_ones();
            st.detected_mask |= newly;
            if ctx.config.early_exit && st.detected_mask == plan.lanes_mask {
                st.active = false;
            }
        }
    } else {
        out.detected[t] += diff.count_ones();
        let mut rest = diff & !st.detected_mask;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            st.detections.push((plan.faults[lane - 1].0, cc, t));
        }
        st.detected_mask |= diff;
    }
}

/// Runs one worker's contiguous batch range on the loop the backend
/// selects. Both loops honor the same contract — detections per batch in
/// serial `(pattern, lane)` order, exact per-pattern detection counts — so
/// the merge in [`simulate`] is backend-agnostic.
fn run_range<F: Injectable>(
    ctx: &Ctx<'_>,
    batches: &[Vec<(FaultId, F)>],
    obs: Obs<'_>,
    first_batch: usize,
) -> WorkerOut {
    match ctx.levels {
        Some(levels) => crate::kernel::run_batches_kernel(ctx, levels, batches, obs, first_batch),
        None => run_batches(ctx, batches, obs, first_batch),
    }
}

/// The engine behind [`fault_simulate`](crate::fault_simulate): drops the
/// guide's masked faults from the target list, plans 63-fault batches, fans
/// them out over a scoped worker pool, and merges the results
/// deterministically.
pub(crate) fn simulate<F: Injectable>(
    netlist: &Netlist,
    patterns: &PatternSeq,
    list: &mut FaultList<F>,
    config: &FaultSimConfig,
    obs: Obs<'_>,
    guide: &SimGuide<'_>,
) -> FaultSimReport {
    assert_eq!(
        patterns.width(),
        netlist.inputs().width(),
        "pattern width must match netlist inputs"
    );
    let mut run_span = obs.span("fsim", "fsim.run");
    list.begin_run();
    let mut report = FaultSimReport::new();

    // The guide's masked faults are dropped from the target list before
    // batching: statically-proven-untestable classes can never be
    // detected, and a caller masks only faults whose outcome it already
    // knows, so the engine stops paying for their cones.
    let testable = |id: FaultId| {
        guide
            .untestable
            .is_none_or(|u| !u.get(id).copied().unwrap_or(false))
    };
    let all_targets: Vec<FaultId> = if config.drop_detected {
        list.undetected().collect()
    } else {
        (0..list.len()).collect()
    };
    let targets: Vec<FaultId> = all_targets
        .iter()
        .copied()
        .filter(|&id| testable(id))
        .collect();

    let backend = resolve_backend(config, netlist.is_combinational());
    let n_pat = patterns.len();
    let mut detected_per_pattern = vec![0u32; n_pat];
    if obs.enabled() {
        run_span.arg("faults", targets.len());
        run_span.arg("patterns", n_pat);
        run_span.arg("backend", backend);
        obs.add("fsim.runs", 1);
        obs.add("fsim.patterns", n_pat as u64);
        obs.add("fsim.excluded", (all_targets.len() - targets.len()) as u64);
        if backend == SimBackend::Kernel {
            obs.add("fsim.kernel.runs", 1);
        }
    }

    if !targets.is_empty() {
        let cones = netlist.fanout_cones();
        let in_nets: Vec<usize> = netlist.inputs().nets().iter().map(|n| n.index()).collect();
        let out_nets: Vec<usize> = netlist.outputs().nets().iter().map(|n| n.index()).collect();
        let dff_nets: Vec<usize> = netlist.dffs().iter().map(|n| n.index()).collect();
        // The kernel needs the rank-major layout; levelize here only when
        // the guide did not bring the module's cached copy.
        let owned_levels: Option<Levelization> = match (backend, guide.levels) {
            (SimBackend::Kernel, None) => Some(netlist.levelize()),
            _ => None,
        };
        let ctx = Ctx {
            gates: netlist.gates(),
            patterns,
            cones: &cones,
            in_nets: &in_nets,
            out_nets: &out_nets,
            dff_nets: &dff_nets,
            config: *config,
            levels: match backend {
                SimBackend::Kernel => guide.levels.or(owned_levels.as_ref()),
                _ => None,
            },
        };

        // Snapshot fault data so workers need no access to the list.
        let batches: Vec<Vec<(FaultId, F)>> = targets
            .chunks(63)
            .map(|c| c.iter().map(|&fid| (fid, list.fault(fid))).collect())
            .collect();
        let workers = resolve_threads(config).min(batches.len()).max(1);
        if obs.enabled() {
            obs.add("fsim.target_faults", targets.len() as u64);
            obs.add("fsim.workers", workers as u64);
        }
        // `workers == 1` runs inline on the caller's thread: spawning an OS
        // thread for a single worker only costs (the threads=8-on-1-core
        // regression of BENCH_fsim).
        let outs: Vec<WorkerOut> = if workers <= 1 {
            obs.record("fsim.batches_per_worker", batches.len() as f64);
            vec![run_range(&ctx, &batches, obs, 0)]
        } else {
            // Contiguous ranges keep the merge order trivial: worker w owns
            // batches [w·k, (w+1)·k), so concatenating worker outputs in
            // spawn order is global batch order.
            let per = batches.len().div_ceil(workers);
            let ctx = &ctx;
            std::thread::scope(|s| {
                let handles: Vec<_> = batches
                    .chunks(per)
                    .enumerate()
                    .map(|(w, range)| {
                        obs.record("fsim.batches_per_worker", range.len() as f64);
                        s.spawn(move || run_range(ctx, range, obs, w * per))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        // Merge. Serial detections are batch-major (the pattern loop nests
        // inside the batch loop), so replaying per-batch logs in global
        // batch order reproduces the serial report byte-for-byte;
        // per-pattern detection counts are exact integer sums and thus
        // order-independent.
        for w in outs {
            for (sum, d) in detected_per_pattern.iter_mut().zip(w.detected) {
                *sum += d;
            }
            for batch_log in w.detections {
                for (fid, cc, t) in batch_log {
                    list.mark_detected(fid, cc, t);
                    report.record_detection(fid, cc, t);
                }
            }
        }
    }

    for (t, &d) in detected_per_pattern.iter().enumerate() {
        report.record_detected(patterns.cc(t), d);
    }
    if obs.enabled() {
        obs.add("fsim.detections", u64::from(report.total_detected()));
    }
    report
}
