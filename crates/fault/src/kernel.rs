//! The levelized SoA batch kernel: pattern-parallel fault simulation over
//! rank-major gate arrays, generic over the fault model ([`Injectable`]).
//!
//! Where the event path (`engine::run_batches`) packs 63 faulty machines
//! into each 64-bit word and walks one pattern at a time, the kernel turns
//! the word the other way: **bit lanes are patterns**. A block is `W`
//! consecutive 64-bit lane words — `W = 4` (256 patterns) on the main
//! path, autovectorizable as plain `[u64; 4]` arithmetic, with `W = 1` kept
//! as the remainder path for spans that don't fill a wide block.
//!
//! The 2D batching then looks like this:
//!
//! - **Pattern-parallel within a block.** The good machine is evaluated once
//!   per worker per pattern window, rank by rank over the [`Levelization`]
//!   segments — each segment is one branch-free loop over gates of one
//!   kind, reading and writing a flat `net × word` window buffer.
//! - **Fault-parallel across the existing 63-fault groups.** Batches keep
//!   the engine's exact composition (that is what fixes the report order);
//!   within a batch each fault is propagated alone: its faulty machine
//!   differs from the good one only where the fault's effect survives, so
//!   the kernel forces the site words and chases the **difference
//!   frontier** through the levelization's rank buckets — a gate is
//!   (re)evaluated for a block only if one of its inputs actually changed,
//!   and the frontier dies wherever the faulty word equals the good word.
//!   Fanout-cone pruning is implicit: the frontier is confined to the
//!   sites' cones and is usually far smaller.
//!
//! The pattern span is processed in fixed windows of [`WINDOW`] patterns:
//! each window's good machine is evaluated, then every still-live fault
//! runs its blocks in it. Per-worker memory is therefore
//! `gates × WINDOW / 64` words whatever the sequence length. Each net's
//! last good bit is carried into the next window, so models that launch
//! from the previous pattern (transition faults) see one unbroken sequence.
//!
//! Two screens keep per-fault work near zero for inert blocks: an
//! activation screen (a fault that changes no site value in a block cannot
//! change anything) and the frontier itself (a pin fault whose effect is
//! absorbed by the seed gate propagates nowhere). Detection, activation,
//! and per-pattern tallies are extracted per pattern, and the per-batch
//! detection log is sorted back into the serial `(pattern, lane)` order —
//! making the report **bit-identical** to the event path (the equivalence
//! suite asserts this).
//!
//! Fault dropping maps naturally: a dropped fault simply stops after the
//! block containing its first detection — the pattern-block analogue of the
//! event path's early exit, but per fault rather than per batch. In drop
//! mode the first `W` words of each fault are probed as narrow blocks
//! (most faults detect within the first few dozen patterns; evaluating a
//! full 256-lane block to find a detection in lane 3 wastes the width) and
//! only faults that survive the probe graduate to wide blocks.

use warpstl_netlist::{GateKind, Levelization};
use warpstl_obs::{Metrics, Obs, ObsExt};

use crate::engine::{Ctx, WorkerOut};
use crate::{FaultId, FaultSite, Injectable};

/// Block width of the main path, in 64-bit words (256 patterns).
const WIDE: usize = 4;

/// Patterns per kernel window: a multiple of the wide block, so every
/// window but the last is made of whole wide blocks.
pub(crate) const WINDOW: usize = 1024;

/// Evaluates one run of same-kind gates over the gate-major span buffer
/// (`row` words per net, block at word offset `base`). Operands are staged
/// through fixed-size arrays so each access is one bounds-checked slice
/// copy instead of `BW` indexed loads.
#[inline]
fn eval_run_strided<const BW: usize>(
    kind: GateKind,
    nodes: &[u32],
    pins: &[[u32; 3]],
    vals: &mut [u64],
    row: usize,
    base: usize,
) {
    macro_rules! unary {
        ($f:expr) => {
            for (k, &g) in nodes.iter().enumerate() {
                let mut a = [0u64; BW];
                a.copy_from_slice(&vals[pins[k][0] as usize * row + base..][..BW]);
                let o0 = g as usize * row + base;
                for (w, dst) in vals[o0..o0 + BW].iter_mut().enumerate() {
                    *dst = $f(a[w]);
                }
            }
        };
    }
    macro_rules! binary {
        ($f:expr) => {
            for (k, &g) in nodes.iter().enumerate() {
                let mut a = [0u64; BW];
                a.copy_from_slice(&vals[pins[k][0] as usize * row + base..][..BW]);
                let mut b = [0u64; BW];
                b.copy_from_slice(&vals[pins[k][1] as usize * row + base..][..BW]);
                let o0 = g as usize * row + base;
                for (w, dst) in vals[o0..o0 + BW].iter_mut().enumerate() {
                    *dst = $f(a[w], b[w]);
                }
            }
        };
    }
    match kind {
        GateKind::Buf => unary!(|a: u64| a),
        GateKind::Not => unary!(|a: u64| !a),
        GateKind::And => binary!(|a: u64, b: u64| a & b),
        GateKind::Or => binary!(|a: u64, b: u64| a | b),
        GateKind::Nand => binary!(|a: u64, b: u64| !(a & b)),
        GateKind::Nor => binary!(|a: u64, b: u64| !(a | b)),
        GateKind::Xor => binary!(|a: u64, b: u64| a ^ b),
        GateKind::Xnor => binary!(|a: u64, b: u64| !(a ^ b)),
        GateKind::Mux => {
            for (k, &g) in nodes.iter().enumerate() {
                let mut s = [0u64; BW];
                s.copy_from_slice(&vals[pins[k][0] as usize * row + base..][..BW]);
                let mut a = [0u64; BW];
                a.copy_from_slice(&vals[pins[k][1] as usize * row + base..][..BW]);
                let mut b = [0u64; BW];
                b.copy_from_slice(&vals[pins[k][2] as usize * row + base..][..BW]);
                let o0 = g as usize * row + base;
                for (w, dst) in vals[o0..o0 + BW].iter_mut().enumerate() {
                    *dst = (s[w] & a[w]) | (!s[w] & b[w]);
                }
            }
        }
        // Sources never appear in logic segments: the good pass handles
        // them explicitly, and DFFs never reach the kernel.
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {
            unreachable!("source/state kinds are not evaluated by segment runs")
        }
    }
}

/// Evaluates the good machine for one `BW`-word block of the span, writing
/// into the gate-major span buffer `good` (`stride` words per gate, block at
/// word offset `base`). Inputs come from the transposed pattern words.
fn good_block<const BW: usize>(
    levels: &Levelization,
    in_slot: &[u32],
    in_words: &[u64],
    good: &mut [u64],
    stride: usize,
    base: usize,
) {
    for seg in levels.segments() {
        let nodes = &levels.order()[seg.range()];
        match seg.kind {
            GateKind::Input => {
                for &g in nodes {
                    let o0 = g as usize * stride + base;
                    let slot = in_slot[g as usize];
                    if slot == u32::MAX {
                        // An input gate absent from the port map is never
                        // driven; the event path leaves it at 0.
                        good[o0..o0 + BW].fill(0);
                    } else {
                        let s0 = slot as usize * stride + base;
                        good[o0..o0 + BW].copy_from_slice(&in_words[s0..s0 + BW]);
                    }
                }
            }
            GateKind::Const0 | GateKind::Const1 => {
                let v = if seg.kind == GateKind::Const1 {
                    !0u64
                } else {
                    0
                };
                for &g in nodes {
                    let o0 = g as usize * stride + base;
                    good[o0..o0 + BW].fill(v);
                }
            }
            kind => {
                let pins = &levels.pins()[seg.range()];
                eval_run_strided::<BW>(kind, nodes, pins, good, stride, base);
            }
        }
    }
}

/// Adds 1 to `tally[t_base + bit]` for every set bit of `word`.
#[inline]
fn tally_bits(mut word: u64, t_base: usize, tally: &mut [u32]) {
    while word != 0 {
        let b = word.trailing_zeros() as usize;
        word &= word - 1;
        tally[t_base + b] += 1;
    }
}

/// Per-fault state carried across blocks and windows.
struct FaultRun<F> {
    fid: FaultId,
    fault: F,
    /// 1-based batch lane (serial tie-break within a pattern).
    lane: usize,
    /// First-detection pattern, once found.
    detected_at: Option<usize>,
}

/// Reusable difference-frontier state, epoch-stamped so nothing is cleared
/// between faults or blocks. The per-block path (`fault_block`,
/// `propagate` and the helpers here) is forced inline: left to the
/// inliner, drop-mode sp_core runs measured ~5 % slower.
struct Frontier {
    /// Faulty words of perturbed nets, `WIDE` words per net (narrow blocks
    /// use the first word of a row).
    faulty: Vec<u64>,
    /// `stamp_val[net] == epoch` means `faulty` holds net's block words;
    /// otherwise the net carries the good value.
    stamp_val: Vec<u32>,
    /// Queue de-duplication stamp.
    stamp_queued: Vec<u32>,
    epoch: u32,
    /// One pending-gate bucket per levelization rank; gates are drained in
    /// ascending rank order, which is a valid evaluation order.
    buckets: Vec<Vec<u32>>,
    /// Whether a net is a module output (a detection observation point).
    is_out: Vec<bool>,
}

impl Frontier {
    fn new(ctx: &Ctx<'_>, levels: &Levelization) -> Frontier {
        let n = ctx.gates.len();
        let mut is_out = vec![false; n];
        for &o in ctx.out_nets {
            is_out[o] = true;
        }
        Frontier {
            faulty: vec![0u64; n * WIDE],
            stamp_val: vec![0u32; n],
            stamp_queued: vec![0u32; n],
            epoch: 0,
            buckets: vec![Vec::new(); levels.ranks()],
            is_out,
        }
    }

    /// Records `words` as the faulty value of `net` for this epoch.
    #[inline(always)]
    fn store<const BW: usize>(&mut self, net: usize, words: &[u64; BW]) {
        self.faulty[net * WIDE..net * WIDE + BW].copy_from_slice(words);
        self.stamp_val[net] = self.epoch;
    }

    /// Queues the fanout of `from` into its rank buckets, raising
    /// `max_rank` to the highest rank queued.
    #[inline(always)]
    fn push(&mut self, ctx: &Ctx<'_>, levels: &Levelization, max_rank: &mut usize, from: usize) {
        for &r in ctx.cones.successors(from) {
            let ri = r as usize;
            if self.stamp_queued[ri] != self.epoch {
                self.stamp_queued[ri] = self.epoch;
                let rank = levels.rank_of(ri) as usize;
                self.buckets[rank].push(r);
                *max_rank = (*max_rank).max(rank);
            }
        }
    }
}

/// One window's good machine and lane masks, as the per-block functions
/// read them: `stride` words per net, valid lanes in `word_mask`.
struct Window<'a> {
    good: &'a [u64],
    /// Per net, the good bit of the pattern before the window's first lane
    /// (bit 0; the first pattern of the sequence is its own predecessor).
    carry: &'a [u64],
    word_mask: &'a [u64],
    stride: usize,
    /// Pattern index of the window's first lane.
    p0: usize,
}

impl Window<'_> {
    /// Good word `w` of net `n`.
    #[inline(always)]
    fn good(&self, n: usize, w: usize) -> u64 {
        self.good[n * self.stride + w]
    }

    /// Good word `w` of net `n` one pattern earlier: lane `t` holds the
    /// good value at lane `t - 1`, the window's first lane the carry.
    #[inline(always)]
    fn prev(&self, n: usize, w: usize) -> u64 {
        let i = n * self.stride + w;
        let low = if w == 0 {
            self.carry[n]
        } else {
            self.good[i - 1] >> 63
        };
        (self.good[i] << 1) | low
    }
}

/// Propagates one fault's difference frontier through one block, returning
/// the diff word(s) observed at the module outputs (already confined to the
/// window's valid lanes) and counting evaluated gates into `gate_evals`.
#[inline(always)]
fn propagate<const BW: usize, F: Injectable>(
    ctx: &Ctx<'_>,
    levels: &Levelization,
    fr: &mut Frontier,
    fault: &F,
    win: &Window<'_>,
    base: usize,
    gate_evals: &mut u64,
) -> [u64; BW] {
    fr.epoch += 1;
    let (good, stride) = (win.good, win.stride);
    let mut forced = [0u64; BW];
    for (w, fw) in forced.iter_mut().enumerate() {
        *fw = fault.forced(|n| win.good(n, base + w), |n| win.prev(n, base + w));
    }

    // Seed every site with its injected faulty value, masked to the valid
    // lanes so the frontier never chases garbage in a window's tail bits.
    let mut d_acc = [0u64; BW];
    let mut seeded = false;
    let mut min_rank = usize::MAX;
    let mut max_rank = 0usize;
    for site in fault.sites() {
        let seed = site.gate().index();
        let g0 = seed * stride + base;
        let mut fw = [0u64; BW];
        match site {
            // Output stem: the net takes the forced value regardless of the
            // gate's inputs.
            FaultSite::Output(_) => fw = forced,
            // Branch site: evaluate the seed gate with the pin forced; its
            // inputs are upstream of the cone, so they carry good values.
            FaultSite::InputPin(_, p) => {
                let gate = &ctx.gates[seed];
                for w in 0..BW {
                    let mut ops = [0u64; 3];
                    for (q, &pin) in gate.inputs().iter().enumerate() {
                        ops[q] = if q == p as usize {
                            forced[w]
                        } else {
                            good[pin.index() * stride + base + w]
                        };
                    }
                    fw[w] = gate.kind.eval(ops[0], ops[1], ops[2]);
                }
            }
        }
        let mut diff = [0u64; BW];
        for w in 0..BW {
            diff[w] = (fw[w] ^ good[g0 + w]) & win.word_mask[base + w];
        }
        if diff.iter().all(|&d| d == 0) {
            // The site absorbed the fault in every lane of this block
            // (possible for pin sites when another input is controlling).
            continue;
        }
        for w in 0..BW {
            fw[w] = good[g0 + w] ^ diff[w];
        }
        fr.store(seed, &fw);
        if fr.is_out[seed] {
            for w in 0..BW {
                d_acc[w] |= diff[w];
            }
        }
        let rank = levels.rank_of(seed) as usize;
        min_rank = min_rank.min(rank);
        max_rank = max_rank.max(rank);
        fr.push(ctx, levels, &mut max_rank, seed);
        seeded = true;
    }
    if !seeded {
        return d_acc;
    }

    let epoch = fr.epoch;
    let mut rank = min_rank + 1;
    while rank <= max_rank {
        if fr.buckets[rank].is_empty() {
            rank += 1;
            continue;
        }
        let mut bucket = std::mem::take(&mut fr.buckets[rank]);
        for &gi in &bucket {
            let gi = gi as usize;
            let gate = &ctx.gates[gi];
            // Operands: faulty where perturbed this epoch, good otherwise.
            let mut ops = [[0u64; BW]; 3];
            for (q, &p) in gate.inputs().iter().enumerate() {
                let pi = p.index();
                if fr.stamp_val[pi] == epoch {
                    ops[q].copy_from_slice(&fr.faulty[pi * WIDE..pi * WIDE + BW]);
                } else {
                    let s0 = pi * stride + base;
                    ops[q].copy_from_slice(&good[s0..s0 + BW]);
                }
            }
            let o0 = gi * stride + base;
            let mut out = [0u64; BW];
            let mut changed = 0u64;
            for w in 0..BW {
                out[w] = gate.kind.eval(ops[0][w], ops[1][w], ops[2][w]);
                changed |= out[w] ^ good[o0 + w];
            }
            *gate_evals += 1;
            if changed != 0 {
                fr.store(gi, &out);
                if fr.is_out[gi] {
                    for w in 0..BW {
                        d_acc[w] |= out[w] ^ good[o0 + w];
                    }
                }
                fr.push(ctx, levels, &mut max_rank, gi);
            }
        }
        bucket.clear();
        fr.buckets[rank] = bucket;
        rank += 1;
    }
    d_acc
}

/// Folds one evaluated block into the tallies and detection log, preserving
/// the event path's exact semantics: activation is counted per pattern up
/// to and including a dropped fault's detecting pattern; detections record
/// only the first observation in drop mode, every observation otherwise.
/// Both `d` and `a` arrive masked to the window's valid lanes.
#[allow(clippy::too_many_arguments)]
fn absorb_block<const BW: usize, F>(
    d: [u64; BW],
    mut a: [u64; BW],
    run: &mut FaultRun<F>,
    base: usize,
    p0: usize,
    drop: bool,
    out: &mut WorkerOut,
    det: &mut Vec<(usize, usize, FaultId)>,
) {
    if drop {
        let mut hit: Option<(usize, u32)> = None;
        for (w, &dw) in d.iter().enumerate() {
            if dw != 0 {
                hit = Some((w, dw.trailing_zeros()));
                break;
            }
        }
        if let Some((hw, hb)) = hit {
            let t = p0 + (base + hw) * 64 + hb as usize;
            // The fault is skipped from the pattern after its detection on:
            // clip activation to bits <= the detecting pattern.
            for aw in a.iter_mut().skip(hw + 1) {
                *aw = 0;
            }
            a[hw] &= if hb == 63 { !0 } else { (1u64 << (hb + 1)) - 1 };
            run.detected_at = Some(t);
            det.push((t, run.lane, run.fid));
            out.detected[t] += 1;
        }
        for (w, &aw) in a.iter().enumerate() {
            tally_bits(aw, p0 + (base + w) * 64, &mut out.activated);
        }
    } else {
        for w in 0..BW {
            let t_base = p0 + (base + w) * 64;
            tally_bits(a[w], t_base, &mut out.activated);
            tally_bits(d[w], t_base, &mut out.detected);
        }
        if run.detected_at.is_none() {
            for (w, &dw) in d.iter().enumerate() {
                if dw != 0 {
                    let t = p0 + (base + w) * 64 + dw.trailing_zeros() as usize;
                    run.detected_at = Some(t);
                    det.push((t, run.lane, run.fid));
                    break;
                }
            }
        }
    }
}

/// Runs one block for one fault: activation screen, frontier propagation,
/// tally/detection fold. Returns 1 if the cone was actually propagated.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fault_block<const BW: usize, F: Injectable>(
    ctx: &Ctx<'_>,
    levels: &Levelization,
    fr: &mut Frontier,
    run: &mut FaultRun<F>,
    win: &Window<'_>,
    base: usize,
    det: &mut Vec<(usize, usize, FaultId)>,
    out: &mut WorkerOut,
    gate_evals: &mut u64,
) -> u64 {
    // Activation screen: all-zero means the faulty machine is identical in
    // this block — no detection, no activation, nothing to do.
    let mut a = [0u64; BW];
    let mut any = 0u64;
    for (w, aw) in a.iter_mut().enumerate() {
        let word = |n: usize| win.good(n, base + w);
        let prev = |n: usize| win.prev(n, base + w);
        *aw = run.fault.activation(ctx.gates, word, prev) & win.word_mask[base + w];
        any |= *aw;
    }
    if any == 0 {
        return 0;
    }
    let d = propagate::<BW, F>(ctx, levels, fr, &run.fault, win, base, gate_evals);
    absorb_block::<BW, F>(d, a, run, base, win.p0, ctx.config.drop_detected, out, det);
    1
}

/// The kernel's counterpart of the event path's `run_batches`: simulates a
/// contiguous range of batches over the whole pattern sequence, window by
/// window, and returns the same per-batch detection logs (serial
/// `(pattern, lane)` order within each batch) and exact per-pattern
/// tallies. Blocks are `WIDE` words where a window has room for them and
/// 64-bit remainders elsewhere; drop mode probes each fault's first `WIDE`
/// words as narrow blocks before graduating it to wide ones.
pub(crate) fn run_batches_kernel<F: Injectable>(
    ctx: &Ctx<'_>,
    levels: &Levelization,
    batches: &[Vec<(FaultId, F)>],
    obs: Obs<'_>,
    first_batch: usize,
) -> WorkerOut {
    debug_assert!(
        ctx.dff_nets.is_empty(),
        "the levelized kernel is combinational-only"
    );
    let mut worker_span = obs.span("fsim", "fsim.worker");
    worker_span.arg("first_batch", first_batch);
    worker_span.arg("batches", batches.len());
    let mut local = Metrics::default();

    let n_pat = ctx.patterns.len();
    let n_gates = ctx.gates.len();
    let mut out = WorkerOut {
        detections: Vec::with_capacity(batches.len()),
        activated: vec![0u32; n_pat],
        detected: vec![0u32; n_pat],
    };
    let mut runs: Vec<Vec<FaultRun<F>>> = batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .enumerate()
                .map(|(lane0, &(fid, fault))| FaultRun {
                    fid,
                    fault,
                    lane: lane0 + 1,
                    detected_at: None,
                })
                .collect()
        })
        .collect();
    let mut dets: Vec<Vec<(usize, usize, FaultId)>> = vec![Vec::new(); batches.len()];

    let mut in_slot = vec![u32::MAX; n_gates];
    for (i, &net) in ctx.in_nets.iter().enumerate() {
        in_slot[net] = i as u32;
    }
    // Buffers hold one window; shorter sequences need only their own span.
    let max_stride = WINDOW.min(n_pat).div_ceil(64);
    let mut good = vec![0u64; n_gates * max_stride];
    let mut in_words = vec![0u64; ctx.in_nets.len() * max_stride];
    let mut word_mask = vec![0u64; max_stride];
    let mut carry = vec![0u64; n_gates];

    let drop = ctx.config.drop_detected;
    let mut fr = Frontier::new(ctx, levels);
    let mut kernel_span = obs.span("fsim", "fsim.kernel");
    let mut blocks = 0u64;
    let mut fault_blocks = 0u64;
    let mut gate_evals = 0u64;

    for p0 in (0..n_pat).step_by(WINDOW) {
        let span = WINDOW.min(n_pat - p0);
        let stride = span.div_ceil(64);
        // Valid-pattern masks: all-ones except the window's tail word.
        word_mask.fill(!0);
        if !span.is_multiple_of(64) {
            word_mask[stride - 1] = (1u64 << (span % 64)) - 1;
        }
        // Transpose the window: one `stride`-word row per input bit.
        let in_words = &mut in_words[..ctx.in_nets.len() * stride];
        in_words.fill(0);
        for bit_pos in 0..ctx.in_nets.len() {
            let row = &mut in_words[bit_pos * stride..][..stride];
            for t in 0..span {
                if ctx.patterns.bit(p0 + t, bit_pos) {
                    row[t >> 6] |= 1u64 << (t & 63);
                }
            }
        }

        // Good machine once for the window: wide blocks, then remainders.
        let good = &mut good[..n_gates * stride];
        let wide_end = stride - stride % WIDE;
        let mut base = 0usize;
        while base < wide_end {
            good_block::<WIDE>(levels, &in_slot, in_words, good, stride, base);
            base += WIDE;
        }
        while base < stride {
            good_block::<1>(levels, &in_slot, in_words, good, stride, base);
            base += 1;
        }
        blocks += ((wide_end / WIDE) + (stride - wide_end)) as u64;
        if p0 == 0 {
            for (n, c) in carry.iter_mut().enumerate() {
                *c = good[n * stride] & 1;
            }
        }

        let win = Window {
            good,
            carry: &carry,
            word_mask: &word_mask,
            stride,
            p0,
        };
        for (batch_runs, det) in runs.iter_mut().zip(dets.iter_mut()) {
            for run in batch_runs.iter_mut() {
                let mut base = 0usize;
                while base < stride {
                    if drop && run.detected_at.is_some() {
                        break;
                    }
                    // Drop-mode probe: most faults detect within the first
                    // few dozen patterns, so their first `WIDE` words run as
                    // narrow blocks; survivors use full-width blocks where
                    // aligned.
                    let probing = drop && p0 == 0 && base < WIDE;
                    if base + WIDE <= stride && !probing {
                        fault_blocks += fault_block::<WIDE, F>(
                            ctx,
                            levels,
                            &mut fr,
                            run,
                            &win,
                            base,
                            det,
                            &mut out,
                            &mut gate_evals,
                        );
                        base += WIDE;
                    } else {
                        fault_blocks += fault_block::<1, F>(
                            ctx,
                            levels,
                            &mut fr,
                            run,
                            &win,
                            base,
                            det,
                            &mut out,
                            &mut gate_evals,
                        );
                        base += 1;
                    }
                }
            }
        }
        // Every window but the last is full, so its last lane is the next
        // window's predecessor.
        for (n, c) in carry.iter_mut().enumerate() {
            *c = good[n * stride + stride - 1] >> 63;
        }
    }

    // Serial order within a batch is pattern-major, then lane: restore it
    // so the engine's batch-major merge is byte-identical.
    for mut det in dets {
        det.sort_unstable();
        out.detections.push(
            det.into_iter()
                .map(|(t, _, fid)| (fid, ctx.patterns.cc(t), t))
                .collect(),
        );
    }

    if obs.enabled() {
        kernel_span.arg("width", WIDE * 64);
        kernel_span.arg("window", WINDOW);
        kernel_span.arg("blocks", blocks);
        kernel_span.arg("rank_count", levels.ranks());
        local.add("fsim.batches", batches.len() as u64);
        local.add("fsim.kernel.blocks", blocks);
        local.add("fsim.kernel.fault_blocks", fault_blocks);
        local.add("fsim.kernel.cone_gates", gate_evals);
    }
    if let Some(rec) = obs {
        rec.merge_metrics(&local);
    }
    out
}
