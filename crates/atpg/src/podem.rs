//! The PODEM test-generation algorithm, optionally guided by SCOAP
//! testability scores (see [`Podem::with_guidance`]) and by the static
//! implication graph (see [`Podem::with_implications`]).

use warpstl_analyze::{Implications, Scoap};
use warpstl_fault::{Fault, FaultSite, Polarity};
use warpstl_netlist::{GateKind, NetId, Netlist};

/// Three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tv {
    Zero,
    One,
    X,
}

impl Tv {
    fn of(b: bool) -> Tv {
        if b {
            Tv::One
        } else {
            Tv::Zero
        }
    }

    fn not(self) -> Tv {
        match self {
            Tv::Zero => Tv::One,
            Tv::One => Tv::Zero,
            Tv::X => Tv::X,
        }
    }

    fn and(self, o: Tv) -> Tv {
        match (self, o) {
            (Tv::Zero, _) | (_, Tv::Zero) => Tv::Zero,
            (Tv::One, Tv::One) => Tv::One,
            _ => Tv::X,
        }
    }

    fn or(self, o: Tv) -> Tv {
        match (self, o) {
            (Tv::One, _) | (_, Tv::One) => Tv::One,
            (Tv::Zero, Tv::Zero) => Tv::Zero,
            _ => Tv::X,
        }
    }

    fn xor(self, o: Tv) -> Tv {
        match (self, o) {
            (Tv::X, _) | (_, Tv::X) => Tv::X,
            (a, b) if a == b => Tv::Zero,
            _ => Tv::One,
        }
    }

    fn mux(s: Tv, a: Tv, b: Tv) -> Tv {
        match s {
            Tv::One => a,
            Tv::Zero => b,
            Tv::X => {
                if a == b && a != Tv::X {
                    a
                } else {
                    Tv::X
                }
            }
        }
    }
}

fn eval3(kind: GateKind, a: Tv, b: Tv, c: Tv) -> Tv {
    match kind {
        GateKind::Input | GateKind::Buf | GateKind::Dff => a,
        GateKind::Const0 => Tv::Zero,
        GateKind::Const1 => Tv::One,
        GateKind::Not => a.not(),
        GateKind::And => a.and(b),
        GateKind::Or => a.or(b),
        GateKind::Nand => a.and(b).not(),
        GateKind::Nor => a.or(b).not(),
        GateKind::Xor => a.xor(b),
        GateKind::Xnor => a.xor(b).not(),
        GateKind::Mux => Tv::mux(a, b, c),
    }
}

/// The outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found: the primary-input assignment, in flat input order.
    /// `None` positions are don't-cares.
    Test(Vec<Option<bool>>),
    /// The fault is provably untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

/// A PODEM test generator bound to a combinational netlist.
///
/// # Examples
///
/// ```
/// use warpstl_atpg::{Podem, PodemOutcome};
/// use warpstl_fault::{Fault, FaultSite, Polarity};
/// use warpstl_netlist::{Builder, NetId};
///
/// let mut b = Builder::new("and2");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.and(x, y);
/// b.output("z", z);
/// let n = b.finish();
///
/// let podem = Podem::new(&n);
/// let f = Fault::new(FaultSite::Output(z), Polarity::Sa0);
/// match podem.generate(f) {
///     PodemOutcome::Test(pis) => {
///         // z stuck-at-0 needs x = y = 1.
///         assert_eq!(pis, vec![Some(true), Some(true)]);
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    backtrack_limit: usize,
    guidance: Option<&'a Scoap>,
    implications: Option<&'a Implications>,
    implication_fast_path: bool,
}

impl<'a> Podem<'a> {
    /// Binds to `netlist` with the default backtrack limit (1000).
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential: PODEM targets combinational
    /// logic (the paper's modules are fault-simulated combinationally too).
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Podem<'a> {
        assert!(
            netlist.is_combinational(),
            "PODEM requires a combinational netlist"
        );
        Podem {
            netlist,
            backtrack_limit: 1000,
            guidance: None,
            implications: None,
            implication_fast_path: true,
        }
    }

    /// Sets the backtrack limit.
    #[must_use]
    pub fn with_backtrack_limit(mut self, limit: usize) -> Podem<'a> {
        self.backtrack_limit = limit;
        self
    }

    /// Guides pin choices with SCOAP scores (computed for the *same*
    /// netlist): where the unguided search picks the first X input,
    /// the guided search picks by controllability — the cheapest input
    /// when any one suffices, the hardest when all are needed (failing
    /// on the hardest first prunes doomed subtrees sooner). Verdicts
    /// (testable/untestable) are unaffected; only the search order and
    /// the produced vectors may change.
    #[must_use]
    pub fn with_guidance(mut self, scoap: &'a Scoap) -> Podem<'a> {
        self.guidance = Some(scoap);
        self
    }

    /// Consults the static implication graph (computed for the *same*
    /// netlist) before and during search. Three sound uses:
    ///
    /// - an impossible activation literal (the fault-free circuit can
    ///   never drive the faulty line to the opposite of the stuck value)
    ///   returns [`PodemOutcome::Untestable`] with zero backtracks;
    /// - the closure of the activation literal yields *necessary*
    ///   primary-input assignments, seeded before the first decision so
    ///   the search never explores their contradictions;
    /// - the same closure's internal literals are watched during search
    ///   (early conflict detection): three-valued simulation is monotone,
    ///   so the moment a defined good value contradicts a necessary
    ///   literal, the branch can never activate the fault and is
    ///   abandoned.
    ///
    /// Verdicts are unaffected — the seeded assignments and watched
    /// literals hold in every test, so exhausting the remaining space
    /// still proves untestability — but produced vectors and backtrack
    /// counts may change.
    #[must_use]
    pub fn with_implications(mut self, imp: &'a Implications) -> Podem<'a> {
        self.implications = Some(imp);
        self.implication_fast_path = true;
        self
    }

    /// Like [`Podem::with_implications`] but keeps only the search
    /// accelerators (closure seeding and early conflict detection),
    /// dropping the impossible-literal fast path: every verdict is earned
    /// by an actual search. This is the mode the untestability
    /// cross-check uses — the fast path would answer from the very proof
    /// under test.
    #[must_use]
    pub fn with_implication_seeding(mut self, imp: &'a Implications) -> Podem<'a> {
        self.implications = Some(imp);
        self.implication_fast_path = false;
        self
    }

    /// Attempts to generate a test for `fault`.
    #[must_use]
    pub fn generate(&self, fault: Fault) -> PodemOutcome {
        let mut search = Search::new(self.netlist, fault, self.backtrack_limit, self.guidance);
        if let Some(imp) = self.implications {
            let site = match fault.site {
                FaultSite::Output(n) => n,
                FaultSite::InputPin(n, p) => self.netlist.gates()[n.index()].pins[p as usize],
            };
            let want = !fault.polarity.value();
            if site.index() < self.netlist.gates().len() {
                if self.implication_fast_path && imp.is_impossible(site.index(), want) {
                    return PodemOutcome::Untestable;
                }
                for (net, value) in imp.closure(site.index(), want) {
                    search.require(NetId(net as u32), value);
                }
            }
        }
        search.run()
    }
}

struct Search<'a> {
    netlist: &'a Netlist,
    fault: Fault,
    limit: usize,
    guidance: Option<&'a Scoap>,
    /// PI assignment by flat input position.
    pi: Vec<Tv>,
    good: Vec<Tv>,
    faulty: Vec<Tv>,
    /// Flat input position for each net that is a PI.
    pi_pos: Vec<Option<usize>>,
    /// Reader gates of each net, for the X-path check.
    readers: Vec<Vec<u32>>,
    /// Primary-output membership, for the X-path check.
    is_po: Vec<bool>,
    /// Necessary `(net, good value)` literals from the activation
    /// closure, watched for early conflicts.
    required: Vec<(u32, bool)>,
}

impl<'a> Search<'a> {
    fn new(
        netlist: &'a Netlist,
        fault: Fault,
        limit: usize,
        guidance: Option<&'a Scoap>,
    ) -> Search<'a> {
        let n = netlist.gates().len();
        let mut pi_pos = vec![None; n];
        for (pos, &net) in netlist.inputs().nets().iter().enumerate() {
            pi_pos[net.index()] = Some(pos);
        }
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, g) in netlist.gates().iter().enumerate() {
            for &src in g.inputs() {
                readers[src.index()].push(i as u32);
            }
        }
        let mut is_po = vec![false; n];
        for &o in netlist.outputs().nets() {
            is_po[o.index()] = true;
        }
        Search {
            netlist,
            fault,
            limit,
            guidance,
            pi: vec![Tv::X; netlist.inputs().width()],
            good: vec![Tv::X; n],
            faulty: vec![Tv::X; n],
            pi_pos,
            readers,
            is_po,
            required: Vec::new(),
        }
    }

    /// Registers a necessary literal from the activation closure. For a
    /// primary input the value is fixed before the search starts (seeded
    /// values are never decision points: the search cannot flip or
    /// unassign them); every literal is additionally watched for early
    /// conflicts by [`Search::requirement_violated`].
    fn require(&mut self, net: NetId, value: bool) {
        if let Some(pos) = self.pi_pos.get(net.index()).copied().flatten() {
            self.pi[pos] = Tv::of(value);
        }
        if net.index() < self.good.len() {
            self.required.push((net.index() as u32, value));
        }
    }

    /// Early conflict detection: three-valued simulation is monotone
    /// (defined good values persist under any extension), so a defined
    /// good value contradicting a necessary activation literal proves no
    /// test exists below the current node.
    fn requirement_violated(&self) -> bool {
        self.required
            .iter()
            .any(|&(n, v)| self.good[n as usize] == Tv::of(!v))
    }

    /// Chooses which of two pins to backtrace into when driving both to
    /// `inner`. Unguided (or with one pin already assigned) this is the
    /// first X pin, preserving the historical search order. Guided with
    /// both pins X, controllability decides: the *cheapest* pin when any
    /// one suffices (`all_needed == false`), the *hardest* when every pin
    /// must reach `inner` — failing on the hardest first prunes doomed
    /// subtrees sooner.
    fn pick_pin(&self, a: NetId, b: NetId, inner: bool, all_needed: bool) -> NetId {
        let a_x = self.good[a.index()] == Tv::X;
        let b_x = self.good[b.index()] == Tv::X;
        if a_x && b_x {
            if let Some(s) = self.guidance {
                let (ca, cb) = (s.control_cost(a, inner), s.control_cost(b, inner));
                let a_first = if all_needed { ca >= cb } else { ca <= cb };
                return if a_first { a } else { b };
            }
        }
        if a_x {
            a
        } else {
            b
        }
    }

    fn faulty_pin(&self, gate: usize, pin: usize, raw: Tv) -> Tv {
        if let FaultSite::InputPin(n, p) = self.fault.site {
            if n.index() == gate && p as usize == pin {
                return Tv::of(self.fault.polarity.value());
            }
        }
        raw
    }

    fn imply(&mut self) {
        let gates = self.netlist.gates();
        for (i, g) in gates.iter().enumerate() {
            let (ga, gb, gc, fa, fb, fc) = match g.kind.arity() {
                0 => (Tv::X, Tv::X, Tv::X, Tv::X, Tv::X, Tv::X),
                1 => {
                    let s = g.pins[0].index();
                    (
                        self.good[s],
                        Tv::X,
                        Tv::X,
                        self.faulty_pin(i, 0, self.faulty[s]),
                        Tv::X,
                        Tv::X,
                    )
                }
                2 => {
                    let (s0, s1) = (g.pins[0].index(), g.pins[1].index());
                    (
                        self.good[s0],
                        self.good[s1],
                        Tv::X,
                        self.faulty_pin(i, 0, self.faulty[s0]),
                        self.faulty_pin(i, 1, self.faulty[s1]),
                        Tv::X,
                    )
                }
                _ => {
                    let (s0, s1, s2) = (g.pins[0].index(), g.pins[1].index(), g.pins[2].index());
                    (
                        self.good[s0],
                        self.good[s1],
                        self.good[s2],
                        self.faulty_pin(i, 0, self.faulty[s0]),
                        self.faulty_pin(i, 1, self.faulty[s1]),
                        self.faulty_pin(i, 2, self.faulty[s2]),
                    )
                }
            };
            let gv = if g.kind == GateKind::Input {
                self.pi[self.pi_pos[i].expect("input has position")]
            } else {
                eval3(g.kind, ga, gb, gc)
            };
            let mut fv = if g.kind == GateKind::Input {
                gv
            } else {
                eval3(g.kind, fa, fb, fc)
            };
            if let FaultSite::Output(n) = self.fault.site {
                if n.index() == i {
                    fv = Tv::of(self.fault.polarity.value());
                }
            }
            self.good[i] = gv;
            self.faulty[i] = fv;
        }
    }

    fn test_found(&self) -> bool {
        self.netlist.outputs().nets().iter().any(|&n| {
            let (g, f) = (self.good[n.index()], self.faulty[n.index()]);
            g != Tv::X && f != Tv::X && g != f
        })
    }

    /// The net whose *good* value excites the fault.
    fn excitation_net(&self) -> NetId {
        match self.fault.site {
            FaultSite::Output(n) => n,
            FaultSite::InputPin(n, p) => self.netlist.gates()[n.index()].pins[p as usize],
        }
    }

    fn excited(&self) -> Option<bool> {
        let site = self.excitation_net().index();
        match self.good[site] {
            Tv::X => None,
            v => Some(v != Tv::of(self.fault.polarity.value())),
        }
    }

    /// The classic X-path check: once the fault is excited, some gate
    /// carrying D (or sitting on the D-frontier) must still reach a
    /// primary output through a chain of X-valued nets — otherwise no
    /// further assignment can propagate the fault and the whole branch
    /// is doomed. Sound: pruned subtrees contain no test, so verdicts
    /// and the first test found are unchanged; only wasted backtracks
    /// disappear.
    fn x_path_exists(&self) -> bool {
        let gates = self.netlist.gates();
        let mut seen = vec![false; gates.len()];
        let mut queue: Vec<u32> = Vec::new();
        for (i, slot) in seen.iter_mut().enumerate() {
            let (g, f) = (self.good[i], self.faulty[i]);
            if g != Tv::X && f != Tv::X && g != f {
                *slot = true;
                queue.push(i as u32);
            }
        }
        // A pin fault can put D on the faulted gate's input without any
        // net carrying D: seed the faulted gate itself when its output is
        // still open.
        if let FaultSite::InputPin(n, _) = self.fault.site {
            let i = n.index();
            if !seen[i] && (self.good[i] == Tv::X || self.faulty[i] == Tv::X) {
                if self.is_po[i] {
                    return true;
                }
                seen[i] = true;
                queue.push(i as u32);
            }
        }
        while let Some(n) = queue.pop() {
            for &r in &self.readers[n as usize] {
                let ri = r as usize;
                if seen[ri] || (self.good[ri] != Tv::X && self.faulty[ri] != Tv::X) {
                    continue;
                }
                if self.is_po[ri] {
                    return true;
                }
                seen[ri] = true;
                queue.push(r);
            }
        }
        false
    }

    /// Picks the next objective `(net, value)` or `None` if the search must
    /// backtrack.
    fn objective(&self) -> Option<(NetId, bool)> {
        match self.excited() {
            None => {
                let want = self.fault.polarity == Polarity::Sa0;
                Some((self.excitation_net(), want))
            }
            Some(false) => None,
            Some(true) => {
                if !self.x_path_exists() {
                    return None;
                }
                self.d_frontier_objective()
            }
        }
    }

    fn d_frontier_objective(&self) -> Option<(NetId, bool)> {
        let gates = self.netlist.gates();
        for (i, g) in gates.iter().enumerate() {
            if g.kind.arity() == 0 {
                continue;
            }
            let out_undef = self.good[i] == Tv::X || self.faulty[i] == Tv::X;
            if !out_undef {
                continue;
            }
            // Does any input carry D/D̄ (considering pin overrides)?
            let mut has_d = false;
            for (p, &src) in g.inputs().iter().enumerate() {
                let gv = self.good[src.index()];
                let fv = self.faulty_pin(i, p, self.faulty[src.index()]);
                if gv != Tv::X && fv != Tv::X && gv != fv {
                    has_d = true;
                }
            }
            if !has_d {
                continue;
            }
            // Objective: set an X input to the gate's non-controlling value.
            match g.kind {
                GateKind::And
                | GateKind::Nand
                | GateKind::Or
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor => {
                    let noncontrol = matches!(g.kind, GateKind::And | GateKind::Nand);
                    // Unguided: the first X input. Guided: the X input
                    // whose non-controlling value is cheapest to justify
                    // (ties keep pin order, matching the unguided walk).
                    let mut best: Option<(NetId, u32)> = None;
                    for &src in g.inputs() {
                        if self.good[src.index()] != Tv::X {
                            continue;
                        }
                        match self.guidance {
                            None => return Some((src, noncontrol)),
                            Some(s) => {
                                let c = s.control_cost(src, noncontrol);
                                if best.is_none_or(|(_, bc)| c < bc) {
                                    best = Some((src, c));
                                }
                            }
                        }
                    }
                    if let Some((src, _)) = best {
                        return Some((src, noncontrol));
                    }
                }
                GateKind::Mux => {
                    let sel = g.pins[0];
                    let (a, b) = (g.pins[1], g.pins[2]);
                    let sel_v = self.good[sel.index()];
                    // D on the select line: make the data inputs differ.
                    let d_on_sel = {
                        let gv = self.good[sel.index()];
                        let fv = self.faulty_pin(i, 0, self.faulty[sel.index()]);
                        gv != Tv::X && fv != Tv::X && gv != fv
                    };
                    if d_on_sel {
                        if self.good[a.index()] == Tv::X {
                            return Some((a, true));
                        }
                        if self.good[b.index()] == Tv::X {
                            return Some((b, false));
                        }
                    } else if sel_v == Tv::X {
                        // D on a data input: steer the select toward it.
                        let d_on_a = {
                            let gv = self.good[a.index()];
                            let fv = self.faulty_pin(i, 1, self.faulty[a.index()]);
                            gv != Tv::X && fv != Tv::X && gv != fv
                        };
                        return Some((sel, d_on_a));
                    }
                }
                GateKind::Buf
                | GateKind::Not
                | GateKind::Dff
                | GateKind::Input
                | GateKind::Const0
                | GateKind::Const1 => {}
            }
        }
        None
    }

    /// Maps an objective back to an unassigned PI.
    fn backtrace(&self, mut net: NetId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            let g = &self.netlist.gates()[net.index()];
            match g.kind {
                GateKind::Input => {
                    let pos = self.pi_pos[net.index()].expect("input");
                    return if self.pi[pos] == Tv::X {
                        Some((pos, value))
                    } else {
                        None
                    };
                }
                GateKind::Const0 | GateKind::Const1 => return None,
                GateKind::Buf | GateKind::Dff => net = g.pins[0],
                GateKind::Not => {
                    value = !value;
                    net = g.pins[0];
                }
                GateKind::Nand | GateKind::Nor => {
                    let inner = !value;
                    // Inner AND (NAND) needs every pin at 1; inner OR
                    // (NOR) needs every pin at 0.
                    let all_needed = if g.kind == GateKind::Nand {
                        inner
                    } else {
                        !inner
                    };
                    let pick = self.pick_pin(g.pins[0], g.pins[1], inner, all_needed);
                    if self.good[pick.index()] != Tv::X {
                        return None;
                    }
                    value = inner;
                    net = pick;
                }
                GateKind::And | GateKind::Or => {
                    let all_needed = if g.kind == GateKind::And {
                        value
                    } else {
                        !value
                    };
                    let pick = self.pick_pin(g.pins[0], g.pins[1], value, all_needed);
                    if self.good[pick.index()] != Tv::X {
                        return None;
                    }
                    net = pick;
                }
                GateKind::Xor | GateKind::Xnor => {
                    let (a, b) = (g.pins[0], g.pins[1]);
                    let (pick, other) = if self.good[a.index()] == Tv::X {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    if self.good[pick.index()] != Tv::X {
                        return None;
                    }
                    let invert = g.kind == GateKind::Xnor;
                    value = match self.good[other.index()] {
                        Tv::X => value,
                        Tv::One => !value ^ invert,
                        Tv::Zero => value ^ invert,
                    };
                    net = pick;
                }
                GateKind::Mux => {
                    let sel = g.pins[0];
                    match self.good[sel.index()] {
                        Tv::X => net = sel, // decide the select first (value reused)
                        Tv::One => net = g.pins[1],
                        Tv::Zero => net = g.pins[2],
                    }
                }
            }
        }
    }

    fn run(mut self) -> PodemOutcome {
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;
        loop {
            self.imply();
            if self.test_found() {
                let assignment = self
                    .pi
                    .iter()
                    .map(|&v| match v {
                        Tv::Zero => Some(false),
                        Tv::One => Some(true),
                        Tv::X => None,
                    })
                    .collect();
                return PodemOutcome::Test(assignment);
            }
            let next = if self.requirement_violated() {
                None
            } else {
                self.objective().and_then(|(net, v)| self.backtrace(net, v))
            };
            match next {
                Some((pos, v)) => {
                    self.pi[pos] = Tv::of(v);
                    decisions.push((pos, v, false));
                }
                None => {
                    // Backtrack: flip the most recent unflipped decision.
                    backtracks += 1;
                    if backtracks > self.limit {
                        return PodemOutcome::Aborted;
                    }
                    loop {
                        match decisions.pop() {
                            Some((pos, v, false)) => {
                                self.pi[pos] = Tv::of(!v);
                                decisions.push((pos, !v, true));
                                break;
                            }
                            Some((pos, _, true)) => {
                                self.pi[pos] = Tv::X;
                            }
                            None => return PodemOutcome::Untestable,
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_fault::FaultUniverse;
    use warpstl_netlist::Builder;

    fn check_test_detects(netlist: &Netlist, fault: Fault, pis: &[Option<bool>]) {
        // Verify with the fault simulator: the vector (X -> 0) must detect
        // the fault.
        use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, SimGuide};
        let u = FaultUniverse::enumerate(netlist);
        let mut list = FaultList::new(&u);
        let mut p = warpstl_netlist::PatternSeq::new(netlist.inputs().width());
        let bits: Vec<bool> = pis.iter().map(|b| b.unwrap_or(false)).collect();
        p.push_bits(0, &bits);
        fault_simulate(
            netlist,
            &p,
            &mut list,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        // The fault (or its equivalence representative) must be detected.
        let detected: Vec<Fault> = list
            .detected()
            .map(|(id, _, _, _)| list.fault(id))
            .collect();
        assert!(!detected.is_empty(), "vector detects nothing for {fault}");
    }

    #[test]
    fn and_or_chain_tests() {
        let mut b = Builder::new("c");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let a = b.and(x, y);
        let o = b.or(a, z);
        b.output("o", o);
        let n = b.finish();
        let podem = Podem::new(&n);
        // a/SA0 requires x=y=1 and z=0 for propagation.
        let f = Fault::new(FaultSite::Output(a), Polarity::Sa0);
        match podem.generate(f) {
            PodemOutcome::Test(pis) => {
                assert_eq!(pis, vec![Some(true), Some(true), Some(false)]);
                check_test_detects(&n, f, &pis);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn untestable_redundant_fault() {
        // y = x OR (NOT x) is constant 1: y/SA1 is undetectable.
        let mut b = Builder::new("r");
        let x = b.input("x");
        let nx = b.not(x);
        let y = b.or(x, nx);
        b.output("y", y);
        let n = b.finish();
        let podem = Podem::new(&n);
        let f = Fault::new(FaultSite::Output(y), Polarity::Sa1);
        assert_eq!(podem.generate(f), PodemOutcome::Untestable);
        // ...but y/SA0 is trivially testable.
        let f = Fault::new(FaultSite::Output(y), Polarity::Sa0);
        assert!(matches!(podem.generate(f), PodemOutcome::Test(_)));
    }

    #[test]
    fn pin_faults_are_targeted() {
        let mut b = Builder::new("p");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.and(x, y);
        let o = b.or(a, y); // y fans out: pin faults distinct
        b.output("o", o);
        let n = b.finish();
        let podem = Podem::new(&n);
        // Fault on the AND's y-pin SA1: need y=0 (via that pin stuck 1,
        // x=1 makes a=1 faulty vs 0 good), and o propagates when y=0.
        let f = Fault::new(FaultSite::InputPin(a, 1), Polarity::Sa1);
        match podem.generate(f) {
            PodemOutcome::Test(pis) => {
                assert_eq!(pis[0], Some(true));
                assert_eq!(pis[1], Some(false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xor_propagation() {
        let mut b = Builder::new("x");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.xor(x, y);
        b.output("z", z);
        let n = b.finish();
        let podem = Podem::new(&n);
        for pol in Polarity::BOTH {
            let f = Fault::new(FaultSite::Output(NetId(0)), pol);
            match podem.generate(f) {
                PodemOutcome::Test(pis) => check_test_detects(&n, f, &pis),
                other => panic!("{pol}: {other:?}"),
            }
        }
    }

    #[test]
    fn adder_faults_all_testable() {
        let mut b = Builder::new("add4");
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        let u = FaultUniverse::enumerate(&n);
        let podem = Podem::new(&n);
        let mut tested = 0;
        let mut untestable = 0;
        for &f in u.faults() {
            match podem.generate(f) {
                PodemOutcome::Test(pis) => {
                    check_test_detects(&n, f, &pis);
                    tested += 1;
                }
                PodemOutcome::Untestable => untestable += 1,
                PodemOutcome::Aborted => panic!("aborted on {f}"),
            }
        }
        // Every fault gets a verdict; the only untestable ones sit in the
        // redundant logic around the constant-0 carry-in of stage 0.
        assert_eq!(tested + untestable, u.collapsed_len());
        assert!(untestable <= 3, "untestable {untestable}");
        assert!(tested > u.collapsed_len() * 9 / 10);
    }

    #[test]
    fn guided_adder_faults_all_testable_and_verified() {
        // SCOAP guidance changes search order, never verdicts: the same
        // faults are testable, and every guided vector really detects its
        // fault under simulation.
        let mut b = Builder::new("add4g");
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        let u = FaultUniverse::enumerate(&n);
        let scoap = warpstl_analyze::Scoap::compute(&n);
        let plain = Podem::new(&n);
        let guided = Podem::new(&n).with_guidance(&scoap);
        for &f in u.faults() {
            let pv = plain.generate(f);
            let gv = guided.generate(f);
            match (&pv, &gv) {
                (PodemOutcome::Test(_), PodemOutcome::Test(pis)) => {
                    check_test_detects(&n, f, pis);
                }
                (PodemOutcome::Untestable, PodemOutcome::Untestable) => {}
                other => panic!("verdict diverged on {f}: {other:?}"),
            }
        }
    }

    #[test]
    fn guided_search_steers_toward_cheap_pins() {
        // o = OR(deep, easy): justifying o = 1 should pick the cheap
        // input, not the 4-gate chain, when guidance is on.
        let mut b = Builder::new("steer");
        let x = b.input("x");
        let easy = b.input("easy");
        let mut deep = x;
        for i in 0..4 {
            let t = b.input(&format!("t{i}"));
            deep = b.and(deep, t);
        }
        let o = b.or(deep, easy);
        b.output("o", o);
        let n = b.finish();
        let scoap = warpstl_analyze::Scoap::compute(&n);
        let guided = Podem::new(&n).with_guidance(&scoap);
        // o/SA0 is excited by o = 1; the guided search should satisfy it
        // through `easy` alone, leaving the deep chain's inputs X.
        let f = Fault::new(FaultSite::Output(o), Polarity::Sa0);
        match guided.generate(f) {
            PodemOutcome::Test(pis) => {
                assert_eq!(pis[1], Some(true), "easy input drives the OR");
                let assigned = pis.iter().filter(|p| p.is_some()).count();
                assert_eq!(assigned, 1, "deep chain left as don't-care: {pis:?}");
                check_test_detects(&n, f, &pis);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn implications_fast_path_proves_redundancy_without_search() {
        // y = x OR (NOT x) is constant 1: the activation literal of y/SA1
        // is impossible, so the implication-armed generator answers
        // Untestable with zero backtracks — where the plain search at the
        // same (zero) backtrack budget can only abort.
        let mut b = Builder::new("r");
        let x = b.input("x");
        let nx = b.not(x);
        let y = b.or(x, nx);
        b.output("y", y);
        let n = b.finish();
        let imp = warpstl_analyze::Implications::compute(&n);
        let f = Fault::new(FaultSite::Output(y), Polarity::Sa1);
        let plain = Podem::new(&n).with_backtrack_limit(0);
        assert_eq!(plain.generate(f), PodemOutcome::Aborted);
        let armed = Podem::new(&n)
            .with_backtrack_limit(0)
            .with_implications(&imp);
        assert_eq!(armed.generate(f), PodemOutcome::Untestable);
        // The testable polarity is untouched by the fast path.
        let f0 = Fault::new(FaultSite::Output(y), Polarity::Sa0);
        assert!(matches!(
            Podem::new(&n).with_implications(&imp).generate(f0),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn implication_seeding_preserves_verdicts() {
        // Seeded necessary assignments change vectors and search order,
        // never verdicts — and every seeded vector still detects.
        let mut b = Builder::new("add4i");
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        let n = b.finish();
        let u = FaultUniverse::enumerate(&n);
        let imp = warpstl_analyze::Implications::compute(&n);
        let plain = Podem::new(&n);
        let armed = Podem::new(&n).with_implications(&imp);
        for &f in u.faults() {
            let pv = plain.generate(f);
            let av = armed.generate(f);
            match (&pv, &av) {
                (PodemOutcome::Test(_), PodemOutcome::Test(pis)) => {
                    check_test_detects(&n, f, pis);
                }
                (PodemOutcome::Untestable, PodemOutcome::Untestable) => {}
                other => panic!("verdict diverged on {f}: {other:?}"),
            }
        }
    }

    #[test]
    fn mux_select_fault() {
        let mut b = Builder::new("m");
        let s = b.input("s");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.mux(s, x, y);
        b.output("m", m);
        let n = b.finish();
        let podem = Podem::new(&n);
        let f = Fault::new(FaultSite::Output(NetId(0)), Polarity::Sa0);
        match podem.generate(f) {
            PodemOutcome::Test(pis) => {
                assert_eq!(pis[0], Some(true)); // s must be 1 to excite
                check_test_detects(&n, f, &pis);
            }
            other => panic!("{other:?}"),
        }
    }
}
