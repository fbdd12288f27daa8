//! Diagnostics: lint rules, severities, and the analysis report.
//!
//! The shapes deliberately mirror `warpstl-verify`'s diagnostics so the
//! two gates of the pipeline (netlist analysis before fault simulation,
//! program verification after reduction) read the same way: a small rule
//! enum with stable kebab-case names, per-rule count arrays, and a JSON
//! serialization through the shared `warpstl_obs::json` writer.

use std::fmt;

use warpstl_netlist::NetId;
use warpstl_obs::json::Writer;

/// The analyzer's lint rule set. Each diagnostic belongs to exactly one
/// rule; [`AnalyzeStats`] counts diagnostics per rule so reports can show
/// where a netlist is malformed at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A cycle through combinational gates (no flip-flop on the path).
    /// Logic values would oscillate or latch; simulation is undefined.
    CombLoop,
    /// A gate pin (or output port) references a net no gate drives.
    UndrivenNet,
    /// A non-constant gate whose output is provably constant because of
    /// constant gates upstream — dead logic that can never toggle.
    DeadLogic,
    /// A gate from which no primary output is reachable (including
    /// floating nets nothing reads); its faults are untestable.
    Unreachable,
    /// A reachable gate whose stem faults are all provably untestable
    /// (implication-based proof): the logic it computes never influences
    /// any output under any input.
    RedundantLogic,
}

impl Rule {
    /// The number of rules.
    pub const COUNT: usize = 5;

    /// All rules, in report order.
    pub const ALL: [Rule; Rule::COUNT] = [
        Rule::CombLoop,
        Rule::UndrivenNet,
        Rule::DeadLogic,
        Rule::Unreachable,
        Rule::RedundantLogic,
    ];

    /// The stable kebab-case rule name (used in human and JSON output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::CombLoop => "comb-loop",
            Rule::UndrivenNet => "undriven-net",
            Rule::DeadLogic => "dead-logic",
            Rule::Unreachable => "unreachable",
            Rule::RedundantLogic => "redundant-logic",
        }
    }

    /// The rule's index into [`AnalyzeStats`] arrays.
    #[must_use]
    pub fn index(self) -> usize {
        Rule::ALL.iter().position(|&r| r == self).expect("listed")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How severe a diagnostic is. Errors gate the compaction pipeline (and
/// give `warpstl analyze` a nonzero exit); warnings are reported but do
/// not block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Reported, but does not gate the pipeline.
    Warning,
    /// Gates the pipeline: the netlist is considered malformed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Error or warning.
    pub severity: Severity,
    /// The net (gate) the finding anchors to, when there is one.
    pub net: Option<NetId>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An error diagnostic at `net`.
    #[must_use]
    pub fn error(rule: Rule, net: NetId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Error,
            net: Some(net),
            message: message.into(),
        }
    }

    /// A warning diagnostic at `net`.
    #[must_use]
    pub fn warning(rule: Rule, net: NetId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            net: Some(net),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if let Some(net) = self.net {
            write!(f, " {net}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Per-rule diagnostic counts — the structured summary recorded in
/// `CompactionReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeStats {
    /// Errors per rule, indexed by [`Rule::index`].
    pub errors: [usize; Rule::COUNT],
    /// Warnings per rule, indexed by [`Rule::index`].
    pub warnings: [usize; Rule::COUNT],
}

impl AnalyzeStats {
    /// Total errors across all rules.
    #[must_use]
    pub fn total_errors(&self) -> usize {
        self.errors.iter().sum()
    }

    /// Total warnings across all rules.
    #[must_use]
    pub fn total_warnings(&self) -> usize {
        self.warnings.iter().sum()
    }

    /// Element-wise sum (for combined report rows).
    #[must_use]
    pub fn merged(&self, other: &AnalyzeStats) -> AnalyzeStats {
        let mut out = *self;
        for i in 0..Rule::COUNT {
            out.errors[i] += other.errors[i];
            out.warnings[i] += other.warnings[i];
        }
        out
    }
}

impl fmt::Display for AnalyzeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for rule in Rule::ALL {
            let i = rule.index();
            write!(f, "{sep}{rule} {}/{}", self.errors[i], self.warnings[i])?;
            sep = " | ";
        }
        Ok(())
    }
}

/// Implication-engine counts carried by the report. All zero when the
/// implication pass has not run (a bare [`lint`](crate::lint) call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImplicationStats {
    /// Directed implication edges (contrapositives included).
    pub edges: usize,
    /// Literals proven impossible.
    pub impossible: usize,
    /// Fault sites (site/polarity pairs) proven untestable.
    pub untestable: usize,
    /// Implication-derived fault equivalences.
    pub merges: usize,
}

/// The analyzer's findings for one netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// The analyzed netlist's name.
    pub name: String,
    /// The analyzed netlist's gate count.
    pub gates: usize,
    /// Every finding, in rule order then net order.
    pub diagnostics: Vec<Diagnostic>,
    /// Implication-engine counts for the module.
    pub implications: ImplicationStats,
}

impl AnalyzeReport {
    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether the netlist passed (no errors; warnings allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// The per-rule counts.
    #[must_use]
    pub fn stats(&self) -> AnalyzeStats {
        let mut stats = AnalyzeStats::default();
        for d in &self.diagnostics {
            let i = d.rule.index();
            match d.severity {
                Severity::Error => stats.errors[i] += 1,
                Severity::Warning => stats.warnings[i] += 1,
            }
        }
        stats
    }

    /// Serializes the report as a single one-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.inline_object()
            .field("netlist", &self.name)
            .field("gates", self.gates)
            .field("errors", self.error_count())
            .field("warnings", self.warning_count())
            .field("implication_edges", self.implications.edges)
            .field("impossible_literals", self.implications.impossible)
            .field("untestable", self.implications.untestable)
            .field("equiv_merges", self.implications.merges)
            .key("diagnostics")
            .inline_array();
        for d in &self.diagnostics {
            w.inline_object()
                .field("rule", d.rule.to_string())
                .field("severity", d.severity.to_string())
                .field("net", d.net.map(NetId::index))
                .field("message", &d.message)
                .end();
        }
        w.finish()
    }
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{}: {} error(s), {} warning(s) over {} gate(s)",
            self.name,
            self.error_count(),
            self.warning_count(),
            self.gates
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_obs::json::{parse, Json};

    fn report() -> AnalyzeReport {
        AnalyzeReport {
            name: "T".into(),
            gates: 9,
            diagnostics: vec![
                Diagnostic::error(Rule::CombLoop, NetId(3), "cycle n3 -> n4 -> n3"),
                Diagnostic::warning(Rule::DeadLogic, NetId(5), "constant 0"),
            ],
            implications: ImplicationStats {
                edges: 12,
                impossible: 1,
                untestable: 2,
                merges: 0,
            },
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = report();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        let stats = r.stats();
        assert_eq!(stats.errors[Rule::CombLoop.index()], 1);
        assert_eq!(stats.warnings[Rule::DeadLogic.index()], 1);
        assert_eq!(stats.total_errors(), 1);
        assert_eq!(stats.total_warnings(), 1);
    }

    #[test]
    fn stats_merge_elementwise() {
        let a = report().stats();
        let b = a.merged(&a);
        assert_eq!(b.total_errors(), 2);
        assert_eq!(b.total_warnings(), 2);
    }

    #[test]
    fn json_is_well_formed() {
        let j = parse(&report().to_json()).unwrap();
        let first = match j.get("diagnostics") {
            Some(Json::Arr(items)) => &items[0],
            other => panic!("diagnostics is not an array: {other:?}"),
        };
        assert_eq!(first.get("rule").unwrap().as_str(), Some("comb-loop"));
        assert_eq!(first.get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(first.get("net").unwrap().as_count(), Some(3));
        assert_eq!(j.get("errors").unwrap().as_count(), Some(1));
        assert_eq!(j.get("untestable").unwrap().as_count(), Some(2));
        assert_eq!(j.get("implication_edges").unwrap().as_count(), Some(12));
    }

    #[test]
    fn display_names_rule_and_severity() {
        let d = Diagnostic::error(Rule::UndrivenNet, NetId(7), "pin floats");
        assert_eq!(d.to_string(), "error[undriven-net] n7: pin floats");
        let s = report().to_string();
        assert!(s.contains("1 error(s)"));
    }

    #[test]
    fn rule_indices_are_stable() {
        for (i, rule) in Rule::ALL.iter().enumerate() {
            assert_eq!(rule.index(), i);
        }
    }
}
