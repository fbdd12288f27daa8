//! Diagnostics: rules, severities, and the verification report.

use std::fmt;

use warpstl_obs::json::Writer;

/// The verifier's rule set. Each diagnostic belongs to exactly one rule;
/// [`VerifyStats`] counts diagnostics per rule so reports can show where a
/// program went wrong at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Rule 1: a register or predicate is read with no reaching definition
    /// (error), or defined on only some paths to the use (warning).
    UseBeforeDef,
    /// Rule 2: Small-Block structural integrity — the load → operate →
    /// propagate shape (bare stores, operate runs whose results are never
    /// propagated nor consumed).
    SbStructure,
    /// Rule 3: ARC admissibility — instructions removed from basic blocks
    /// that participate in CFG cycles (parametric loops).
    ArcAdmissibility,
    /// Rule 4: `SSY`/`SYNC` divergence pairing and branch-target validity.
    DivergencePairing,
    /// Rule 5: warp-level memory alias/race detection on store address
    /// expressions.
    MemoryRace,
    /// Rule 6: relocation soundness — every surviving slot load must have a
    /// backing data word for every thread.
    Relocation,
}

impl Rule {
    /// The number of rules.
    pub const COUNT: usize = 6;

    /// All rules, in report order.
    pub const ALL: [Rule; Rule::COUNT] = [
        Rule::UseBeforeDef,
        Rule::SbStructure,
        Rule::ArcAdmissibility,
        Rule::DivergencePairing,
        Rule::MemoryRace,
        Rule::Relocation,
    ];

    /// The stable kebab-case rule name (used in human and JSON output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::UseBeforeDef => "use-before-def",
            Rule::SbStructure => "sb-structure",
            Rule::ArcAdmissibility => "arc-admissibility",
            Rule::DivergencePairing => "divergence-pairing",
            Rule::MemoryRace => "memory-race",
            Rule::Relocation => "relocation",
        }
    }

    /// The rule's index into [`VerifyStats`] arrays.
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
/// give `warpstl lint` a nonzero exit); warnings are reported but do not
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Reported, but does not gate the pipeline.
    Warning,
    /// Gates the pipeline: the CPTP is considered malformed.
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

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Error or warning.
    pub severity: Severity,
    /// The instruction index the finding anchors to, when there is one.
    pub pc: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An error diagnostic at `pc`.
    #[must_use]
    pub fn error(rule: Rule, pc: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Error,
            pc: Some(pc),
            message: message.into(),
        }
    }

    /// A warning diagnostic at `pc`.
    #[must_use]
    pub fn warning(rule: Rule, pc: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            pc: Some(pc),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if let Some(pc) = self.pc {
            write!(f, " pc {pc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Per-rule diagnostic counts — the structured summary recorded in
/// `CompactionReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Errors per rule, indexed by [`Rule::index`].
    pub errors: [usize; Rule::COUNT],
    /// Warnings per rule, indexed by [`Rule::index`].
    pub warnings: [usize; Rule::COUNT],
}

impl VerifyStats {
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
    pub fn merged(&self, other: &VerifyStats) -> VerifyStats {
        let mut out = *self;
        for i in 0..Rule::COUNT {
            out.errors[i] += other.errors[i];
            out.warnings[i] += other.warnings[i];
        }
        out
    }
}

impl fmt::Display for VerifyStats {
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

/// The verifier's findings for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The verified PTP's name.
    pub name: String,
    /// The verified program's length in instructions.
    pub program_len: usize,
    /// Every finding, in rule order then program order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
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

    /// Whether the program passed (no errors; warnings allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// The per-rule counts.
    #[must_use]
    pub fn stats(&self) -> VerifyStats {
        let mut stats = VerifyStats::default();
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
            .field("program", &self.name)
            .field("instructions", self.program_len)
            .field("errors", self.error_count())
            .field("warnings", self.warning_count())
            .key("diagnostics")
            .inline_array();
        for d in &self.diagnostics {
            w.inline_object()
                .field("rule", d.rule.to_string())
                .field("severity", d.severity.to_string())
                .field("pc", d.pc)
                .field("message", &d.message)
                .end();
        }
        w.finish()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{}: {} error(s), {} warning(s) over {} instruction(s)",
            self.name,
            self.error_count(),
            self.warning_count(),
            self.program_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_obs::json::{parse, Json};

    fn report() -> VerifyReport {
        VerifyReport {
            name: "T".into(),
            program_len: 4,
            diagnostics: vec![
                Diagnostic::error(Rule::UseBeforeDef, 1, "read of R1 with no definition"),
                Diagnostic::warning(Rule::MemoryRace, 2, "uniform store base"),
            ],
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = report();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        let stats = r.stats();
        assert_eq!(stats.errors[Rule::UseBeforeDef.index()], 1);
        assert_eq!(stats.warnings[Rule::MemoryRace.index()], 1);
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
        assert_eq!(first.get("rule").unwrap().as_str(), Some("use-before-def"));
        assert_eq!(first.get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(first.get("pc").unwrap().as_count(), Some(1));
        assert_eq!(j.get("errors").unwrap().as_count(), Some(1));
    }

    #[test]
    fn display_names_rule_and_severity() {
        let d = Diagnostic::error(Rule::Relocation, 7, "missing word");
        assert_eq!(d.to_string(), "error[relocation] pc 7: missing word");
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
