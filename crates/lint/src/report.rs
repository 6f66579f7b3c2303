//! Lint findings and the deterministic report renderings.
//!
//! Mirrors `cc-audit`'s report contract: canonical ordering, fixed JSON
//! key order, fixed-precision floats — the JSON is byte-stable and pinned
//! by golden-file tests (`tests/golden.rs`, `CC_BLESS=1` to regenerate).

use crate::modeled::{Analysis, ModeledStruct};
use std::fmt;

/// The static rule catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintRule {
    /// Avoidable padding waste above the threshold.
    Pad01,
    /// A field straddling a cache-line boundary.
    Span01,
    /// Declared-hot fields split across lines by cold ones.
    Hot01,
    /// AoS array whose per-element hot bytes fit a line after splitting.
    Soa01,
}

impl LintRule {
    /// Every rule, in report order.
    pub const ALL: [LintRule; 4] = [
        LintRule::Pad01,
        LintRule::Span01,
        LintRule::Hot01,
        LintRule::Soa01,
    ];

    /// Stable diagnostic id.
    pub fn id(&self) -> &'static str {
        match self {
            LintRule::Pad01 => "PAD-01",
            LintRule::Span01 => "SPAN-01",
            LintRule::Hot01 => "HOT-01",
            LintRule::Soa01 => "SOA-01",
        }
    }

    /// Severity name, aligned with `cc-audit`'s scale.
    pub fn severity(&self) -> &'static str {
        match self {
            LintRule::Hot01 => "error",
            LintRule::Pad01 | LintRule::Span01 => "warning",
            LintRule::Soa01 => "info",
        }
    }
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One static finding.
#[derive(Clone, Debug, PartialEq)]
// Field order is the analyzer's own PAD-01 suggestion for itself;
// repr(C) pins it, the offset test in this file holds it.
#[repr(C)]
pub struct LintFinding {
    /// Offending struct.
    pub strukt: String,
    /// Source file label.
    pub file: String,
    /// Offending fields (empty = whole struct).
    pub fields: Vec<String>,
    /// What happened, evidence inline.
    pub message: String,
    /// Concrete suggested reorder/split.
    pub suggestion: String,
    /// Unit of the before/after metric.
    pub unit: &'static str,
    /// Measured heat joined from a hotness input.
    pub weight: Option<f64>,
    /// Predicted metric under the current layout.
    pub before: f64,
    /// Predicted metric under the suggestion.
    pub after: f64,
    /// 1-based definition line.
    pub line: u32,
    /// Which rule fired.
    pub rule: LintRule,
    /// Present in the baseline file (does not affect the exit code).
    pub waived: bool,
}

impl LintFinding {
    /// Stable baseline key: `RULE file::Struct[.field]`.
    pub fn key(&self) -> String {
        match (self.rule, self.fields.first()) {
            (LintRule::Span01, Some(field)) => {
                format!(
                    "{} {}::{}.{}",
                    self.rule.id(),
                    self.file,
                    self.strukt,
                    field
                )
            }
            _ => format!("{} {}::{}", self.rule.id(), self.file, self.strukt),
        }
    }
}

/// Aggregate numbers, reported even when clean.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LintStats {
    /// Files analysed.
    pub files: usize,
    /// Structs fully modeled.
    pub structs_modeled: usize,
    /// Structs skipped (generics, opaque fields).
    pub structs_skipped: usize,
    /// Structs whose `repr(C)` layout is a compiler guarantee end-to-end.
    pub structs_exact: usize,
    /// Enums seen.
    pub enums: usize,
    /// Total padding bytes under the declaration-order model.
    pub decl_padding: u64,
    /// Total padding bytes under the optimal-reorder model.
    pub optimal_padding: u64,
    /// Findings waived by the baseline.
    pub waived: usize,
}

/// The lint's outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    /// Findings, canonically ordered.
    pub findings: Vec<LintFinding>,
    /// Aggregate statistics.
    pub stats: LintStats,
    /// Per-struct layout summaries (the model, for the artifact).
    pub structs: Vec<StructSummary>,
}

/// Serializable layout summary of one modeled struct.
#[derive(Clone, Debug, PartialEq)]
pub struct StructSummary {
    /// Type name.
    pub name: String,
    /// Source file label.
    pub file: String,
    /// Repr rendering (`"C"` / `"Rust"`, with packed/align suffixes).
    pub repr: String,
    /// Modeled size.
    pub size: u64,
    /// Modeled alignment.
    pub align: u64,
    /// Total padding (declaration order).
    pub padding: u64,
    /// Size after optimal reorder.
    pub optimal_size: u64,
    /// Padding after optimal reorder.
    pub optimal_padding: u64,
    /// Layout is a compiler guarantee.
    pub exact: bool,
    /// Fields: (name, offset, size, align, hot), declaration order.
    pub fields: Vec<(String, u64, u64, u64, bool)>,
}

impl StructSummary {
    fn of(m: &ModeledStruct) -> Self {
        let mut repr = if m.repr_c {
            "C".to_string()
        } else {
            "Rust".to_string()
        };
        if let Some(p) = m.packed {
            repr.push_str(&format!(",packed({p})"));
        }
        if let Some(a) = m.align_attr {
            repr.push_str(&format!(",align({a})"));
        }
        let mut fields: Vec<_> = m
            .decl
            .fields
            .iter()
            .map(|f| (f.name.clone(), f.offset, f.size, f.align, f.hot))
            .collect();
        fields.sort_by_key(|f| f.1);
        StructSummary {
            name: m.name.clone(),
            file: m.file.clone(),
            repr,
            size: m.decl.size,
            align: m.decl.align,
            padding: m.decl.padding,
            optimal_size: m.opt.size,
            optimal_padding: m.opt.padding,
            exact: m.exact,
            fields,
        }
    }
}

impl LintReport {
    /// Builds the report from an analysis and its findings.
    pub fn build(analysis: &Analysis, mut findings: Vec<LintFinding>) -> Self {
        findings.sort_by(|a, b| {
            (&a.file, &a.strukt, a.rule, &a.fields).cmp(&(&b.file, &b.strukt, b.rule, &b.fields))
        });
        let stats = LintStats {
            files: analysis.files,
            structs_modeled: analysis.modeled.len(),
            structs_skipped: analysis.skipped.len(),
            structs_exact: analysis.modeled.iter().filter(|m| m.exact).count(),
            enums: analysis.enums,
            decl_padding: analysis.modeled.iter().map(|m| m.decl.padding).sum(),
            optimal_padding: analysis.modeled.iter().map(|m| m.opt.padding).sum(),
            waived: 0,
        };
        LintReport {
            findings,
            stats,
            structs: analysis.modeled.iter().map(StructSummary::of).collect(),
        }
    }

    /// Marks findings present in the baseline as waived.
    pub fn apply_baseline(&mut self, waivers: &std::collections::BTreeSet<String>) {
        for f in &mut self.findings {
            f.waived = waivers.contains(&f.key());
        }
        self.stats.waived = self.findings.iter().filter(|f| f.waived).count();
    }

    /// Findings not covered by the baseline (the exit-code signal).
    pub fn new_findings(&self) -> usize {
        self.findings.iter().filter(|f| !f.waived).count()
    }

    /// Whether nothing fired at all (waived or not).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!(
            "cc-lint: {} file(s), {} struct(s) modeled ({} exact repr(C), {} skipped), {} enum(s)\n",
            s.files, s.structs_modeled, s.structs_exact, s.structs_skipped, s.enums
        ));
        out.push_str(&format!(
            "padding: {} byte(s) declared, {} after optimal reorder\n",
            s.decl_padding, s.optimal_padding
        ));
        if self.is_clean() {
            out.push_str("clean: no layout findings\n");
            return out;
        }
        for f in &self.findings {
            out.push_str(&format!(
                "{}{} [{}] {}::{} {}\n",
                if f.waived { "waived " } else { "" },
                f.rule.severity(),
                f.rule,
                f.file,
                f.strukt,
                f.message
            ));
            out.push_str(&format!(
                "  predicted: {} -> {} {}\n",
                fmt_f64(f.before),
                fmt_f64(f.after),
                f.unit
            ));
            out.push_str(&format!("  fix: {}\n", f.suggestion));
        }
        out.push_str(&format!(
            "{} finding(s), {} waived, {} new\n",
            self.findings.len(),
            self.stats.waived,
            self.new_findings()
        ));
        out
    }

    /// Stable machine-readable rendering: fixed key order, fixed float
    /// precision, canonical finding order.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"clean\": {},\n  \"new_findings\": {},\n",
            self.is_clean(),
            self.new_findings()
        ));
        out.push_str("  \"stats\": {\n");
        out.push_str(&format!("    \"files\": {},\n", s.files));
        out.push_str(&format!(
            "    \"structs_modeled\": {},\n",
            s.structs_modeled
        ));
        out.push_str(&format!(
            "    \"structs_skipped\": {},\n",
            s.structs_skipped
        ));
        out.push_str(&format!("    \"structs_exact\": {},\n", s.structs_exact));
        out.push_str(&format!("    \"enums\": {},\n", s.enums));
        out.push_str(&format!("    \"decl_padding\": {},\n", s.decl_padding));
        out.push_str(&format!(
            "    \"optimal_padding\": {},\n",
            s.optimal_padding
        ));
        out.push_str(&format!("    \"waived\": {}\n", s.waived));
        out.push_str("  },\n");
        out.push_str("  \"structs\": [");
        for (i, st) in self.structs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", escape_json(&st.name)));
            out.push_str(&format!("      \"file\": \"{}\",\n", escape_json(&st.file)));
            out.push_str(&format!("      \"repr\": \"{}\",\n", st.repr));
            out.push_str(&format!("      \"size\": {},\n", st.size));
            out.push_str(&format!("      \"align\": {},\n", st.align));
            out.push_str(&format!("      \"padding\": {},\n", st.padding));
            out.push_str(&format!("      \"optimal_size\": {},\n", st.optimal_size));
            out.push_str(&format!(
                "      \"optimal_padding\": {},\n",
                st.optimal_padding
            ));
            out.push_str(&format!("      \"exact\": {},\n", st.exact));
            out.push_str("      \"fields\": [");
            for (j, (name, off, size, align, hot)) in st.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {{\"name\": \"{}\", \"offset\": {}, \"size\": {}, \
                     \"align\": {}, \"hot\": {}}}",
                    escape_json(name),
                    off,
                    size,
                    align,
                    hot
                ));
            }
            if !st.fields.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.structs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"rule\": \"{}\",\n", f.rule.id()));
            out.push_str(&format!("      \"severity\": \"{}\",\n", f.rule.severity()));
            out.push_str(&format!(
                "      \"struct\": \"{}\",\n",
                escape_json(&f.strukt)
            ));
            out.push_str(&format!("      \"file\": \"{}\",\n", escape_json(&f.file)));
            out.push_str(&format!("      \"line\": {},\n", f.line));
            let fields: Vec<String> = f
                .fields
                .iter()
                .map(|x| format!("\"{}\"", escape_json(x)))
                .collect();
            out.push_str(&format!("      \"fields\": [{}],\n", fields.join(", ")));
            out.push_str(&format!(
                "      \"message\": \"{}\",\n",
                escape_json(&f.message)
            ));
            out.push_str(&format!(
                "      \"suggestion\": \"{}\",\n",
                escape_json(&f.suggestion)
            ));
            out.push_str(&format!("      \"unit\": \"{}\",\n", f.unit));
            out.push_str(&format!("      \"before\": {},\n", fmt_f64(f.before)));
            out.push_str(&format!("      \"after\": {},\n", fmt_f64(f.after)));
            out.push_str(&format!(
                "      \"weight\": {},\n",
                f.weight.map_or("null".to_string(), fmt_f64)
            ));
            out.push_str(&format!("      \"waived\": {}\n", f.waived));
            out.push_str("    }");
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Fixed-precision float formatting (same convention as `cc-audit`).
fn fmt_f64(x: f64) -> String {
    format!("{x:.4}")
}

/// Escapes `s` for a JSON string literal: `\"`, `\\`, `\n`, `\t`, and
/// `\u00XX` for the other control characters. The crate's only JSON
/// escaper; [`crate::hot::HotSpec`]'s parser reads it back.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    // Compiler-backed pin of the repr(C) reorder (PAD-01 burn-down):
    // the five 24-byte string/vec headers lead, the f64/Option block
    // follows, and line/rule/waived pack the tail.
    #[test]
    fn lint_finding_offsets_are_pinned() {
        use core::mem::{offset_of, size_of};
        assert_eq!(offset_of!(LintFinding, strukt), 0);
        assert_eq!(offset_of!(LintFinding, file), 24);
        assert_eq!(offset_of!(LintFinding, fields), 48);
        assert_eq!(offset_of!(LintFinding, message), 72);
        assert_eq!(offset_of!(LintFinding, suggestion), 96);
        assert_eq!(offset_of!(LintFinding, unit), 120);
        assert_eq!(offset_of!(LintFinding, weight), 136);
        assert_eq!(offset_of!(LintFinding, before), 152);
        assert_eq!(offset_of!(LintFinding, after), 160);
        assert_eq!(offset_of!(LintFinding, line), 168);
        assert_eq!(offset_of!(LintFinding, rule), 172);
        assert_eq!(offset_of!(LintFinding, waived), 173);
        assert_eq!(size_of::<LintFinding>(), 176);
    }
}
