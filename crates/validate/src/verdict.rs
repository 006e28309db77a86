//! Check results, the terminal summary and `VALIDATE.json`.
//!
//! Every tier reduces to a flat list of [`Check`]s — named pass/fail
//! gates with a human-readable detail line and named metrics. The
//! [`Report`] groups them by tier and renders both the CLI summary and
//! the machine-readable JSON document that `scripts/validate.sh`
//! writes for CI (built with the engine's hand-rolled
//! [`JsonLine`] encoder — no serde in
//! the workspace).

use psr_engine::journal::JsonLine;
use std::fmt::Write as _;

/// One named validation gate.
#[derive(Clone, Debug)]
pub struct Check {
    /// Tier the check belongs to (`exact`, `segers`, `statistical`,
    /// `kink`).
    pub tier: String,
    /// Check name, unique within the tier.
    pub name: String,
    /// Did the gate pass?
    pub pass: bool,
    /// Human-readable explanation with the measured numbers.
    pub detail: String,
    /// Named metrics for machine consumption.
    pub metrics: Vec<(String, f64)>,
}

impl Check {
    /// A check with no metrics yet.
    pub fn new(
        tier: impl Into<String>,
        name: impl Into<String>,
        pass: bool,
        detail: impl Into<String>,
    ) -> Self {
        Check {
            tier: tier.into(),
            name: name.into(),
            pass,
            detail: detail.into(),
            metrics: Vec::new(),
        }
    }

    /// Attach a named metric (builder style).
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }
}

/// The full validation outcome.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All checks, in tier order.
    pub checks: Vec<Check>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a tier's checks.
    pub fn extend(&mut self, checks: Vec<Check>) {
        self.checks.extend(checks);
    }

    /// True when every check passed (an empty report passes — the CLI
    /// guards against running zero tiers separately).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Number of failed checks.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.pass).count()
    }

    /// Distinct tiers, in first-appearance order.
    fn tiers(&self) -> Vec<&str> {
        let mut tiers: Vec<&str> = Vec::new();
        for c in &self.checks {
            if !tiers.contains(&c.tier.as_str()) {
                tiers.push(&c.tier);
            }
        }
        tiers
    }

    /// Render the terminal summary: one line per check, grouped by
    /// tier, with a trailing verdict line.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for tier in self.tiers() {
            let _ = writeln!(out, "[{tier}]");
            for c in self.checks.iter().filter(|c| c.tier == tier) {
                let mark = if c.pass { "PASS" } else { "FAIL" };
                let _ = writeln!(out, "  {mark}  {:<32} {}", c.name, c.detail);
            }
        }
        let _ = writeln!(
            out,
            "{} checks, {} failed -> {}",
            self.checks.len(),
            self.failures(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }

    /// Render the `VALIDATE.json` document:
    ///
    /// ```json
    /// {"smoke":false,"seed":1,"passed":true,
    ///  "tiers":{"exact":{"passed":true,"checks":[...]}}}
    /// ```
    pub fn to_json(&self, smoke: bool, seed: u64) -> String {
        let mut tiers = String::from("{");
        for (i, tier) in self.tiers().iter().enumerate() {
            if i > 0 {
                tiers.push(',');
            }
            let checks: Vec<String> = self
                .checks
                .iter()
                .filter(|c| c.tier == *tier)
                .map(|c| {
                    let mut line = JsonLine::object()
                        .str("name", &c.name)
                        .bool("pass", c.pass)
                        .str("detail", &c.detail);
                    for (k, v) in &c.metrics {
                        line = line.f64(k, *v);
                    }
                    line.finish()
                })
                .collect();
            let tier_pass = self
                .checks
                .iter()
                .filter(|c| c.tier == *tier)
                .all(|c| c.pass);
            let body = JsonLine::object()
                .bool("passed", tier_pass)
                .raw("checks", &format!("[{}]", checks.join(",")))
                .finish();
            // Tier names are fixed identifiers, safe to splice.
            let _ = write!(tiers, "\"{tier}\":{body}");
        }
        tiers.push('}');
        JsonLine::object()
            .bool("smoke", smoke)
            .u64("seed", seed)
            .u64("checks", self.checks.len() as u64)
            .u64("failed", self.failures() as u64)
            .bool("passed", self.passed())
            .raw("tiers", &tiers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new();
        r.extend(vec![
            Check::new("exact", "a", true, "fine").metric("z", 1.5),
            Check::new("exact", "b", false, "off by \"lots\""),
        ]);
        r.extend(vec![Check::new("kink", "y1", true, "found")]);
        r
    }

    #[test]
    fn pass_and_failure_counts() {
        let r = sample_report();
        assert!(!r.passed());
        assert_eq!(r.failures(), 1);
        assert!(Report::new().passed());
    }

    #[test]
    fn summary_lists_every_check_grouped_by_tier() {
        let s = sample_report().render_summary();
        assert!(s.contains("[exact]"));
        assert!(s.contains("[kink]"));
        assert!(s.contains("PASS"));
        assert!(s.contains("FAIL"));
        assert!(s.contains("3 checks, 1 failed -> FAIL"));
    }

    #[test]
    fn json_document_nests_tiers_and_escapes_details() {
        let json = sample_report().to_json(true, 42);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"smoke\":true"));
        assert!(json.contains("\"seed\":42"));
        assert!(json.contains("\"passed\":false"));
        assert!(json.contains("\"tiers\":{\"exact\":{\"passed\":false,\"checks\":["));
        assert!(json.contains("\"kink\":{\"passed\":true"));
        assert!(json.contains("off by \\\"lots\\\""));
        assert!(json.contains("\"z\":1.5"));
        // Balanced braces/brackets — cheap well-formedness proxy.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }
}
