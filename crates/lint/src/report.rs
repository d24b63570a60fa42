//! Findings and the machine-readable report.

use std::fmt;

/// The rules `mirage-lint` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Rule 1: no floating point inside `region(int_kernel)` regions.
    FloatInKernel,
    /// Rule 2: no allocating calls inside `no_alloc` functions.
    AllocInNoAlloc,
    /// Rule 3: no panicking calls in the serving modules.
    PanicInServing,
    /// Rule 4: crate roots carry the standard forbid/deny block.
    CrateHygiene,
    /// Rule 5: `unsafe` appears only in the allowlisted SIMD kernel
    /// modules, and every unsafe line there carries a `SAFETY:` comment.
    UnsafeConfined,
    /// Malformed or unpaired `mirage-lint:` directives.
    Directive,
}

impl Rule {
    /// The stable rule identifier used in reports and waiver keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::FloatInKernel => "float-in-kernel",
            Rule::AllocInNoAlloc => "alloc-in-no-alloc",
            Rule::PanicInServing => "panic-in-serving",
            Rule::CrateHygiene => "crate-hygiene",
            Rule::UnsafeConfined => "unsafe-confined",
            Rule::Directive => "directive",
        }
    }

    /// The `allow(...)` waiver key that silences this rule, if any.
    pub fn waiver_key(self) -> Option<&'static str> {
        match self {
            Rule::FloatInKernel => Some("float_ok"),
            Rule::AllocInNoAlloc => Some("alloc_ok"),
            Rule::PanicInServing => Some("panic_ok"),
            Rule::CrateHygiene => Some("hygiene_ok"),
            Rule::UnsafeConfined => Some("unsafe_ok"),
            Rule::Directive => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token (or item).
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// Whether an `allow(...)` waiver with a reason covers the finding.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub reason: Option<String>,
}

impl Finding {
    /// Creates an active (unwaived) finding.
    pub fn new(file: &str, line: u32, rule: Rule, message: impl Into<String>) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: message.into(),
            waived: false,
            reason: None,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.waived { " (waived)" } else { "" };
        write!(
            f,
            "{}:{}: [{}]{} {}",
            self.file, self.line, self.rule, status, self.message
        )?;
        if let Some(reason) = &self.reason {
            write!(f, " — waiver: {reason}")?;
        }
        Ok(())
    }
}

/// A full lint run over a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Workspace root the run was anchored at.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, waived ones included.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings that are not waived — these fail the build.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Number of active (build-failing) findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Number of waived findings.
    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived).count()
    }

    /// Active findings for one rule (test convenience).
    pub fn active_for(&self, rule: Rule) -> Vec<&Finding> {
        self.active().filter(|f| f.rule == rule).collect()
    }

    /// Serializes the report as JSON (hand-rolled; the workspace has no
    /// serde and takes no new dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"root\": {},\n", json_str(&self.root)));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"summary\": {{\"total\": {}, \"active\": {}, \"waived\": {}}},\n",
            self.findings.len(),
            self.active_count(),
            self.waived_count()
        ));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"rule\": {}, ", json_str(f.rule.as_str())));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            out.push_str(&format!("\"waived\": {}, ", f.waived));
            match &f.reason {
                Some(r) => out.push_str(&format!("\"reason\": {}", json_str(r))),
                None => out.push_str("\"reason\": null"),
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string for JSON.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let mut report = Report {
            root: "/tmp/x".into(),
            files_scanned: 2,
            findings: vec![Finding::new("a.rs", 3, Rule::FloatInKernel, "bad \"f64\"")],
        };
        report.findings.push(Finding {
            waived: true,
            reason: Some("ok".into()),
            ..Finding::new("b.rs", 1, Rule::PanicInServing, "unwrap")
        });
        let json = report.to_json();
        assert!(json.contains("\\\"f64\\\""));
        assert!(json.contains("\"active\": 1"));
        assert!(json.contains("\"waived\": 1}"));
        assert_eq!(report.active_count(), 1);
        assert_eq!(report.active_for(Rule::FloatInKernel).len(), 1);
    }
}
