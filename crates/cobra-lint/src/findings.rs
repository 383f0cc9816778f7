//! Finding representation, human rendering, and the machine-readable
//! JSON report.

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule name (one of [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human explanation of this specific violation.
    pub message: String,
}

impl Finding {
    /// `path:line:col: [rule] message` — the grep-able diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// The result of linting one file or a whole tree: surviving findings
/// plus the suppressed ones (reported in JSON so suppression debt stays
/// visible).
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings that survived suppression — these fail `--deny`.
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid `lint:allow`, with their reasons.
    pub suppressed: Vec<(Finding, String)>,
    /// Number of files linted.
    pub files: usize,
}

impl Report {
    /// Merge another report (for aggregating per-file results).
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.suppressed.extend(other.suppressed);
        self.files += other.files;
    }

    /// Stable output order: path, then line, then rule.
    pub fn sort(&mut self) {
        let key = |f: &Finding| (f.path.clone(), f.line, f.col, f.rule);
        self.findings.sort_by_key(key);
        self.suppressed.sort_by_key(|(f, _)| key(f));
    }

    /// The machine-readable report (`cobra-lint/findings-v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"cobra-lint/findings-v1\",\n");
        s.push_str(&format!("  \"files_linted\": {},\n", self.files));
        s.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        s.push_str(&format!(
            "  \"suppressed_count\": {},\n",
            self.suppressed.len()
        ));
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&render_json_finding(f, None));
            s.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"suppressed\": [\n");
        for (i, (f, reason)) in self.suppressed.iter().enumerate() {
            s.push_str(&render_json_finding(f, Some(reason)));
            s.push_str(if i + 1 < self.suppressed.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn render_json_finding(f: &Finding, reason: Option<&str>) -> String {
    let mut s = format!(
        "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"",
        escape(f.rule),
        escape(&f.path),
        f.line,
        f.col,
        escape(&f.message)
    );
    if let Some(r) = reason {
        s.push_str(&format!(", \"reason\": \"{}\"", escape(r)));
    }
    s.push('}');
    s
}

/// Minimal JSON string escaping (the linter is dependency-free, so this
/// mirrors cobra-obs's `escape_json` rather than importing it).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, path: &str, line: u32) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col: 1,
            message: "msg with \"quotes\"".to_string(),
        }
    }

    #[test]
    fn render_is_grepable() {
        assert_eq!(
            f("float-eq", "a/b.rs", 3).render(),
            "a/b.rs:3:1: [float-eq] msg with \"quotes\""
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report {
            findings: vec![f("float-eq", "a.rs", 1)],
            suppressed: vec![(f("no-unwrap-in-lib", "b.rs", 2), "why".to_string())],
            files: 2,
        };
        r.sort();
        let j = r.to_json();
        assert!(j.contains("\"finding_count\": 1"));
        assert!(j.contains("\"suppressed_count\": 1"));
        assert!(j.contains("msg with \\\"quotes\\\""));
        assert!(j.contains("\"reason\": \"why\""));
    }

    #[test]
    fn sort_orders_by_path_then_line() {
        let mut r = Report {
            findings: vec![f("float-eq", "b.rs", 1), f("float-eq", "a.rs", 9)],
            suppressed: vec![],
            files: 2,
        };
        r.sort();
        assert_eq!(r.findings[0].path, "a.rs");
    }
}
