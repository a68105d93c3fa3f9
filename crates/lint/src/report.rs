//! Human-readable output.

use crate::rules::Finding;

/// Renders findings for humans: `path:line: [rule] message`.
pub fn to_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_ok() {
        assert_eq!(to_text(&[]), "");
        let one = Finding {
            rule: "validate-before-alloc",
            path: "a/b.rs".into(),
            line: 7,
            message: "range-check `n`".into(),
        };
        assert_eq!(
            to_text(&[one]),
            "a/b.rs:7: [validate-before-alloc] range-check `n`\n"
        );
    }
}
