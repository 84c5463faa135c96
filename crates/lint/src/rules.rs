//! The rule engine: every rule greps the *scrubbed* source (comments,
//! literals, and test regions already blanked by [`crate::lexer`]), so a
//! match is always live non-test code. Waivers suppress a finding on their
//! own line, or on the next line when the waiver comment stands alone.
//!
//! The rule set mirrors the two contracts the workspace is built on
//! (ROADMAP "Standing constraints"): same seed → bit-identical reports
//! (determinism) and secret shares never leave the MPC/LDP layers in the
//! clear (secrecy). `clippy.toml` at the workspace root carries a reduced,
//! independently-enforced copy of the same core rules — keep the two lists
//! in sync when editing either.

use crate::config::Config;
use crate::lexer::LexedFile;
use crate::report::Finding;

/// Static description of one rule, for reports and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// The registry. `malformed-waiver` is a meta-rule emitted by the waiver
/// parser; it cannot itself be waived.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "nondeterministic-collection",
        summary: "std HashMap/HashSet in non-test code: iteration order is seeded per instance and breaks same-seed bit-identity; use BTreeMap/BTreeSet",
    },
    RuleInfo {
        id: "wallclock-time",
        summary: "Instant::now/SystemTime in non-test code: wall-clock reads are nondeterministic; only waived metering code may time itself",
    },
    RuleInfo {
        id: "unseeded-rng",
        summary: "thread_rng/from_entropy/from_os_rng/OsRng: every random draw must come from the seeded workspace RNG",
    },
    RuleInfo {
        id: "secret-leak",
        summary: "print/debug macros or #[derive(Debug)] on share-bearing types inside the MPC/LDP crates: shares must never be formattable in the clear",
    },
    RuleInfo {
        id: "unordered-scope-join",
        summary: "std::thread::scope outside the audited allowlist: parallel results must be merged in deterministic index order (audit, then allowlist)",
    },
    RuleInfo {
        id: "lossy-cast",
        summary: "narrowing `as` cast in a fixed-point cost module: silent truncation corrupts the cost encoding; use try_from or waive with the bound",
    },
    RuleInfo {
        id: "malformed-waiver",
        summary: "waiver comment that names lumos-lint but is unparseable, lacks the mandatory reason, or names an unknown rule",
    },
];

/// True if `id` names a waivable rule.
pub fn is_waivable_rule(id: &str) -> bool {
    RULES
        .iter()
        .any(|r| r.id == id && r.id != "malformed-waiver")
}

const PRINT_MACROS: &[&str] = &["println!", "print!", "eprintln!", "eprint!", "dbg!"];
const RNG_NEEDLES: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];
const NARROW_TARGETS: &[&str] = &["u8", "i8", "u16", "i16", "u32", "i32", "i64", "f32"];

/// Scans one file. `rel` is the root-relative path with forward slashes.
pub fn scan_file(cfg: &Config, rel: &str, source: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let raw_lines: Vec<&str> = source.split('\n').collect();
    let lines: Vec<&str> = lexed.scrubbed.split('\n').collect();
    let test_path = is_test_path(rel);

    let mut emit = |rule: &'static str, line: usize| {
        // One finding per (rule, line); rules below may match repeatedly.
        findings.push(Finding::new(
            rule,
            rel,
            line,
            raw_lines.get(line - 1).copied().unwrap_or(""),
        ));
    };

    if !test_path {
        for (idx, l) in lines.iter().enumerate() {
            let ln = idx + 1;
            if has_ident(l, "HashMap") || has_ident(l, "HashSet") {
                emit("nondeterministic-collection", ln);
            }
            if l.contains("Instant::now") || has_ident(l, "SystemTime") {
                emit("wallclock-time", ln);
            }
            if RNG_NEEDLES.iter().any(|n| has_ident(l, n)) {
                emit("unseeded-rng", ln);
            }
            if l.contains("thread::scope") && !cfg.audited_scope_join.iter().any(|f| f == rel) {
                emit("unordered-scope-join", ln);
            }
            if cfg.lossy_cast_files.iter().any(|f| f == rel) && has_lossy_cast(l) {
                emit("lossy-cast", ln);
            }
        }

        if cfg
            .secret_crates
            .iter()
            .any(|c| rel.starts_with(c.as_str()))
        {
            for (idx, l) in lines.iter().enumerate() {
                if PRINT_MACROS.iter().any(|m| has_macro(l, m)) {
                    emit("secret-leak", idx + 1);
                }
            }
            for line in share_debug_derives(&lexed.scrubbed, &cfg.share_markers) {
                emit("secret-leak", line);
            }
        }
    }

    for m in &lexed.malformed {
        findings.push(Finding::new(
            "malformed-waiver",
            rel,
            m.line,
            &format!(
                "{} ({})",
                raw_lines.get(m.line - 1).copied().unwrap_or("").trim(),
                m.message
            ),
        ));
    }
    for w in &lexed.waivers {
        for r in &w.rules {
            if !is_waivable_rule(r) {
                findings.push(Finding::new(
                    "malformed-waiver",
                    rel,
                    w.line,
                    &format!("unknown rule `{r}` in waiver"),
                ));
            }
        }
    }

    apply_waivers(&mut findings, lexed);
    findings
}

/// A path is test scope when it lives under a `tests/` or `benches/` dir.
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

/// Marks findings covered by a waiver on the same line, or by a
/// comment-only waiver on the line directly above.
fn apply_waivers(findings: &mut [Finding], lexed: &LexedFile) {
    for f in findings.iter_mut() {
        if f.rule == "malformed-waiver" {
            continue;
        }
        for w in &lexed.waivers {
            let covers_line = w.line == f.line || (w.comment_only && w.line + 1 == f.line);
            if covers_line && w.rules.contains(&f.rule) {
                f.waived = true;
                f.reason = Some(w.reason.clone());
            }
        }
    }
}

/// Identifier-boundary substring search.
fn has_ident(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Macro-call search: the needle includes the `!`; the left side must be an
/// identifier boundary so `eprintln!` does not match as `println!`.
fn has_macro(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        if start == 0 || !is_ident_byte(bytes[start - 1]) {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `x as u32`-style narrowing, plus the float→int `.round() as` pattern.
fn has_lossy_cast(line: &str) -> bool {
    if line.contains(".round() as") {
        return true;
    }
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("as") {
        let start = from + pos;
        let end = start + 2;
        from = start + 1;
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if !(left_ok && right_ok) {
            continue;
        }
        let rest = line[end..].trim_start();
        let target: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if NARROW_TARGETS.contains(&target.as_str()) {
            return true;
        }
    }
    false
}

/// Lines carrying `#[derive(.. Debug ..)]` whose gated type's name contains
/// a share marker (`Share`, `Pad`, `Encoded` by default).
fn share_debug_derives(scrubbed: &str, markers: &[String]) -> Vec<usize> {
    let chars: Vec<char> = scrubbed.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !ident_at(&chars, i, "derive") {
            i += 1;
            continue;
        }
        let derive_line = line_of(&chars, i);
        let mut j = i + "derive".len();
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) != Some(&'(') {
            i = j;
            continue;
        }
        let mut depth = 0i32;
        let list_start = j;
        while j < chars.len() {
            match chars[j] {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let list: String = chars[list_start..j.min(chars.len())].iter().collect();
        i = j;
        if !list
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|t| t == "Debug")
        {
            continue;
        }
        // Scan ahead for the gated `struct`/`enum` name (skipping further
        // attributes and visibility tokens).
        let mut k = j;
        let limit = (k + 400).min(chars.len());
        while k < limit {
            if ident_at(&chars, k, "struct") || ident_at(&chars, k, "enum") {
                let skip = if ident_at(&chars, k, "struct") { 6 } else { 4 };
                let mut n = k + skip;
                while n < chars.len() && chars[n].is_whitespace() {
                    n += 1;
                }
                let name: String = chars[n..]
                    .iter()
                    .take_while(|c| c.is_alphanumeric() || **c == '_')
                    .collect();
                if markers.iter().any(|m| name.contains(m.as_str())) {
                    out.push(derive_line);
                }
                break;
            }
            k += 1;
        }
    }
    out
}

fn ident_at(chars: &[char], i: usize, needle: &str) -> bool {
    let n: Vec<char> = needle.chars().collect();
    if i + n.len() > chars.len() || chars[i..i + n.len()] != n[..] {
        return false;
    }
    let left_ok = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    let right = i + n.len();
    let right_ok = right >= chars.len() || !(chars[right].is_alphanumeric() || chars[right] == '_');
    left_ok && right_ok
}

fn line_of(chars: &[char], pos: usize) -> usize {
    1 + chars[..pos].iter().filter(|&&c| c == '\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(rel: &str, src: &str) -> Vec<Finding> {
        let cfg = Config::for_root(std::path::PathBuf::new());
        scan_file(&cfg, rel, src, &lex(src))
    }

    #[test]
    fn hashmap_in_live_code_fires() {
        let f = scan("crates/app/src/a.rs", "use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "nondeterministic-collection");
        assert!(!f[0].waived);
    }

    #[test]
    fn hashmap_in_tests_dir_or_cfg_test_is_silent() {
        assert!(scan("crates/app/tests/a.rs", "use std::collections::HashMap;\n").is_empty());
        assert!(scan(
            "crates/app/src/a.rs",
            "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn same_line_waiver_suppresses_with_reason() {
        let f = scan(
            "crates/app/src/a.rs",
            "let t = Instant::now(); // lumos-lint: allow(wallclock-time) — metering\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
        assert_eq!(f[0].reason.as_deref(), Some("metering"));
    }

    #[test]
    fn standalone_waiver_covers_next_line_only() {
        let src = "// lumos-lint: allow(unseeded-rng) — fixture\nlet r = thread_rng();\nlet s = thread_rng();\n";
        let f = scan("crates/app/src/a.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].waived);
        assert!(!f[1].waived);
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let f = scan(
            "crates/app/src/a.rs",
            "let t = Instant::now(); // lumos-lint: allow(lossy-cast) — wrong rule\n",
        );
        assert_eq!(f.len(), 1);
        assert!(!f[0].waived);
    }

    #[test]
    fn unknown_rule_in_waiver_is_malformed() {
        let f = scan(
            "crates/app/src/a.rs",
            "x(); // lumos-lint: allow(no-such-rule) — whatever\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "malformed-waiver");
    }

    #[test]
    fn secret_leak_scoped_to_secret_crates() {
        let src = "pub fn f(x: u64) { println!(\"{x}\"); }\n";
        assert_eq!(scan("crates/crypto/src/a.rs", src).len(), 1);
        assert_eq!(scan("crates/ldp/src/a.rs", src).len(), 1);
        assert!(scan("crates/bench/src/a.rs", src).is_empty());
    }

    #[test]
    fn debug_derive_on_share_type_fires_and_plain_type_does_not() {
        let share = "#[derive(Debug, Clone)]\npub struct KeyShare { a: u64 }\n";
        let f = scan("crates/crypto/src/a.rs", share);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "secret-leak");
        assert_eq!(f[0].line, 1);
        let plain = "#[derive(Debug, Clone)]\npub struct Meter { a: u64 }\n";
        assert!(scan("crates/crypto/src/a.rs", plain).is_empty());
        // Debug on a share type outside the secret crates is fine.
        assert!(scan("crates/core/src/a.rs", share).is_empty());
    }

    #[test]
    fn scope_join_respects_audited_allowlist() {
        let src = "pub fn f() { std::thread::scope(|s| {}); }\n";
        assert_eq!(scan("crates/app/src/par.rs", src).len(), 1);
        assert!(scan("crates/crypto/src/slice.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_only_in_scoped_files_and_only_narrowing() {
        let narrowing = "let x = n as u32;\n";
        let widening = "let x = n as u64; let y = n as usize; let z = n as f64;\n";
        assert_eq!(scan("crates/balance/src/problem.rs", narrowing).len(), 1);
        assert!(scan("crates/balance/src/problem.rs", widening).is_empty());
        assert!(scan("crates/app/src/a.rs", narrowing).is_empty());
        let round = "let µs = (secs * 1e6).round() as u64;\n";
        assert_eq!(scan("crates/sim/src/profile.rs", round).len(), 1);
    }

    #[test]
    fn needles_in_strings_and_comments_never_fire() {
        let src = "let s = \"HashMap Instant::now thread_rng\"; // HashSet dbg!\n";
        assert!(scan("crates/crypto/src/a.rs", src).is_empty());
    }

    #[test]
    fn one_finding_per_rule_per_line() {
        let f = scan(
            "crates/app/src/a.rs",
            "use std::collections::{HashMap, HashSet};\n",
        );
        assert_eq!(f.len(), 1);
    }
}
