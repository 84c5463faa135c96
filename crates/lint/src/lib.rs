//! **lumos-lint** — offline source-level enforcement of the workspace's
//! determinism & secrecy contracts.
//!
//! The whole reproduction rests on two invariants that used to be enforced
//! only dynamically: same seed ⇒ bit-identical reports (golden RNG vectors,
//! `tests/determinism.rs`), and secret shares never leave the MPC/LDP
//! layers in the clear. A stray `HashMap` iteration, an unseeded RNG, or a
//! `Debug`-printed share compiles clean and fails — or silently doesn't —
//! only at test time. This crate turns those contracts into machine-checked
//! source rules: a small lexer ([`lexer`]) blanks comments, literals, and
//! test regions; a rule engine ([`rules`]) greps what remains; per-line
//! waivers (`// lumos-lint: allow(<rule>) — <reason>`, reason mandatory)
//! record every audited exception in place.
//!
//! Three enforcement surfaces share this library: the `lumos-lint` CLI
//! (`cargo run -p lumos-lint -- --format json` → `LINT_report.json`, exit 1
//! on any unwaived finding), the workspace test
//! (`crates/lint/tests/workspace_clean.rs`), and the CI `lint` job.
//! `clippy.toml` at the workspace root mirrors the core rules as a second,
//! independent layer.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use config::Config;
pub use report::{Finding, Report};

use std::path::Path;

/// Lints every workspace source file under `cfg.root`.
pub fn lint_workspace(cfg: &Config) -> Report {
    let files = walk::rust_files(&cfg.root);
    let mut report = Report::default();
    for rel in files {
        let Ok(source) = std::fs::read_to_string(cfg.root.join(&rel)) else {
            continue;
        };
        report.files_scanned += 1;
        let lexed = lexer::lex(&source);
        report
            .findings
            .extend(rules::scan_file(cfg, &rel, &source, &lexed));
    }
    report.finish();
    report
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — how the CLI finds the root when invoked from a
/// crate subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
