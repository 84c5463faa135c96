//! Rule scoping configuration. The defaults encode the workspace's audited
//! state; fixture tests override individual fields.

use std::path::PathBuf;

/// Scoping knobs for the rule engine. All paths are root-relative with
/// forward slashes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root the walker starts from.
    pub root: PathBuf,
    /// Crates whose non-test code holds secret shares: print macros and
    /// `Debug` derives on share-bearing types are findings here.
    pub secret_crates: Vec<String>,
    /// Substrings that mark a type as share-bearing.
    pub share_markers: Vec<String>,
    /// Files audited for deterministic index-order joins: `thread::scope`
    /// is allowed here and a finding everywhere else. Audit evidence:
    /// `crates/crypto/src/slice.rs` folds per-word results back by word
    /// index; `crates/bench/src/presets.rs` joins per-device partitions in
    /// device order.
    pub audited_scope_join: Vec<String>,
    /// The fixed-point cost modules where a narrowing `as` cast corrupts
    /// the µs encoding.
    pub lossy_cast_files: Vec<String>,
}

impl Config {
    /// The workspace rule scoping, rooted at `root`.
    pub fn for_root(root: PathBuf) -> Self {
        Self {
            root,
            secret_crates: vec!["crates/crypto/".into(), "crates/ldp/".into()],
            share_markers: vec!["Share".into(), "Pad".into(), "Encoded".into()],
            audited_scope_join: vec![
                "crates/crypto/src/slice.rs".into(),
                "crates/bench/src/presets.rs".into(),
            ],
            lossy_cast_files: vec![
                "crates/balance/src/problem.rs".into(),
                "crates/balance/src/mcmc.rs".into(),
                "crates/balance/src/maxfind.rs".into(),
                "crates/fed/src/runtime.rs".into(),
                "crates/sim/src/profile.rs".into(),
                // PR 10: retry/backoff delays are fixed-point µs end to
                // end; a narrowing cast here would corrupt the recovery
                // schedule's determinism contract.
                "crates/sim/src/fault.rs".into(),
            ],
        }
    }
}
