//! The contract scan clippy cannot run inside `cargo test`: live code names no
//! `HashMap`/`HashSet`/`Instant::now`/`SystemTime::now` without an `#[expect(clippy::disallowed_..)]`
//! in the three lines above, no crypto / LDP `*Share*`/`*Pad*`/`*Encoded*` type derives `Debug`,
//! and one file reads the wall clock. And the `tests/clippy_gate` fixture lints with the
//! workspace's own clippy table.

const ROOTS: [&str; 5] = ["crates", "src", "examples", "benchmark/src", "vendor"];
const CLOCKS: [&str; 2] = ["Instant::now", "SystemTime::now"];
const BANNED: [&str; 4] = ["HashMap", "HashSet", CLOCKS[0], CLOCKS[1]];
/// The one file whose live code reads the wall clock: every measured second is its `Stopwatch`.
const CLOCK_FILE: &str = "crates/common/src/timer.rs";
const SECRET: [&str; 3] = ["Share", "Pad", "Encoded"];
const WAIVER: &str = "#[expect(clippy::disallowed_";
// `EncodedFeature` is a binned message, already ε-LDP-privatized wire payload; `EncodedValue`
// is a post-randomization ε-LDP symbol, safe to reveal by Theorem 1. Only raw features are secret.
const DEBUG_OK: [&str; 2] = ["EncodedFeature", "EncodedValue"];

/// Each line of the file `text` at `path` that breaks the contract, as `path:line`.
fn violations(path: &str, text: &str) -> Vec<String> {
    let secret = path.contains("crates/crypto/") || path.contains("crates/ldp/");
    let live = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
    let lines: Vec<&str> = live.map(str::trim_start).collect();
    let (mut bad, mut item) = (Vec::new(), "");
    let keyword = |w: &&str| *w == "struct" || *w == "enum";
    for (i, code) in lines.iter().enumerate().rev() {
        let mut words = code.split_whitespace().skip_while(|w| !keyword(w));
        item = words.nth(1).unwrap_or(item);
        let above = &lines[i.saturating_sub(3)..i];
        let waived = above.iter().any(|l| l.starts_with(WAIVER));
        let debug = secret && code.starts_with("#[derive(") && code.contains("Debug");
        let leak = debug && SECRET.iter().any(|s| item.contains(s)) && !DEBUG_OK.contains(&item);
        if !code.starts_with("//") && (leak || !waived && BANNED.iter().any(|b| code.contains(b))) {
            bad.push(format!("{path}:{}", i + 1));
        }
    }
    bad
}

/// Every `.rs` file under `ROOTS`, outside `tests` directories, as (path from the repo root, text).
fn sources() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut dirs, mut files): (Vec<_>, _) = (ROOTS.map(|d| root.join(d)).into(), Vec::new());
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).expect("source dir reads") {
            let path = entry.expect("dir entry reads").path();
            if path.is_dir() && !path.ends_with("tests") {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source reads");
                let rel = path.strip_prefix(root).expect("under the root");
                files.push((rel.to_string_lossy().into_owned(), text));
            }
        }
    }
    files
}

#[test]
fn live_code_keeps_the_determinism_and_secrecy_contract() {
    let bad: Vec<String> = sources()
        .iter()
        .flat_map(|(path, text)| violations(path, text))
        .collect();
    assert!(bad.is_empty(), "see clippy.toml:\n{}", bad.join("\n"));
}

#[test]
fn one_file_reads_the_wall_clock() {
    let mut readers: Vec<String> = sources()
        .into_iter()
        .filter(|(_, text)| {
            let mut live = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
            live.any(|l| !l.trim_start().starts_with("//") && CLOCKS.iter().any(|c| l.contains(c)))
        })
        .map(|(path, _)| path)
        .collect();
    readers.sort();
    assert_eq!(
        readers,
        [CLOCK_FILE],
        "wall-clock reads stay inside lumos_common::timer"
    );
}

#[test]
fn the_scan_bites() {
    let map = "fn f(m: HashMap<u8, u8>) {}";
    let clock = "#[expect(clippy::disallowed_methods, reason = \"m\")]\nfn t() -> I {\n    Instant::now()\n}";
    let leak = "#[derive(Clone, Debug)]\npub struct FooShare(u64);";
    assert_eq!(violations("a.rs", map), ["a.rs:1"]);
    assert!(violations("a.rs", clock).is_empty());
    assert_eq!(violations("crates/crypto/a", leak), ["crates/crypto/a:1"]);
}

/// The entries of the TOML table `[name]` in `manifest`: its lines up to the
/// next header, blank lines and comments left out.
fn toml_table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    let after = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1);
    let table = after.take_while(|l| !l.starts_with('['));
    table
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn the_clippy_gate_lints_with_the_workspace_table() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| std::fs::read_to_string(root.join(p)).expect("manifest reads");
    let (workspace, gate) = (read("Cargo.toml"), read("tests/clippy_gate/Cargo.toml"));
    let lints = toml_table(&workspace, "workspace.lints.clippy");
    assert!(
        !lints.is_empty(),
        "the root manifest has no [workspace.lints.clippy]"
    );
    assert_eq!(
        toml_table(&gate, "lints.clippy"),
        lints,
        "tests/clippy_gate/Cargo.toml's [lints.clippy] must copy the root [workspace.lints.clippy]"
    );
}
