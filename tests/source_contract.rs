//! The contract scan clippy cannot run inside `cargo test`: live code names no
//! `HashMap`/`HashSet`/`Instant::now`/`SystemTime::now` without an `#[expect(clippy::disallowed_..)]`
//! in the three lines above, and no crypto / LDP `*Share*`/`*Pad*`/`*Encoded*` type derives `Debug`.

const ROOTS: [&str; 4] = ["crates", "src", "examples", "benchmark/src"];
const BANNED: [&str; 4] = ["HashMap", "HashSet", "Instant::now", "SystemTime::now"];
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

#[test]
fn live_code_keeps_the_determinism_and_secrecy_contract() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut dirs, mut bad): (Vec<_>, _) = (ROOTS.map(|d| root.join(d)).into(), Vec::new());
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).expect("source dir reads") {
            let path = entry.expect("dir entry reads").path();
            if path.is_dir() && !path.ends_with("tests") && !path.ends_with("benches") {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("source reads");
                bad.extend(violations(&path.to_string_lossy(), &text));
            }
        }
    }
    assert!(bad.is_empty(), "see clippy.toml:\n{}", bad.join("\n"));
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
