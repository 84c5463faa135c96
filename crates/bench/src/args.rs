//! Command-line arguments shared by every experiment binary.

use lumos_data::Scale;

/// Parsed harness arguments.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Experiment scale. `Paper` runs on both datasets (Facebook: 13–16 s
    /// per epoch and a 984 MiB peak on a 2-vCPU box, measured by the
    /// `paper_scale` binary).
    pub scale: Scale,
    /// Base seed.
    pub seed: u64,
    /// Quick mode: fewer epochs (for CI-style smoke runs).
    pub quick: bool,
    /// Where to write the machine-readable result record, for binaries
    /// that emit one (`fig8_hetero` → `BENCH_fig8.json` by default).
    pub json: Option<String>,
    /// Also run the buffered-policy sensitivity grid (`fig8_hetero`:
    /// decay × re-balance trigger, accuracy × makespan per cell).
    pub sensitivity: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 2023,
            quick: false,
            json: None,
            sensitivity: false,
        }
    }
}

impl HarnessArgs {
    /// Parses `--scale smoke|small|paper`, `--seed N`, `--quick` from the
    /// process arguments. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_else(|| usage("--scale needs a value"));
                    out.scale =
                        Scale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale '{v}'")));
                }
                "--seed" => {
                    let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                    out.seed = v
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed '{v}'")));
                }
                "--quick" => out.quick = true,
                "--sensitivity" => out.sensitivity = true,
                "--json" => {
                    let v = it.next().unwrap_or_else(|| usage("--json needs a path"));
                    if v.starts_with("--") {
                        usage(&format!("--json needs a path, got flag '{v}'"));
                    }
                    out.json = Some(v);
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        out
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <experiment> [--scale smoke|small|paper] [--seed N] [--quick] [--json PATH] \
         [--sensitivity]\n  \
         --scale paper is the paper's sizes: LastFM 7,624 x 128 (0.3 s per epoch, 115 MiB peak), \
         Facebook 22,470 x 4,714 (13-16 s per epoch, 984 MiB peak) — see the `paper_scale` binary"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_flags() {
        let d = HarnessArgs::parse_from(Vec::<String>::new());
        assert_eq!(d.scale, Scale::Small);
        assert!(!d.quick);
        assert_eq!(d.json, None);
        assert!(!d.sensitivity);
        let p = HarnessArgs::parse_from(
            [
                "--scale",
                "smoke",
                "--seed",
                "7",
                "--quick",
                "--json",
                "out.json",
                "--sensitivity",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(p.scale, Scale::Smoke);
        assert_eq!(p.seed, 7);
        assert!(p.quick);
        assert_eq!(p.json.as_deref(), Some("out.json"));
        assert!(p.sensitivity);
    }
}
