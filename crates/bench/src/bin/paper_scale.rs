//! Paper scale, accounted for: runs `run_lumos` on one §VIII-A dataset
//! (`--dataset lastfm|facebook`, default `--scale paper`) for `--epochs N`
//! epochs after `--mcmc N` constructor iterations, prints seconds per phase
//! and a computed bytes-by-owner table beside the process's peak RSS, and
//! writes `BENCH_paper.json` (`--json PATH` to relocate).
//!
//! Measured on the 16 GB reference box: `--dataset lastfm --scale paper
//! --epochs 1` ≈ 1 s; `--dataset facebook --scale paper --epochs 3 --mcmc
//! 20` — the run that could not be built before the batch stopped storing
//! floats — is recorded in CHANGES.md with its peak RSS.
use lumos_bench::emit::{self, Row};
use lumos_bench::paper::{self, OwnerRow, PhaseRow};
use lumos_bench::HarnessArgs;
use lumos_common::timer::time_it;

fn main() {
    let mut dataset = "facebook".to_string();
    let (mut epochs, mut mcmc) = (3usize, 20usize);
    // This binary's own flags come off first; the shared ones go to
    // `HarnessArgs`, whose default scale it raises to `paper`.
    let mut shared = vec!["--scale".to_string(), "paper".to_string()];
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--dataset" => dataset = value("lastfm|facebook"),
            "--epochs" => {
                let v = value("a count");
                epochs = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad epoch count '{v}'")));
            }
            "--mcmc" => {
                let v = value("a count");
                mcmc = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad iteration count '{v}'")));
            }
            _ => shared.push(arg),
        }
    }
    let args = HarnessArgs::parse_from(shared);

    let (ds, generate_secs) = time_it(|| paper::dataset(&dataset, args.scale));
    let ds = ds.unwrap_or_else(|| usage(&format!("unknown dataset '{dataset}'")));
    let run = paper::measure(&ds, generate_secs, epochs, mcmc, args.seed);
    println!(
        "{dataset} at {}: {} devices x {} features, {epochs} epochs, {mcmc} MCMC iterations",
        args.scale.name(),
        run.devices,
        run.feature_dim
    );
    let (phases, owners) = (emit::records(&run.phases), emit::records(&run.owners));
    emit::table(PhaseRow::TITLE, &phases).print();
    emit::table(OwnerRow::TITLE, &owners).print();
    for (key, value) in run.summary() {
        println!("{key}: {}", value.render().trim_end());
    }

    let mut sections = vec![
        ("dataset", emit::Value::Str(dataset)),
        ("epochs", emit::Value::UInt(epochs as u64)),
        ("mcmc_iterations", emit::Value::UInt(mcmc as u64)),
    ];
    sections.extend(run.summary());
    sections.push(("phases", emit::rows(phases)));
    sections.push(("owners", emit::rows(owners)));
    let doc = emit::document("paper_scale", Some(args.scale), &args, sections);
    emit::write(&doc, &args, "BENCH_paper.json");
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: paper_scale [--dataset lastfm|facebook] [--scale smoke|small|paper] \
         [--epochs N] [--mcmc N] [--seed N] [--json PATH]"
    );
    std::process::exit(2);
}
