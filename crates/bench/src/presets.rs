//! Scale-dependent experiment presets.
//!
//! The paper trains for 300 epochs with 1,000 (Facebook) / 300 (LastFM)
//! MCMC iterations; reduced scales shrink both so the full suite runs on a
//! laptop while preserving every qualitative shape.

use lumos_core::TaskKind;
use lumos_data::{Dataset, Scale};

/// Training epochs for a task at a scale. Link prediction needs the longer
/// schedule to climb above the LDP noise floor (§VIII-B uses 300 for both).
pub fn epochs_for(scale: Scale, task: TaskKind, quick: bool) -> usize {
    if quick {
        return 20;
    }
    match (scale, task) {
        (Scale::Smoke, TaskKind::Supervised) => 60,
        (Scale::Smoke, TaskKind::Unsupervised) => 150,
        (Scale::Small, TaskKind::Supervised) => 120,
        (Scale::Small, TaskKind::Unsupervised) => 350,
        (Scale::Paper, _) => 300,
    }
}

/// MCMC iterations per dataset (the paper: 1,000 Facebook / 300 LastFM).
pub fn mcmc_iterations_for(scale: Scale, dataset: &str) -> usize {
    let paper = if dataset == "facebook" { 1000 } else { 300 };
    match scale {
        Scale::Smoke => paper / 10,
        Scale::Small => paper / 3,
        Scale::Paper => paper,
    }
}

/// The two evaluation datasets at a scale.
pub fn datasets(scale: Scale) -> Vec<Dataset> {
    vec![Dataset::facebook_like(scale), Dataset::lastfm_like(scale)]
}

/// Runs closures in parallel pairs (the harness's outermost fan-out; the
/// machine has few cores and each run is single-threaded).
#[expect(
    clippy::disallowed_methods,
    reason = "the pair is joined as `(f's result, g's result)` whatever finishes first"
)]
pub fn run_pair<A: Send, B: Send>(
    f: impl FnOnce() -> A + Send,
    g: impl FnOnce() -> B + Send,
) -> (A, B) {
    std::thread::scope(|s| {
        let ha = s.spawn(f);
        let b = g();
        (ha.join().expect("parallel task panicked"), b)
    })
}

/// Maps `f` over `items` two at a time ([`run_pair`]), in order — how a
/// sweep runs its independent `run_lumos` settings on the two cores without
/// holding more than two runs' memory at once.
pub fn map_pairs<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len());
    for pair in items.chunks(2) {
        match pair {
            [a, b] => {
                let (x, y) = run_pair(|| f(a), || f(b));
                out.extend([x, y]);
            }
            rest => out.extend(rest.iter().map(&f)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_sensibly() {
        assert!(epochs_for(Scale::Paper, TaskKind::Supervised, false) == 300);
        assert!(
            epochs_for(Scale::Small, TaskKind::Unsupervised, false)
                > epochs_for(Scale::Small, TaskKind::Supervised, false)
        );
        assert_eq!(epochs_for(Scale::Paper, TaskKind::Supervised, true), 20);
        assert_eq!(mcmc_iterations_for(Scale::Paper, "facebook"), 1000);
        assert_eq!(mcmc_iterations_for(Scale::Paper, "lastfm"), 300);
        assert!(mcmc_iterations_for(Scale::Small, "facebook") < 1000);
    }

    #[test]
    fn map_pairs_keeps_item_order_for_odd_and_even_lengths() {
        for n in 0..6u32 {
            let items: Vec<u32> = (0..n).collect();
            let doubled: Vec<u32> = items.iter().map(|x| x * 2).collect();
            assert_eq!(map_pairs(&items, |x| x * 2), doubled);
        }
    }

    #[test]
    fn run_pair_returns_both() {
        let (a, b) = run_pair(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }
}
