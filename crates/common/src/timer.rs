//! Wall-clock timing for the system-cost experiments (Figure 8b).

use std::time::Instant;

/// A running wall clock: [`Stopwatch::secs`] reads the time since
/// [`Stopwatch::started`].
#[derive(Debug, Clone)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a clock.
    #[allow(clippy::disallowed_methods)] // mirrored lumos-lint waiver below
    pub fn started() -> Self {
        Self {
            started: Instant::now(), // lumos-lint: allow(wallclock-time) — this module IS the audited wall-clock meter (Fig. 8b); results feed `RunFootprint` and the bench tables only, never seeded state
        }
    }

    /// Seconds since the clock started.
    pub fn secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Splits one stretch of wall time into named phases: each [`Laps::lap`]
/// credits the time since the previous one to a phase, and a phase entered
/// again accumulates.
#[derive(Debug, Clone)]
pub struct Laps {
    clock: Stopwatch,
    phases: Vec<(&'static str, f64)>,
}

impl Laps {
    /// Starts the clock with no phase credited yet.
    pub fn started() -> Self {
        Self {
            clock: Stopwatch::started(),
            phases: Vec::new(),
        }
    }

    /// Credits the time since the last lap (or the start) to `phase`.
    pub fn lap(&mut self, phase: &'static str) {
        let secs = self.clock.secs();
        self.clock = Stopwatch::started();
        match self.phases.iter_mut().find(|(name, _)| *name == phase) {
            Some((_, total)) => *total += secs,
            None => self.phases.push((phase, secs)),
        }
    }

    /// Seconds per phase, in first-entered order.
    pub fn into_phases(self) -> Vec<(&'static str, f64)> {
        self.phases
    }
}

/// Times a closure, returning its result and the elapsed seconds.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Stopwatch::started();
    let out = f();
    (out, clock.secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stopwatch_reads_the_time_since_it_started() {
        let sw = Stopwatch::started();
        std::thread::sleep(Duration::from_millis(5));
        let first = sw.secs();
        assert!(first >= 0.004, "first read {first}");
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.secs() > first, "a running clock keeps counting");
    }

    #[test]
    fn laps_credit_consecutive_stretches_and_accumulate_by_name() {
        let whole = Stopwatch::started();
        let mut laps = Laps::started();
        std::thread::sleep(Duration::from_millis(3));
        laps.lap("a");
        laps.lap("b");
        std::thread::sleep(Duration::from_millis(3));
        laps.lap("a");
        let phases = laps.into_phases();
        let elapsed = whole.secs();
        assert_eq!(phases.len(), 2);
        assert_eq!((phases[0].0, phases[1].0), ("a", "b"));
        assert!(phases[0].1 >= 0.005, "two stretches of a: {}", phases[0].1);
        assert!(phases[1].1 < phases[0].1);
        // Each lap restarts the clock, so no stretch is credited twice.
        let credited: f64 = phases.iter().map(|(_, secs)| secs).sum();
        assert!(credited <= elapsed, "{credited} s credited in {elapsed} s");
    }

    #[test]
    fn time_it_returns_value_and_duration() {
        let (v, secs) = time_it(|| {
            std::thread::sleep(Duration::from_millis(3));
            42
        });
        assert_eq!(v, 42);
        assert!(secs >= 0.002);
    }
}
