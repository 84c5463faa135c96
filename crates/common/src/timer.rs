//! Wall-clock timing for the system-cost experiments (Figure 8b).

use std::time::{Duration, Instant};

/// A restartable stopwatch accumulating elapsed wall-clock time.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    started: Option<Instant>,
    accumulated: Duration,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// Creates a stopped stopwatch with zero accumulated time.
    pub fn new() -> Self {
        Self {
            started: None,
            accumulated: Duration::ZERO,
        }
    }

    /// Creates and immediately starts a stopwatch.
    pub fn started() -> Self {
        let mut sw = Self::new();
        sw.start();
        sw
    }

    /// Starts (or restarts) timing; a no-op if already running.
    #[allow(clippy::disallowed_methods)] // mirrored lumos-lint waiver below
    pub fn start(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now()); // lumos-lint: allow(wallclock-time) — this module IS the audited wall-clock meter (Fig. 8b); results feed `RunFootprint` and the bench tables only, never seeded state
        }
    }

    /// Stops timing and folds the elapsed span into the accumulator.
    pub fn stop(&mut self) {
        if let Some(t0) = self.started.take() {
            self.accumulated += t0.elapsed();
        }
    }

    /// Total accumulated time (including the in-flight span if running).
    pub fn elapsed(&self) -> Duration {
        match self.started {
            Some(t0) => self.accumulated + t0.elapsed(),
            None => self.accumulated,
        }
    }

    /// Accumulated time in fractional seconds.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Resets to zero and stops.
    pub fn reset(&mut self) {
        self.started = None;
        self.accumulated = Duration::ZERO;
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
        self.clock.reset();
        self.clock.start();
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
#[allow(clippy::disallowed_methods)] // mirrored lumos-lint waiver below
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now(); // lumos-lint: allow(wallclock-time) — audited metering helper; measured spans are reported, never fed back into simulation state
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_accumulates_across_spans() {
        let mut sw = Stopwatch::new();
        sw.start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop();
        let first = sw.secs();
        assert!(first >= 0.004, "first span {first}");
        sw.start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop();
        assert!(sw.secs() > first, "time must accumulate");
    }

    #[test]
    fn reset_zeroes() {
        let mut sw = Stopwatch::started();
        std::thread::sleep(Duration::from_millis(2));
        sw.reset();
        assert_eq!(sw.elapsed(), Duration::ZERO);
    }

    #[test]
    fn laps_credit_consecutive_stretches_and_accumulate_by_name() {
        let mut laps = Laps::started();
        std::thread::sleep(Duration::from_millis(3));
        laps.lap("a");
        laps.lap("b");
        std::thread::sleep(Duration::from_millis(3));
        laps.lap("a");
        let phases = laps.into_phases();
        assert_eq!(phases.len(), 2);
        assert_eq!((phases[0].0, phases[1].0), ("a", "b"));
        assert!(phases[0].1 >= 0.005, "two stretches of a: {}", phases[0].1);
        assert!(phases[1].1 < phases[0].1);
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

    #[test]
    fn double_start_is_noop() {
        let mut sw = Stopwatch::new();
        sw.start();
        sw.start();
        std::thread::sleep(Duration::from_millis(2));
        sw.stop();
        assert!(sw.secs() > 0.0);
    }
}
