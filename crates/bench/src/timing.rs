//! Host-side wall-clock access for the experiment harness — the one
//! module `nmpic-lint` rule L6 lets read the host clock.

use std::time::{Duration, Instant};

/// A started wall-clock timer — the sanctioned way for bench code outside
/// this module to read host time. Simulated results must never depend on
/// the host clock (`nmpic-lint` rule L6), so every wall-clock read is
/// funneled through here, where it is auditable and clearly labeled as a
/// *host-side* measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the watch.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Wall time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Wall time since [`Stopwatch::start`] in milliseconds, floored at a
    /// small epsilon so downstream rate divisions stay finite.
    pub fn elapsed_ms(&self) -> f64 {
        (self.elapsed().as_secs_f64() * 1e3).max(1e-6)
    }
}

/// A wall-clock [`nmpic_system::Clock`] for service latency accounting:
/// nanoseconds since construction. Library code is forbidden from
/// reading the host clock (`nmpic-lint` rule L6), so `SpmvService`
/// defaults to a deterministic logical clock; benchmarks measuring real
/// tail latency inject this instead via
/// `SpmvService::builder(engine).clock(Arc::new(WallClock::new()))`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose epoch (reading 0) is now.
    pub fn new() -> Self {
        WallClock(Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl nmpic_system::Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // 2^64 ns ≈ 584 years since construction: the cast cannot
        // truncate in practice.
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances_and_floors_ms() {
        let w = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(w.elapsed() >= Duration::from_millis(2));
        assert!(w.elapsed_ms() >= 2.0);
        // The epsilon floor keeps rates finite even for ~0 elapsed reads.
        assert!(Stopwatch::start().elapsed_ms() > 0.0);
    }

    #[test]
    fn wall_clock_is_monotone_and_advances() {
        use nmpic_system::Clock;
        let c = WallClock::new();
        let a = c.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now_ns();
        assert!(b > a, "the clock must advance across a sleep");
        assert!(b >= 2_000_000, "at least the slept 2 ms in ns");
    }
}
