//! Monotonic timing.
//!
//! The paper's protocol times ping-pong iterations in microseconds. This
//! module wraps the host monotonic clock behind the PAL so the layers above
//! never touch `std::time` directly (the SSCLI PAL similarly virtualises
//! `QueryPerformanceCounter`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of monotonic ticks.
///
/// Production code reads the host monotonic clock; deterministic simulation
/// reads a [`VirtualClock`] whose time only advances when the
/// scheduler says so. A "tick" is deliberately unitless — the simulation
/// harness decides what one tick means (it uses them as scheduler steps and
/// reports them as nanoseconds when building flight records).
pub trait TickSource: Send + Sync {
    /// Current tick count. Must be monotonic per source.
    fn now_ticks(&self) -> u64;
}

/// A manually-advanced clock for deterministic simulation.
///
/// Time stands still until [`advance`](VirtualClock::advance) is called, so
/// two runs with the same seed observe the exact same timestamps.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: AtomicU64,
}

impl VirtualClock {
    /// A fresh clock at tick zero, shareable across ranks.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock::default())
    }

    /// Advance virtual time by `n` ticks, returning the new time.
    pub fn advance(&self, n: u64) -> u64 {
        self.ticks.fetch_add(n, Ordering::AcqRel) + n
    }
}

impl TickSource for VirtualClock {
    fn now_ticks(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }
}

/// A monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start a new stopwatch at the current instant.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional microseconds (nanosecond resolution).
    pub fn elapsed_micros_f64(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn micros_f64_tracks_micros() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(1));
        let f = sw.elapsed_micros_f64();
        assert!(f >= 1000.0);
    }

    #[test]
    fn virtual_clock_only_moves_on_advance() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ticks(), 0);
        assert_eq!(c.now_ticks(), 0);
        assert_eq!(c.advance(3), 3);
        assert_eq!(c.now_ticks(), 3);
        c.advance(7);
        assert_eq!(c.now_ticks(), 10);
    }
}
