//! Wall-clock timing helpers for per-stage breakdowns.

use std::time::{Duration, Instant};

/// A simple start/elapsed stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts a new timer.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Restarts the timer and returns the elapsed time of the lap that just
    /// ended.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.start;
        self.start = now;
        lap
    }
}

impl Default for Timer {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let t = Timer::start();
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn lap_resets_the_clock() {
        let mut t = Timer::start();
        std::thread::sleep(Duration::from_millis(2));
        let lap = t.lap();
        assert!(lap >= Duration::from_millis(2));
        // The next elapsed reading starts from ~zero again.
        assert!(t.elapsed() < lap + Duration::from_millis(50));
    }
}
