//! Query admission control.
//!
//! Vertica plans concurrency around its resource pools; when Distributed R
//! opens 120–288 simultaneous ODBC connections each issuing its own range
//! query, queries queue ("multiple simultaneous SQL queries can overwhelm
//! the database", Section 1.1). This module provides both the real gate (a
//! counting semaphore used during execution) and the analytic helper the
//! cost ledger uses to turn a burst of N queries into queuing waves.

use parking_lot::{Condvar, Mutex};

/// A counting semaphore bounding concurrently executing queries.
pub struct AdmissionController {
    max_concurrent: usize,
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Default)]
struct State {
    active: usize,
    /// High-water mark, for tests and diagnostics.
    peak: usize,
    /// Total queries ever admitted.
    admitted: u64,
}

impl AdmissionController {
    pub fn new(max_concurrent: usize) -> Self {
        assert!(max_concurrent > 0, "admission limit must be positive");
        AdmissionController {
            max_concurrent,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }
    }

    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// Block until a slot is free, then hold it for the guard's lifetime.
    pub fn admit(&self) -> AdmissionGuard<'_> {
        let mut state = self.state.lock();
        if state.active >= self.max_concurrent {
            // The queue moment is the observable admission decision: record
            // how long this query waited for a slot.
            vdr_obs::event(
                "admission.queued",
                format!("active={} limit={}", state.active, self.max_concurrent),
            );
            let waited = std::time::Instant::now();
            while state.active >= self.max_concurrent {
                self.cv.wait(&mut state);
            }
            let wait_ms = waited.elapsed().as_nanos() as f64 / 1e6;
            vdr_obs::event("admission.admitted", format!("waited_ms={wait_ms:.2}"));
        }
        state.active += 1;
        state.peak = state.peak.max(state.active);
        state.admitted += 1;
        AdmissionGuard { ctrl: self }
    }

    /// Number of serial waves a burst of `n` simultaneous queries executes
    /// in: `ceil(n / max_concurrent)`. The ODBC transfer model multiplies a
    /// single query's duration by this.
    pub fn waves(&self, n: usize) -> usize {
        n.div_ceil(self.max_concurrent)
    }

    /// Highest concurrency observed so far.
    pub fn peak(&self) -> usize {
        self.state.lock().peak
    }

    /// Total queries admitted so far.
    pub fn admitted(&self) -> u64 {
        self.state.lock().admitted
    }
}

/// RAII slot holder.
pub struct AdmissionGuard<'a> {
    ctrl: &'a AdmissionController,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.ctrl.state.lock();
        state.active -= 1;
        drop(state);
        self.ctrl.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn waves_math() {
        let a = AdmissionController::new(24);
        assert_eq!(a.waves(0), 0);
        assert_eq!(a.waves(1), 1);
        assert_eq!(a.waves(24), 1);
        assert_eq!(a.waves(25), 2);
        assert_eq!(a.waves(120), 5);
        assert_eq!(a.waves(288), 12);
    }

    #[test]
    fn concurrency_is_bounded() {
        let ctrl = Arc::new(AdmissionController::new(3));
        std::thread::scope(|s| {
            for _ in 0..10 {
                let ctrl = Arc::clone(&ctrl);
                s.spawn(move || {
                    let _guard = ctrl.admit();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                });
            }
        });
        assert!(ctrl.peak() <= 3, "peak {} exceeded limit", ctrl.peak());
        assert_eq!(ctrl.admitted(), 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        AdmissionController::new(0);
    }
}
