//! The open-loop pacer: batch `i` is due at `start + i / rate`, whether
//! or not the system kept up with batch `i − 1`.
//!
//! The pacer sleeps until a batch is due instead of spinning, so it does
//! not hold a core the async hub's workers need. Lateness is counted from
//! the due time, so a stall shows in every batch queued behind it.

use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `prctl` option that sets the calling thread's timer slack.
const PR_SET_TIMERSLACK: i32 = 29;

/// Lets the calling thread's sleeps end within a nanosecond of their
/// deadline instead of Linux's default 50 µs slack, which would
/// otherwise be most of a paced batch's latency on a fast workload.
/// Returns whether the kernel accepted it.
pub fn tighten_timer_slack() -> bool {
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
    // touches no memory of the caller.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) == 0 }
}

/// Issues batch due times at a fixed rate.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    interval_ns: f64,
    next: u64,
}

/// One issued batch.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// When the batch was due.
    pub due: Instant,
    /// How late it was issued.
    pub lag: Duration,
    /// Batches due but not yet issued, this one included.
    pub overdue: u64,
}

impl Pacer {
    /// A schedule of `batches_per_second` starting at `start`.
    pub fn new(start: Instant, batches_per_second: f64) -> Pacer {
        assert!(batches_per_second > 0.0, "a pacer needs a positive rate");
        Pacer {
            start,
            interval_ns: 1e9 / batches_per_second,
            next: 0,
        }
    }

    fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.interval_ns) as u64)
    }

    /// Sleeps until the next batch is due (not at all when it is already
    /// late) and returns its tick.
    pub fn next(&mut self) -> Tick {
        let i = self.next;
        self.next += 1;
        let due = self.due(i);
        let mut now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            now = Instant::now();
        }
        let since_start = now.saturating_duration_since(self.start).as_nanos() as f64;
        let due_by_now = (since_start / self.interval_ns) as u64 + 1;
        Tick {
            due,
            lag: now.saturating_duration_since(due),
            overdue: due_by_now.saturating_sub(i).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_counts_from_the_due_time() {
        // a schedule that started 20 ms ago at 1 batch/ms: batch 0 was due
        // 20 ms ago, so it is issued at once, about 20 ms late, with about
        // 21 batches overdue
        let start = Instant::now() - Duration::from_millis(20);
        let mut pacer = Pacer::new(start, 1000.0);
        let first = pacer.next();
        assert_eq!(first.due, start);
        assert!(first.lag >= Duration::from_millis(20), "{:?}", first.lag);
        assert!(first.overdue >= 21, "{}", first.overdue);
        // the next batch is due 1 ms after the first, not 1 ms after issue
        let second = pacer.next();
        assert_eq!(second.due, start + Duration::from_millis(1));
        assert!(second.lag >= Duration::from_millis(19));
        // a caller's latency sample runs from `due`, so it includes the lag
        let done = Instant::now();
        assert!(done - second.due >= second.lag);
    }

    #[test]
    fn the_kernel_accepts_a_tight_timer_slack() {
        assert!(tighten_timer_slack());
    }

    #[test]
    fn an_early_batch_waits_for_its_due_time() {
        let start = Instant::now() + Duration::from_millis(5);
        let mut pacer = Pacer::new(start, 100.0);
        let tick = pacer.next();
        assert!(Instant::now() >= start, "issued before it was due");
        assert_eq!(tick.overdue, 1);
        assert!(tick.lag < Duration::from_millis(5), "{:?}", tick.lag);
    }
}
