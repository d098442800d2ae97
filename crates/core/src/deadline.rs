//! Wall-clock deadlines for execution watchdogs.
//!
//! Fuel bounds the number of *retired instructions*, but a job can also
//! stall on host time (a pathological self-modifying pattern, a storm of trap
//! deliveries that retire nothing). A [`Deadline`] is the wall-clock half
//! of the watchdog story: an absolute `Instant` that run loops poll
//! *between* simulation steps, so checking it can never perturb the
//! simulated machine. The serve scheduler, the supervisor, and
//! `risc1 run --timeout-ms` all share this one type.
//!
//! Polling every step would put a syscall on the hot path, so loops only
//! consult the clock every [`DEADLINE_POLL_STEPS`] steps (callers keep a
//! local counter; the mask makes the check a single AND on the fast path).

use std::time::{Duration, Instant};

/// How many steps a run loop executes between wall-clock polls. A power of
/// two so the check compiles to `count & (N-1) == 0`.
pub const DEADLINE_POLL_STEPS: u64 = 4096;

/// An absolute wall-clock budget. Cheap to copy; comparison against the
/// clock happens only when [`Deadline::expired`] is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Deadline {
        Deadline {
            at: Instant::now() + Duration::from_millis(ms),
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at }
    }

    /// True once the wall clock has passed the deadline.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Wall-clock time remaining (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether a loop at step `count` should consult the clock: true every
    /// [`DEADLINE_POLL_STEPS`] steps (including step 0, so an
    /// already-expired deadline is honoured before any work).
    #[inline]
    pub fn should_poll(count: u64) -> bool {
        count & (DEADLINE_POLL_STEPS - 1) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expires_and_reports_remaining() {
        let d = Deadline::after_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);

        let far = Deadline::after_ms(60_000);
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(1));
    }

    #[test]
    fn poll_mask_hits_step_zero_and_the_interval() {
        assert!(Deadline::should_poll(0));
        assert!(!Deadline::should_poll(1));
        assert!(!Deadline::should_poll(DEADLINE_POLL_STEPS - 1));
        assert!(Deadline::should_poll(DEADLINE_POLL_STEPS));
        assert!(Deadline::should_poll(7 * DEADLINE_POLL_STEPS));
    }
}
