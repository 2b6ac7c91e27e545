//! Open-loop accounting: requests are due on a fixed schedule whether or
//! not earlier ones have finished, and each is timed from when it was due.
//!
//! One connection carries one request at a time, so a request that falls
//! due while the previous one is still outstanding waits in the client;
//! timing from the due time charges that wait to the system under test.
//! The generator itself can also run late (its thread was not scheduled
//! in time); that lateness is reported separately so a run whose load
//! generator could not keep up can be told apart from a slow server.

use std::time::{Duration, Instant};

/// The due time of request `i` at `rate` requests per second.
pub fn due(start: Instant, rate: f64, i: u64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// One request's three instants.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Timing {
    /// Latency as the caller sees it: from when the request was due.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request after it could have: after
    /// it was due and after the connection's previous request finished.
    pub fn generator_lateness(&self, previous_done: Option<Instant>) -> Duration {
        let ready = previous_done.map_or(self.due, |p| p.max(self.due));
        self.sent.saturating_duration_since(ready)
    }
}

/// Sleeps until `at` (returns at once when `at` has passed).
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn latency_from_due_includes_generator_lateness() {
        let t0 = Instant::now();
        // Due at 100 ms, sent 50 ms late, served in 10 ms.
        let timing = Timing {
            due: t0 + ms(100),
            sent: t0 + ms(150),
            done: t0 + ms(160),
        };
        assert_eq!(timing.latency(), ms(60));
        assert_eq!(timing.generator_lateness(None), ms(50));
    }

    #[test]
    fn waiting_for_the_previous_request_is_latency_not_lateness() {
        let t0 = Instant::now();
        // Due at 100 ms, but the connection was busy until 140 ms; sent at
        // once then, served in 10 ms.
        let timing = Timing {
            due: t0 + ms(100),
            sent: t0 + ms(140),
            done: t0 + ms(150),
        };
        assert_eq!(timing.latency(), ms(50));
        assert_eq!(
            timing.generator_lateness(Some(t0 + ms(140))),
            Duration::ZERO
        );
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let t0 = Instant::now();
        assert_eq!(due(t0, 20.0, 0), t0);
        assert_eq!(due(t0, 20.0, 3), t0 + ms(150));
    }
}
