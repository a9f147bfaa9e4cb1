//! Tick sources: the bridge between the session layer's virtual time and
//! a real deployment's wall clock.
//!
//! Every timer in [`crate::session`] — retransmit backoff, straggler
//! deadlines, checkpoint resume — takes the current time as a plain
//! `now: u64` tick parameter. That keeps the whole state machine
//! deterministic and testable, but it leaves open *where* ticks come
//! from. This module answers that with one trait and two sources:
//!
//! * [`ManualClock`] — a settable counter. Tests advance it explicitly,
//!   which is exactly the virtual-tick discipline every existing test
//!   already uses (those tests keep passing unchanged: they never see a
//!   clock, they pass `now` directly).
//! * [`TickClock`] — maps a monotonic [`Instant`] onto ticks of a fixed
//!   [`Duration`]. This is what `dcs-cli serve`/`monitor` and the socket
//!   soak run on: a collector configured with a 512-tick deadline and a
//!   1 ms tick times out stragglers after ~512 ms of real time, through
//!   the *same* code path the virtual-tick tests prove correct.
//!
//! The trait is object-safe, so runtime code can hold a
//! `&dyn Clock` and tests can substitute a [`ManualClock`] without
//! generics leaking through the driver layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A source of session-layer ticks.
///
/// Implementations must be monotonic: successive calls never go
/// backwards. They need not advance — a stalled [`ManualClock`] is how a
/// test freezes time.
pub trait Clock: Send + Sync {
    /// The current tick.
    fn now(&self) -> u64;

    /// The real time left until tick `tick` begins: zero once it has, and
    /// [`Duration::MAX`] when the clock cannot tell (a [`ManualClock`]
    /// moves only when it is told to). A waiting driver caps a sleep
    /// with it so that it does not oversleep a timer.
    fn until(&self, tick: u64) -> Duration {
        if self.now() >= tick {
            Duration::ZERO
        } else {
            Duration::MAX
        }
    }
}

/// A manually driven clock for deterministic tests.
///
/// Interior-mutable (atomic), so a test can hold shared references in
/// driver code and still advance time from the outside.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock starting at tick `start`.
    pub fn new(start: u64) -> Self {
        ManualClock(AtomicU64::new(start))
    }

    /// Advances the clock by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.0.fetch_add(ticks, Ordering::SeqCst);
    }

    /// Sets the clock to `tick` (must not move backwards; asserts in
    /// debug builds).
    pub fn set(&self, tick: u64) {
        let prev = self.0.swap(tick, Ordering::SeqCst);
        debug_assert!(tick >= prev, "ManualClock moved backwards");
    }
}

impl Clock for ManualClock {
    fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// A real-time clock: ticks are fixed slices of monotonic wall time.
///
/// Tick 0 is the instant the clock was created; tick *n* begins at
/// `start + n * tick`. [`Instant`] is monotonic, so this clock never goes
/// backwards even across system time adjustments.
#[derive(Debug, Clone)]
pub struct TickClock {
    start: Instant,
    tick: Duration,
}

impl TickClock {
    /// A clock whose tick lasts `tick` of real time. Panics if `tick` is
    /// zero — a zero-length tick would make every deadline instant.
    pub fn new(tick: Duration) -> Self {
        assert!(!tick.is_zero(), "TickClock tick must be non-zero");
        TickClock {
            start: Instant::now(),
            tick,
        }
    }
}

impl Clock for TickClock {
    fn now(&self) -> u64 {
        let elapsed = self.start.elapsed();
        (elapsed.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    fn until(&self, tick: u64) -> Duration {
        let at = u128::from(tick) * self.tick.as_nanos();
        let left = at.saturating_sub(self.start.elapsed().as_nanos());
        Duration::from_nanos(u64::try_from(left).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::RouterFault;
    use crate::session::{CollectorConfig, EpochCollector, SessionConfig, StragglerPolicy};
    use crate::transport::chunk_bundle;

    fn cfg(deadline: u64) -> CollectorConfig {
        CollectorConfig {
            deadline,
            straggler: StragglerPolicy::Deadline,
            session: SessionConfig {
                base_backoff: 4,
                max_backoff: 32,
                max_retries: 8,
                jitter: 3,
            },
        }
    }

    #[test]
    fn manual_clock_stall_times_out_identically_to_virtual_ticks() {
        // Path A: the existing virtual-tick discipline — a bare counter.
        let mut virt = EpochCollector::new(5, [9], cfg(40), 7, 0);
        let mut virt_requests = Vec::new();
        let mut now = 0u64;
        while !virt.ready(now) {
            for _ in virt.poll(now) {
                virt_requests.push(now);
            }
            now += 1;
        }
        let virt_epoch = virt.finalize(now);

        // Path B: the same schedule read through the Clock trait.
        let clock = ManualClock::new(0);
        let mut real = EpochCollector::new(5, [9], cfg(40), 7, clock.now());
        let mut clock_requests = Vec::new();
        while !real.ready(clock.now()) {
            let t = clock.now();
            for _ in real.poll(t) {
                clock_requests.push(t);
            }
            clock.advance(1);
        }
        let clock_epoch = real.finalize(clock.now());

        // Identical retransmit schedule, identical typed exclusion.
        assert_eq!(virt_requests, clock_requests);
        assert_eq!(virt_epoch.exclusions.len(), 1);
        assert_eq!(clock_epoch.exclusions.len(), 1);
        assert_eq!(
            virt_epoch.exclusions[0].fault,
            clock_epoch.exclusions[0].fault
        );
        assert!(matches!(
            clock_epoch.exclusions[0].fault,
            RouterFault::TimedOut { .. }
        ));
    }

    #[test]
    fn backoff_gaps_grow_exponentially_with_capped_jitter() {
        let clock = ManualClock::new(100);
        let c = cfg(10_000);
        let mut collector = EpochCollector::new(1, [9], c, 42, clock.now());
        let mut request_ticks = Vec::new();
        // Session gives up after max_retries requests; run well past it.
        for _ in 0..2_000 {
            let now = clock.now();
            for _ in collector.poll(now) {
                request_ticks.push(now);
            }
            clock.advance(1);
        }
        assert_eq!(
            request_ticks.len(),
            c.session.max_retries as usize,
            "a stalled session retries exactly max_retries times"
        );
        let mut gaps: Vec<u64> = request_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        // Every gap is bounded by the backoff cap plus the jitter bound,
        // and the schedule reaches (but never exceeds) that cap.
        let bound = c.session.max_backoff + c.session.jitter;
        assert!(gaps.iter().all(|&g| g <= bound), "gap over cap: {gaps:?}");
        assert!(
            gaps.iter().any(|&g| g >= c.session.max_backoff),
            "backoff never reached its cap: {gaps:?}"
        );
        // Ignoring jitter (< base_backoff here), gaps never shrink by
        // more than the jitter bound: the schedule is monotone modulo
        // jitter until it saturates.
        gaps.dedup();
        for w in gaps.windows(2) {
            assert!(
                w[1] + c.session.jitter >= w[0],
                "backoff shrank beyond jitter: {gaps:?}"
            );
        }
    }

    #[test]
    fn tick_clock_is_monotonic_and_times_out_a_stalled_session() {
        // 200 µs ticks, 50-tick deadline: ~10 ms of real time.
        let tick = Duration::from_micros(200);
        let clock = TickClock::new(tick);
        let mut collector = EpochCollector::new(3, [4, 9], cfg(50), 11, clock.now());

        // Router 4 delivers immediately; router 9 stalls forever.
        for frame in chunk_bundle(4, 3, b"router four's bundle", 8) {
            collector.offer(&frame, clock.now());
        }

        let mut last = clock.now();
        while !collector.ready(clock.now()) {
            let now = clock.now();
            assert!(now >= last, "TickClock went backwards");
            last = now;
            collector.poll(now);
            std::thread::sleep(tick);
        }
        let epoch = collector.finalize(clock.now());
        assert_eq!(epoch.frames.len(), 1, "router 4 must survive");
        assert_eq!(epoch.exclusions.len(), 1, "router 9 must be excluded");
        assert!(
            matches!(epoch.exclusions[0].fault, RouterFault::TimedOut { .. }),
            "real-clock stall must produce the same typed TimedOut as \
             virtual ticks, got {:?}",
            epoch.exclusions[0].fault
        );
    }

    #[test]
    fn until_is_the_real_time_left_before_a_tick_begins() {
        let tick = Duration::from_secs(1);
        let clock = TickClock::new(tick);
        assert_eq!(clock.until(0), Duration::ZERO);
        let left = clock.until(3);
        assert!(left > 2 * tick && left <= 3 * tick, "{left:?}");
        // The far future saturates instead of overflowing.
        assert!(clock.until(u64::MAX) > Duration::from_secs(1 << 30));
        // A manual clock knows only whether the tick has begun.
        let manual = ManualClock::new(5);
        assert_eq!(manual.until(5), Duration::ZERO);
        assert_eq!(manual.until(6), Duration::MAX);
    }

    #[test]
    fn manual_clock_shared_across_threads() {
        let clock = std::sync::Arc::new(ManualClock::new(0));
        let reader = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                while clock.now() < 100 {
                    std::hint::spin_loop();
                }
                clock.now()
            })
        };
        clock.advance(100);
        assert!(reader.join().unwrap() >= 100);
    }
}
