//! The load generator: a closed loop for the saturation phase, an open
//! loop for the latency phase and for controller updates.
//!
//! Open-loop latencies run from each item's **scheduled** time, not from
//! when the generator got round to sending it, so a stall is charged to
//! every item queued behind it (no coordinated omission). How late the
//! generator itself ran is reported separately as its lag.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Fixed-rate schedule: item `k` is due `k * interval` after `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval_ns: f64,
}

impl Schedule {
    /// `per_sec` items per second from `start`.
    pub fn new(start: Instant, per_sec: f64) -> Self {
        assert!(per_sec > 0.0, "a schedule needs a positive rate");
        Self { start, interval_ns: 1e9 / per_sec }
    }

    /// When item `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let offset = (k as f64 * self.interval_ns) as u64;
        self.start + Duration::from_nanos(offset)
    }
}

/// Controller schedule: updates come in groups of
/// [`GROUP`](crate::workload::GROUP), one group per `period`. Within a
/// group they are a tenth of a period apart, so the group's last update
/// (a remove, the slow kind) has the rest of the period to finish before
/// the next group is due.
#[derive(Debug, Clone, Copy)]
pub struct GroupSchedule {
    start: Instant,
    period: Duration,
}

impl GroupSchedule {
    /// `per_sec` groups per second from `start`.
    pub fn new(start: Instant, per_sec: f64) -> Self {
        assert!(per_sec > 0.0, "a schedule needs a positive rate");
        Self { start, period: Duration::from_secs_f64(1.0 / per_sec) }
    }

    /// When update `j` is due.
    pub fn due(&self, j: u64) -> Instant {
        let group = crate::workload::GROUP as u64;
        self.start + self.period.mul_f64((j / group) as f64 + (j % group) as f64 / 10.0)
    }
}

/// The last stretch before a due time that [`sleep_until`] yields
/// through instead of sleeping, for batches: a timer wake-up can be late
/// by tens of microseconds, and a yield hands the core to a worker.
pub const BATCH_SPIN: Duration = Duration::from_micros(80);

/// The same for controller updates, which are rare enough that yielding
/// through the last millisecond costs nothing, and short enough on small
/// tables (about half a millisecond) that a late wake-up would dominate.
pub const UPDATE_SPIN: Duration = Duration::from_millis(1);

/// Sleeps until `due`: a coarse sleep until `spin` before it, then yields.
pub fn sleep_until(due: Instant, spin: Duration) {
    let now = Instant::now();
    if due > now + spin {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// What an open loop measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per completed item: scheduled time → completion, ns.
    pub latency_ns: Vec<u64>,
    /// Per completed item: actual send → completion, ns.
    pub response_ns: Vec<u64>,
    /// Per sent item: scheduled time → actual send, ns.
    pub lag_ns: Vec<u64>,
    /// Items sent.
    pub sent: u64,
    /// First due time → last completion.
    pub elapsed: Duration,
}

impl OpenLoop {
    /// Appends the samples of a later run; its time adds to this one's.
    pub fn absorb(&mut self, mut later: OpenLoop) {
        self.latency_ns.append(&mut later.latency_ns);
        self.response_ns.append(&mut later.response_ns);
        self.lag_ns.append(&mut later.lag_ns);
        self.sent += later.sent;
        self.elapsed += later.elapsed;
    }
}

/// Offers items `0, 1, …` on `schedule` until `end`, then drains.
/// `submit(k)` sends item `k` and returns its handle; `wait` blocks until
/// the handle resolves; `done(k, result)` consumes the result after the
/// completion time was taken. Due items are sent before outstanding ones
/// are waited for; while nothing is due the oldest outstanding item is
/// awaited.
pub fn open_loop<T, R>(
    schedule: Schedule,
    end: Instant,
    mut submit: impl FnMut(u64) -> T,
    mut wait: impl FnMut(T) -> R,
    mut done: impl FnMut(u64, R),
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut outstanding: VecDeque<(u64, Instant, Instant, T)> = VecDeque::new();
    let mut next = 0u64;
    let mut last_done = schedule.due(0);
    loop {
        let due = schedule.due(next);
        let now = Instant::now();
        if due < end && now >= due {
            let sent = Instant::now();
            out.lag_ns.push(nanos(sent - due));
            let handle = submit(next);
            outstanding.push_back((next, due, sent, handle));
            next += 1;
            continue;
        }
        if let Some((k, due_k, sent_k, handle)) = outstanding.pop_front() {
            let result = wait(handle);
            let finished = Instant::now();
            out.latency_ns.push(nanos(finished - due_k));
            out.response_ns.push(nanos(finished - sent_k));
            last_done = finished;
            done(k, result);
            continue;
        }
        if due >= end {
            break;
        }
        sleep_until(due, BATCH_SPIN);
    }
    out.sent = next;
    out.elapsed = last_done.saturating_duration_since(schedule.due(0));
    out
}

/// Closed loop with `window` items in flight until `end`, then drains.
/// Returns the items completed and the time from start to the last
/// completion.
pub fn closed_loop<T, R>(
    window: usize,
    end: Instant,
    mut submit: impl FnMut(u64) -> T,
    mut wait: impl FnMut(T) -> R,
    mut done: impl FnMut(u64, R),
) -> (u64, Duration) {
    let start = Instant::now();
    let mut outstanding: VecDeque<(u64, T)> = VecDeque::with_capacity(window);
    let mut next = 0u64;
    while outstanding.len() < window {
        outstanding.push_back((next, submit(next)));
        next += 1;
    }
    while let Some((k, handle)) = outstanding.pop_front() {
        let result = wait(handle);
        done(k, result);
        if Instant::now() < end {
            outstanding.push_back((next, submit(next)));
            next += 1;
        }
    }
    (next, start.elapsed())
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that answers each item 50 µs after it is sent, except
    /// item 5, whose wait stalls for 20 ms. Items due during the stall
    /// are sent late; their latencies must carry the stall (measured from
    /// the schedule), while their send-to-completion times do not.
    #[test]
    fn a_stall_is_charged_to_the_items_queued_behind_it() {
        let interval = Duration::from_millis(1);
        let stall = Duration::from_millis(20);
        let start = Instant::now() + Duration::from_millis(2);
        let schedule = Schedule::new(start, 1e9 / interval.as_nanos() as f64);
        let end = schedule.due(40);
        let mut done = Vec::new();
        let run = open_loop(
            schedule,
            end,
            |k| (k, Instant::now()),
            |(k, sent): (u64, Instant)| {
                let ready =
                    sent + Duration::from_micros(50) + if k == 5 { stall } else { Duration::ZERO };
                sleep_until(ready, BATCH_SPIN);
                k
            },
            |k, r| {
                assert_eq!(k, r);
                done.push(k);
            },
        );
        assert_eq!(run.sent, 40);
        assert_eq!(done, (0..40).collect::<Vec<_>>());
        let lat = |k: usize| Duration::from_nanos(run.latency_ns[k]);
        // Before the stall: latency is the service time.
        assert!(lat(3) < Duration::from_millis(3), "item 3: {:?}", lat(3));
        // Item 5 carries the stall itself; items 6.. were due while it
        // lasted and carry what was left of it when they came due.
        assert!(lat(5) >= stall);
        for k in 6..20 {
            let left = stall.saturating_sub(interval * (k as u32 - 5));
            assert!(lat(k) >= left, "item {k}: latency {:?} < remaining stall {left:?}", lat(k));
        }
        assert!(lat(10) >= Duration::from_millis(14));
        // The generator was late sending them, and says so.
        assert!(run.lag_ns[10] >= 14_000_000);
        // Measured from the actual send, the stall would vanish.
        assert!(run.response_ns[10] < 5_000_000, "response {}", run.response_ns[10]);
    }

    #[test]
    fn closed_loop_keeps_the_window_full() {
        let end = Instant::now() + Duration::from_millis(20);
        let in_flight = std::cell::Cell::new(0usize);
        let peak = std::cell::Cell::new(0usize);
        let (n, _) = closed_loop(
            4,
            end,
            |k| {
                in_flight.set(in_flight.get() + 1);
                peak.set(peak.get().max(in_flight.get()));
                k
            },
            |k| k,
            |_, _| in_flight.set(in_flight.get() - 1),
        );
        assert!(n > 4);
        assert_eq!(peak.get(), 4);
        assert_eq!(in_flight.get(), 0);
    }
}
