//! The open-loop load generator and the latency statistics.
//!
//! Requests are due on a fixed schedule. At most `lanes` requests are in
//! flight (one per connection and thread); a request that falls due while
//! every lane is busy waits in the queue and is sent by the next free
//! lane. It is never skipped. Latency counts from the due time, so a stall
//! shows in every request queued behind it, and the generator records how
//! late each send was. Requests flagged `serial` (the writes) are sent in
//! schedule order, one at a time, so the server commits them in the order
//! the oracles replay them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    /// Offset from the start of the run at which the request is due.
    pub at: Duration,
    /// Position among the serial (write) requests, if it is one.
    pub serial: Option<usize>,
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// 2xx with a body the oracle accepted (or deferred checking).
    Ok,
    /// A non-2xx status, with the start of its body.
    Status(u16, String),
    /// Connect, write or read failed.
    Transport(String),
    /// 2xx whose body disagrees with the reference.
    Wrong(String),
    /// Still queued when the drain grace ran out; never sent.
    Undrained,
}

/// The timing of one request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into the schedule.
    pub index: usize,
    /// Send time minus due time.
    pub lateness: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
    /// What happened.
    pub outcome: Outcome,
}

/// Ticket gate that releases serial requests strictly in order.
struct SerialGate {
    next: Mutex<usize>,
    turn: Condvar,
}

impl SerialGate {
    fn wait_for(&self, ticket: usize) {
        let mut next = self.next.lock().expect("serial gate poisoned");
        while *next != ticket {
            next = self.turn.wait(next).expect("serial gate poisoned");
        }
    }

    fn done(&self) {
        *self.next.lock().expect("serial gate poisoned") += 1;
        self.turn.notify_all();
    }
}

/// Lower this thread's timer slack to 1 ns so sleeps end close to the
/// due time (the default 50 µs slack would show up as lateness).
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) only changes the calling
    // thread's timer slack; it reads no memory of ours. A failure leaves
    // the default slack, which costs precision, not correctness.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Sleep until `deadline` (no-op if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Run `schedule` open loop on `lanes` threads, each owning a lane state
/// built by `make_lane` (typically one connection). `exec(lane, index)`
/// sends request `index` and judges the answer. Requests not sent by
/// `grace` after the last due time are recorded as [`Outcome::Undrained`].
/// Records come back in schedule order.
pub fn run_open_loop<L, M, E>(
    schedule: &[Due],
    lanes: usize,
    grace: Duration,
    make_lane: M,
    exec: E,
) -> Vec<Record>
where
    M: Fn(usize) -> L + Sync,
    E: Fn(&mut L, usize) -> Outcome + Sync,
{
    let next = AtomicUsize::new(0);
    let gate = SerialGate {
        next: Mutex::new(0),
        turn: Condvar::new(),
    };
    let last_due = schedule.last().map(|d| d.at).unwrap_or_default();
    let start = Instant::now();
    let cutoff = start + last_due + grace;
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes.max(1))
            .map(|lane_id| {
                let (next, gate, make_lane, exec) = (&next, &gate, &make_lane, &exec);
                scope.spawn(move || {
                    tighten_timer_slack();
                    let mut lane = make_lane(lane_id);
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(due) = schedule.get(index) else {
                            break;
                        };
                        let due_at = start + due.at;
                        sleep_until(due_at);
                        if let Some(ticket) = due.serial {
                            gate.wait_for(ticket);
                        }
                        let sent = Instant::now();
                        let outcome = if sent > cutoff {
                            Outcome::Undrained
                        } else {
                            exec(&mut lane, index)
                        };
                        let done = Instant::now();
                        if due.serial.is_some() {
                            gate.done();
                        }
                        out.push(Record {
                            index,
                            lateness: sent - due_at,
                            latency: done - due_at,
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator lane panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    records
}

/// Evenly spaced due times: `count` requests at `rate` per second, the
/// first at `phase` seconds.
pub fn uniform(count: usize, rate: f64, phase: f64) -> Vec<Duration> {
    (0..count)
        .map(|k| Duration::from_secs_f64(phase + k as f64 / rate))
        .collect()
}

/// The `p`-th percentile (0..=100) of ascending `sorted`, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (any order); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values` without their smallest and largest (plain mean below
/// three values); NaN when empty. Process launch times are bimodal, so
/// their median jumps between the modes from run to run while this
/// mean moves with the mix, and one stalled launch cannot drag it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n`, or `None` when even p50 has
/// fewer than ten (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Percentiles in hundredths of a percent, so ranks are exact.
    [9999usize, 9990, 9900, 9000, 5000]
        .into_iter()
        .find(|&p| n - (p * n).div_ceil(10_000) >= 10)
        .map(|p| p as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1010), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0, 100.0]), 2.5);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
    }

    /// One lane, requests due every millisecond, each taking at least
    /// 4 ms: nothing is skipped, request k is sent at least 3k ms late,
    /// and its latency covers the queueing plus its own service time.
    #[test]
    fn queued_requests_are_late_not_skipped() {
        let due: Vec<Due> = uniform(8, 1000.0, 0.0)
            .into_iter()
            .map(|at| Due { at, serial: None })
            .collect();
        let recs = run_open_loop(
            &due,
            1,
            Duration::from_secs(60),
            |_| (),
            |_, _| {
                std::thread::sleep(Duration::from_millis(4));
                Outcome::Ok
            },
        );
        assert_eq!(recs.len(), 8);
        for (k, r) in recs.iter().enumerate() {
            assert_eq!(r.index, k);
            assert_eq!(r.outcome, Outcome::Ok);
            assert!(
                r.lateness >= Duration::from_millis(3 * k as u64),
                "{k}: {r:?}"
            );
            assert!(
                r.latency >= r.lateness + Duration::from_millis(4),
                "{k}: {r:?}"
            );
        }
    }

    /// With a zero grace, a request whose send slips past the last due
    /// time is recorded undrained instead of being sent.
    #[test]
    fn requests_past_the_grace_are_undrained() {
        let due: Vec<Due> = uniform(3, 1000.0, 0.0)
            .into_iter()
            .map(|at| Due { at, serial: None })
            .collect();
        let recs = run_open_loop(
            &due,
            1,
            Duration::ZERO,
            |_| (),
            |_, _| {
                std::thread::sleep(Duration::from_millis(20));
                Outcome::Ok
            },
        );
        assert_eq!(recs[0].outcome, Outcome::Ok);
        assert_eq!(recs[2].outcome, Outcome::Undrained);
    }

    /// Serial requests run one at a time in schedule order even with two
    /// lanes racing for them.
    #[test]
    fn serial_requests_keep_schedule_order() {
        let due: Vec<Due> = (0..6)
            .map(|k| Due {
                at: Duration::ZERO,
                serial: Some(k),
            })
            .collect();
        let order = Mutex::new(Vec::new());
        run_open_loop(
            &due,
            2,
            Duration::from_secs(60),
            |_| (),
            |_, i| {
                order.lock().unwrap().push(i);
                Outcome::Ok
            },
        );
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }
}
