//! Open-loop request generation with due-time latency.
//!
//! The sender sleeps until the next request is due, then issues every
//! request already due; it never spins a core. The reaper blocks on each
//! pending request in submit order. Latency is measured from the due
//! time, so a stall that delays later submissions is billed to them, and
//! the sender's lateness is kept per request.
//!
//! (`dini_serve::run_load` is not used: its reap cadence would be billed
//! as latency.)

use dini_serve::{Clock, ServeError};
use std::sync::mpsc;
use std::time::Duration;

/// When one request was due, issued and answered (ns on the serving
/// clock), and what it returned.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    /// Scheduled issue time.
    pub due: u64,
    /// Submission call entered.
    pub submit_start: u64,
    /// Submission call returned.
    pub submit_end: u64,
    /// Answer (or error) observed by the reaper.
    pub done: u64,
    /// The answer, or why there was none.
    pub outcome: Result<R, ServeError>,
}

impl<R> Timed<R> {
    /// Due time to answer.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the sender issued the request.
    pub fn late_ns(&self) -> u64 {
        self.submit_start.saturating_sub(self.due)
    }
}

/// Seeded arrival offsets (ns from the start of the phase) of a
/// Poisson process at `rate_per_s`, covering `seconds`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut gen = dini_workload::ArrivalGen::new(
        seed,
        dini_workload::ArrivalProcess::poisson_rate(rate_per_s),
    );
    let horizon = (seconds * 1e9) as u64;
    let mut at = 0u64;
    let mut out = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    loop {
        at = gen.next_at_ns(at);
        if at >= horizon {
            return out;
        }
        out.push(at);
    }
}

/// Run `ops` open loop: `ops[i]` is due `offsets[i]` ns after the start.
/// `submit` issues an op and returns its pending answer; `reap` blocks
/// for that answer. `after_reap(i)` runs on the reaper thread after each
/// answer (used to drain trace rings while they still hold the
/// request). Returns the timings in submit order.
pub fn run<T, P, R>(
    clock: &Clock,
    offsets: &[u64],
    ops: &[T],
    submit: impl Fn(usize, &T) -> Result<P, ServeError> + Sync,
    reap: impl Fn(P) -> Result<R, ServeError> + Sync,
    after_reap: &mut (dyn FnMut(usize) + Send),
) -> Vec<Timed<R>>
where
    T: Sync,
    P: Send,
    R: Send,
{
    assert_eq!(offsets.len(), ops.len(), "one due time per op");
    let (tx, rx) = mpsc::channel::<(usize, u64, u64, Result<P, ServeError>)>();
    // Start a millisecond out so the first requests are not born late.
    let t0 = clock.now() + 1_000_000;
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let tx = tx;
            let mut i = 0;
            while i < ops.len() {
                let now = clock.now();
                let due = t0 + offsets[i];
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                    continue;
                }
                while i < ops.len() && t0 + offsets[i] <= now {
                    let start = clock.now();
                    let pending = submit(i, &ops[i]);
                    let end = clock.now();
                    if tx.send((i, start, end, pending)).is_err() {
                        return;
                    }
                    i += 1;
                }
            }
        });
        let reaper = s.spawn(|| {
            let mut out = Vec::with_capacity(ops.len());
            for (i, submit_start, submit_end, pending) in rx {
                let outcome = pending.and_then(&reap);
                let done = clock.now();
                out.push(Timed { due: t0 + offsets[i], submit_start, submit_end, done, outcome });
                after_reap(i);
            }
            out
        });
        sender.join().expect("open-loop sender panicked");
        reaper.join().expect("open-loop reaper panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_bounded() {
        let a = poisson_schedule(7, 10_000.0, 0.5);
        assert_eq!(a, poisson_schedule(7, 10_000.0, 0.5));
        assert_ne!(a, poisson_schedule(8, 10_000.0, 0.5));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().expect("arrivals") < 500_000_000);
        // 5000 expected arrivals; Poisson spread is ~70.
        assert!((4_600..5_400).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn every_op_is_reaped_in_order_and_timed_from_due() {
        let clock = Clock::system();
        let offsets: Vec<u64> = (0..200).map(|i| i * 50_000).collect();
        let ops: Vec<u32> = (0..200).collect();
        let mut reaped = 0usize;
        let out = run(
            &clock,
            &offsets,
            &ops,
            |i, &op| {
                if op == 13 {
                    Err(ServeError::Overloaded { shard: 0 })
                } else {
                    Ok(i as u32 * 2)
                }
            },
            |p: u32| Ok(p + 1),
            &mut |_| reaped += 1,
        );
        assert_eq!(reaped, 200);
        assert_eq!(out.len(), 200);
        for (i, t) in out.iter().enumerate() {
            assert!(t.due <= t.submit_start && t.submit_start <= t.submit_end);
            assert!(t.submit_end <= t.done);
            assert_eq!(t.latency_ns(), t.done - t.due);
            match i {
                13 => assert_eq!(t.outcome, Err(ServeError::Overloaded { shard: 0 })),
                _ => assert_eq!(t.outcome, Ok(i as u32 * 2 + 1)),
            }
        }
    }
}
