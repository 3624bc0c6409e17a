//! Virtual-time timeouts for simulated protocols.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::{SimHandle, Sleep};
use crate::time::SimDuration;

/// Error returned when a [`timeout`] deadline passes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Run `fut` for at most `dur` of virtual time.
///
/// On timeout the inner future is dropped (cancelling it — all simnet
/// futures are cancel-safe by construction: their wakers are cleaned up
/// on drop).
pub fn timeout<F: Future>(handle: &SimHandle, dur: SimDuration, fut: F) -> Timeout<F> {
    Timeout {
        sleep: handle.sleep(dur),
        fut: Some(fut),
    }
}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    sleep: Sleep,
    fut: Option<F>,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: we never move `fut` or `sleep` out of the pinned struct
        // while they can still be polled; `fut` is dropped in place on
        // timeout via Option::take after its last poll.
        let this = unsafe { self.get_unchecked_mut() };
        let Some(fut) = this.fut.as_mut() else {
            // Already resolved one way; stay terminal.
            return Poll::Pending;
        };
        // Armed first, so no sleep inside the inner future completes in
        // place past the deadline; polled after it, the inner future wins
        // a tie.
        this.sleep.arm(cx);
        if let Poll::Ready(v) = unsafe { Pin::new_unchecked(fut) }.poll(cx) {
            this.fut = None;
            return Poll::Ready(Ok(v));
        }
        if Pin::new(&mut this.sleep).poll(cx).is_ready() {
            this.fut = None; // cancel the inner future
            return Poll::Ready(Err(Elapsed));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::sync::Notify;

    #[test]
    fn timeout_passes_through_fast_futures() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        let out = sim.block_on(async move {
            timeout(&h2, SimDuration::from_micros(100), async {
                h2.sleep(SimDuration::from_micros(10)).await;
                42
            })
            .await
        });
        assert_eq!(out, Ok(42));
    }

    #[test]
    fn timeout_fires_on_slow_futures() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        let (out, t) = sim.block_on(async move {
            let r = timeout(&h2, SimDuration::from_micros(5), async {
                h2.sleep(SimDuration::from_micros(1_000)).await;
                42
            })
            .await;
            (r, h2.now())
        });
        assert_eq!(out, Err(Elapsed));
        assert_eq!(t.as_nanos(), 5_000);
    }

    #[test]
    fn armed_timeout_bounds_a_lone_inner_sleep_at_its_deadline() {
        // Nothing else is runnable or queued, so each inner sleep would be
        // the next event: the deadline, armed before the inner future's
        // first poll, alone stops it from completing in place past the
        // timeout.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        let out = sim.block_on(async move {
            let mut at = Vec::new();
            for (limit, nap) in [(5, 1_000), (0, 5), (5, 5), (5, 1)] {
                let start = h2.now();
                let nap = h2.sleep(SimDuration::from_micros(nap));
                let r = timeout(&h2, SimDuration::from_micros(limit), nap).await;
                at.push((r, (h2.now() - start).as_nanos()));
            }
            at
        });
        assert_eq!(
            out,
            [
                (Err(Elapsed), 5_000),
                // Armed although already due.
                (Err(Elapsed), 0),
                // A tie: the deadline is queued first, but the inner
                // future is polled first at the fire and wins.
                (Ok(()), 5_000),
                (Ok(()), 1_000)
            ]
        );
        assert_eq!(sim.live_timers(), 0);
        // The first poll, the fires of the first and the tied case (each
        // instant resumes the task once) and the last case's in-place
        // advance; the zero timeout elapses within a poll.
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn fired_timeout_still_bounds_its_inner_future() {
        // The deadline's timer fires and resumes the task, and the inner
        // future, polled first, gets past its wait at that very instant
        // with no wake of its own. Its next sleep would be the next event:
        // the re-armed deadline stops it, and the timeout elapses on time.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        let (out, t) = sim.block_on(async move {
            let inner = async {
                std::future::poll_fn(|_| {
                    if h2.now().as_nanos() >= 5_000 {
                        Poll::Ready(())
                    } else {
                        Poll::Pending
                    }
                })
                .await;
                h2.sleep(SimDuration::from_micros(3)).await;
            };
            let r = timeout(&h2, SimDuration::from_micros(5), inner).await;
            (r, h2.now())
        });
        assert_eq!(out, Err(Elapsed));
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!(sim.live_timers(), 0);
    }

    #[test]
    fn timed_out_future_is_cancelled_not_leaked() {
        // The cancelled sleeper must not keep the simulation alive much
        // past its timer (its timer entry fires harmlessly).
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        sim.block_on(async move {
            let _ = timeout(&h2, SimDuration::from_micros(5), async {
                h2.sleep(SimDuration::from_secs(60)).await;
            })
            .await;
        });
        sim.run();
        // The 60s timer still exists in the heap but wakes nothing.
        assert!(sim.now().as_nanos() <= 60_000_000_000);
    }

    #[test]
    fn timeout_on_notify_wait() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let n = Notify::new();
        let n2 = n.clone();
        let h2 = h.clone();
        let out = sim.block_on(async move {
            timeout(&h2, SimDuration::from_micros(50), async move {
                n2.notified().await;
                "notified"
            })
            .await
        });
        assert_eq!(out, Err(Elapsed));
        // A later notify_one should not panic or wake ghosts.
        n.notify_one();
        sim.run();
    }
}
