//! Synchronization primitives for simulated tasks.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemState {
    permits: usize,
    // FIFO waiters for fairness: (waiter id, requested permits, waker).
    waiters: VecDeque<(u64, usize, Option<Waker>)>,
    next_waiter: u64,
}

/// An async counting semaphore with FIFO fairness.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

/// RAII guard returned by [`Semaphore::acquire`]; releases on drop.
pub struct SemPermit {
    state: Rc<RefCell<SemState>>,
    count: usize,
}

impl Semaphore {
    /// A semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                next_waiter: 0,
            })),
        }
    }

    /// Acquire one permit.
    pub fn acquire(&self) -> Acquire {
        self.acquire_many(1)
    }

    /// Acquire `count` permits atomically.
    pub fn acquire_many(&self, count: usize) -> Acquire {
        Acquire {
            state: Rc::clone(&self.state),
            count,
            waiter_id: None,
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }
}

fn wake_eligible(st: &mut SemState) {
    // Wake the head waiter if it can now be satisfied (strict FIFO: a large
    // request at the head blocks smaller ones behind it, avoiding starvation).
    if let Some((_, count, waker)) = st.waiters.front_mut() {
        if st.permits >= *count {
            if let Some(w) = waker.take() {
                w.wake();
            }
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    state: Rc<RefCell<SemState>>,
    count: usize,
    waiter_id: Option<u64>,
}

impl Future for Acquire {
    type Output = SemPermit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SemPermit> {
        let count = self.count;
        let mut st = self.state.borrow_mut();
        match self.waiter_id {
            None => {
                if st.waiters.is_empty() && st.permits >= count {
                    st.permits -= count;
                    drop(st);
                    return Poll::Ready(SemPermit {
                        state: Rc::clone(&self.state),
                        count,
                    });
                }
                let id = st.next_waiter;
                st.next_waiter += 1;
                st.waiters.push_back((id, count, Some(cx.waker().clone())));
                drop(st);
                self.waiter_id = Some(id);
                Poll::Pending
            }
            Some(id) => {
                let at_head = st.waiters.front().map(|(wid, _, _)| *wid) == Some(id);
                if at_head && st.permits >= count {
                    st.waiters.pop_front();
                    st.permits -= count;
                    wake_eligible(&mut st);
                    drop(st);
                    return Poll::Ready(SemPermit {
                        state: Rc::clone(&self.state),
                        count,
                    });
                }
                // Refresh the stored waker (skip the clone when the parked
                // waker would already wake this task — the executor reuses
                // per-slot wakers, so this is the common case).
                if let Some(entry) = st.waiters.iter_mut().find(|(wid, _, _)| *wid == id) {
                    match &entry.2 {
                        Some(w) if w.will_wake(cx.waker()) => {}
                        _ => entry.2 = Some(cx.waker().clone()),
                    }
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(id) = self.waiter_id {
            let mut st = self.state.borrow_mut();
            let was_head = st.waiters.front().map(|(wid, _, _)| *wid) == Some(id);
            st.waiters.retain(|(wid, _, _)| *wid != id);
            if was_head {
                wake_eligible(&mut st);
            }
        }
    }
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.permits += self.count;
        wake_eligible(&mut st);
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

struct NotifyState {
    pending: usize,
    waiters: VecDeque<(u64, Waker)>,
    /// Always empty: the buffer `notify_all` swaps in for `waiters`, so
    /// draining keeps both capacities and allocates nothing.
    spare: VecDeque<(u64, Waker)>,
    next_id: u64,
}

/// Wakes one or all parked tasks; a stored permit if nobody is waiting
/// (like `tokio::sync::Notify` with `notify_one` semantics).
#[derive(Clone)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// New notifier with no stored permits.
    pub fn new() -> Self {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                pending: 0,
                waiters: VecDeque::new(),
                spare: VecDeque::new(),
                next_id: 0,
            })),
        }
    }

    /// Wake one waiter, or store a permit for the next `notified().await`.
    pub fn notify_one(&self) {
        let mut st = self.state.borrow_mut();
        st.pending += 1;
        if let Some((_, w)) = st.waiters.pop_front() {
            w.wake();
        }
    }

    /// Wake every currently-parked waiter, and store at least one permit
    /// so a task that observed stale state and is about to park does not
    /// miss the notification (check-then-park safety).
    pub fn notify_all(&self) {
        let mut st = self.state.borrow_mut();
        let spare = std::mem::take(&mut st.spare);
        let mut waiters = std::mem::replace(&mut st.waiters, spare);
        st.pending += waiters.len().max(1);
        drop(st);
        for (_, w) in waiters.drain(..) {
            w.wake();
        }
        self.state.borrow_mut().spare = waiters;
    }

    /// Wait until notified.
    pub fn notified(&self) -> Notified {
        Notified {
            state: Rc::clone(&self.state),
            id: None,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    state: Rc<RefCell<NotifyState>>,
    id: Option<u64>,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.state.borrow_mut();
        if st.pending > 0 {
            st.pending -= 1;
            if let Some(id) = this.id.take() {
                st.waiters.retain(|(wid, _)| *wid != id);
            }
            return Poll::Ready(());
        }
        // (Re-)register: a notify may have drained our waker while
        // another waiter consumed the permit, so every Pending poll must
        // leave a live waker behind.
        match this.id {
            Some(id) => {
                if let Some(entry) = st.waiters.iter_mut().find(|(wid, _)| *wid == id) {
                    if !entry.1.will_wake(cx.waker()) {
                        entry.1 = cx.waker().clone();
                    }
                } else {
                    st.waiters.push_back((id, cx.waker().clone()));
                }
            }
            None => {
                let id = st.next_id;
                st.next_id += 1;
                this.id = Some(id);
                st.waiters.push_back((id, cx.waker().clone()));
            }
        }
        Poll::Pending
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.state
                .borrow_mut()
                .waiters
                .retain(|(wid, _)| *wid != id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinator::timeout;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let sem = Semaphore::new(2);
        let active = Rc::new(Cell::new(0usize));
        let peak = Rc::new(Cell::new(0usize));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let h2 = h.clone();
            let sem = sem.clone();
            let active = Rc::clone(&active);
            let peak = Rc::clone(&peak);
            joins.push(sim.spawn(async move {
                let _p = sem.acquire().await;
                active.set(active.get() + 1);
                peak.set(peak.get().max(active.get()));
                h2.sleep(SimDuration::from_micros(10)).await;
                active.set(active.get() - 1);
            }));
        }
        sim.run();
        assert!(joins.iter().all(|j| j.is_finished()));
        assert_eq!(peak.get(), 2);
    }

    #[test]
    fn semaphore_fifo_order() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let sem = Semaphore::new(1);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..5u32 {
            let h2 = h.clone();
            let sem = sem.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                // Stagger arrival so queue order is well-defined.
                h2.sleep(SimDuration::from_nanos(i as u64)).await;
                let _p = sem.acquire().await;
                h2.sleep(SimDuration::from_micros(5)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn acquire_many_blocks_until_enough() {
        let mut sim = Sim::new(1);
        let sem = Semaphore::new(3);
        let sem2 = sem.clone();
        let out = sim.block_on(async move {
            let a = sem2.acquire_many(2).await;
            let avail_mid = sem2.available();
            drop(a);
            let _b = sem2.acquire_many(3).await;
            (avail_mid, sem2.available())
        });
        assert_eq!(out, (1, 0));
    }

    #[test]
    fn notify_stores_permit() {
        let mut sim = Sim::new(1);
        let n = Notify::new();
        n.notify_one();
        let n2 = n.clone();
        sim.block_on(async move {
            n2.notified().await; // consumes stored permit, no deadlock
        });
    }

    #[test]
    fn notify_wakes_waiter() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let n = Notify::new();
        let n2 = n.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(5)).await;
            n2.notify_one();
        });
        let t = sim.block_on(async move {
            n.notified().await;
            h.now()
        });
        assert_eq!(t.as_nanos(), 5_000);
    }

    #[test]
    fn dropping_acquire_releases_queue_head() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let sem = Semaphore::new(1);
        // Hold the only permit for 10us.
        {
            let sem = sem.clone();
            let h2 = h.clone();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                h2.sleep(SimDuration::from_micros(10)).await;
            });
        }
        // A waiter that gives up: acquire future dropped at 5us.
        {
            let sem = sem.clone();
            let h2 = h.clone();
            sim.spawn(async move {
                h2.sleep(SimDuration::from_nanos(1)).await;
                let gave_up = timeout(&h2, SimDuration::from_micros(5), sem.acquire()).await;
                assert!(gave_up.is_err());
            });
        }
        // A later waiter that must still get through.
        let sem2 = sem.clone();
        let h3 = h.clone();
        let t = sim.block_on(async move {
            h3.sleep(SimDuration::from_nanos(2)).await;
            let _p = sem2.acquire().await;
            h3.now()
        });
        assert_eq!(t.as_nanos(), 10_000);
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let n = Notify::new();
        let woken: Rc<Cell<usize>> = Rc::default();
        for _ in 0..5 {
            let n = n.clone();
            let woken = Rc::clone(&woken);
            sim.spawn(async move {
                n.notified().await;
                woken.set(woken.get() + 1);
            });
        }
        let n2 = n.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(1)).await;
            n2.notify_all();
        });
        sim.run();
        assert_eq!(woken.get(), 5);
    }

    #[test]
    fn notify_all_is_check_then_park_safe() {
        // A waiter that observed stale state right before notify_all still
        // proceeds (a stored permit remains).
        let mut sim = Sim::new(1);
        let n = Notify::new();
        n.notify_all(); // nobody waiting: must store a permit
        let n2 = n.clone();
        sim.block_on(async move {
            n2.notified().await; // consumes the stored permit
        });
    }

    #[test]
    fn renotified_waiter_reregisters_after_spurious_wake() {
        // Two waiters, one permit-consuming race: both must eventually
        // complete after a second notify_all.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let n = Notify::new();
        let done: Rc<Cell<usize>> = Rc::default();
        for _ in 0..2 {
            let n = n.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                // Wait for two notifications' worth of condition.
                n.notified().await;
                n.notified().await;
                done.set(done.get() + 1);
            });
        }
        let n2 = n.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            for _ in 0..4 {
                h2.sleep(SimDuration::from_micros(1)).await;
                n2.notify_all();
            }
        });
        sim.run();
        assert_eq!(done.get(), 2);
    }
}
