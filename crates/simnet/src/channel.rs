//! Simulation-aware message channels.
//!
//! These are single-threaded (the executor never crosses threads) but fully
//! async: a receiver blocked on an empty channel parks its task until a
//! sender wakes it, all in virtual time.
//!
//! The receive side registers at most **one** waker (a single slot with
//! [`Waker::will_wake`] dedup): repeated polls of a parked receiver refresh
//! the slot instead of accumulating clones, and a send wakes the receiver
//! exactly once. Hot paths move messages in batches — [`Sender::send_batch`]
//! enqueues a same-timestamp burst under one state borrow, and
//! [`Receiver::recv_all`] takes the whole burst into a caller-reused ring —
//! so the per-message cost is a ring push/pop, not a borrow + waker walk.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned by [`Sender::send`] when every `Receiver` is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed: receiver dropped")
    }
}

impl std::error::Error for SendError {}

struct ChanState<T> {
    queue: VecDeque<T>,
    // Single waker slot: there is one Receiver, so at most one task can be
    // parked on it. `will_wake` dedup keeps re-polls from cloning.
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

impl<T> ChanState<T> {
    #[inline]
    fn register(&mut self, cx: &Context<'_>) {
        match &self.recv_waker {
            Some(w) if w.will_wake(cx.waker()) => {}
            _ => self.recv_waker = Some(cx.waker().clone()),
        }
    }
}

/// Sending half of an unbounded channel; clonable.
pub struct Sender<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Create an unbounded mpsc channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: Rc::clone(&state),
        },
        Receiver { state },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut st = self.state.borrow_mut();
            st.senders -= 1;
            if st.senders == 0 {
                st.recv_waker.take()
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().receiver_alive = false;
    }
}

impl<T> Sender<T> {
    /// Enqueue a message, waking a parked receiver. Never blocks.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        let waker = {
            let mut st = self.state.borrow_mut();
            if !st.receiver_alive {
                return Err(SendError);
            }
            st.queue.push_back(value);
            st.recv_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// Enqueue a burst of messages under one state borrow, waking a parked
    /// receiver at most once. This is the arrival-burst fast path: many
    /// same-timestamp events apply as one ring extend instead of N
    /// borrow/wake cycles.
    pub fn send_batch<I: IntoIterator<Item = T>>(&self, values: I) -> Result<(), SendError> {
        let waker = {
            let mut st = self.state.borrow_mut();
            if !st.receiver_alive {
                return Err(SendError);
            }
            st.queue.extend(values);
            st.recv_waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// Number of queued, undelivered messages.
    pub fn queued(&self) -> usize {
        self.state.borrow().queue.len()
    }
}

impl<T> Receiver<T> {
    /// Await the next message; resolves to `None` once all senders are
    /// dropped and the queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv {
            receiver: self,
            registered: false,
        }
    }

    /// Await the whole queued burst: moves every queued message into `buf`
    /// and resolves to how many arrived (0 means closed and drained). When
    /// `buf` comes back empty the transfer is an O(1) ring swap — the
    /// receiver's scratch deque and the channel's ring trade places, so a
    /// steady-state dispatch loop recycles the same two allocations
    /// forever instead of copying every element.
    pub fn recv_all<'a>(&'a mut self, buf: &'a mut VecDeque<T>) -> RecvAll<'a, T> {
        RecvAll {
            receiver: self,
            buf,
            registered: false,
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Number of queued, undelivered messages.
    pub fn queued(&self) -> usize {
        self.state.borrow().queue.len()
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
    registered: bool,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        let mut st = this.receiver.state.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if st.senders == 0 {
            return Poll::Ready(None);
        }
        st.register(cx);
        this.registered = true;
        Poll::Pending
    }
}

impl<T> Drop for Recv<'_, T> {
    fn drop(&mut self) {
        // A parked receive that is abandoned (timeout/select) must not leave
        // its waker behind, or the next send wakes a task that no longer
        // cares (spurious wakeup).
        if self.registered {
            self.receiver.state.borrow_mut().recv_waker = None;
        }
    }
}

/// Future returned by [`Receiver::recv_all`].
pub struct RecvAll<'a, T> {
    receiver: &'a mut Receiver<T>,
    buf: &'a mut VecDeque<T>,
    registered: bool,
}

impl<T> Future for RecvAll<'_, T> {
    type Output = usize;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
        let this = self.get_mut();
        let mut st = this.receiver.state.borrow_mut();
        let n = st.queue.len();
        if n == 0 {
            if st.senders == 0 {
                return Poll::Ready(0);
            }
            st.register(cx);
            this.registered = true;
            return Poll::Pending;
        }
        if this.buf.is_empty() {
            std::mem::swap(this.buf, &mut st.queue);
        } else {
            this.buf.extend(st.queue.drain(..));
        }
        Poll::Ready(n)
    }
}

impl<T> Drop for RecvAll<'_, T> {
    fn drop(&mut self) {
        if self.registered {
            self.receiver.state.borrow_mut().recv_waker = None;
        }
    }
}

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

struct OneshotState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_alive: bool,
}

/// Sending half of a oneshot channel.
pub struct OneshotSender<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Receiving half of a oneshot channel.
pub struct OneshotReceiver<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Create a oneshot channel: a single value, sent once, awaited once.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let state = Rc::new(RefCell::new(OneshotState {
        value: None,
        waker: None,
        sender_alive: true,
    }));
    (
        OneshotSender {
            state: Rc::clone(&state),
        },
        OneshotReceiver { state },
    )
}

/// A per-connection recycler for oneshot allocations. Hot paths that
/// mint one oneshot per operation (e.g. one RDMA verb's completion
/// token per message) churn through an `Rc` allocation each time; at
/// open-loop scale that is hundreds of thousands of short-lived heap
/// cells per simulated second. The pool retains up to a fixed number
/// of states and hands a state back out once **both** ends have been
/// dropped (the pool holds the only reference), resetting it first —
/// so reuse is invisible to the two ends and cannot perturb task
/// wake-ups or event order.
pub struct OneshotPool<T> {
    slots: RefCell<VecDeque<Rc<RefCell<OneshotState<T>>>>>,
}

impl<T> Default for OneshotPool<T> {
    fn default() -> Self {
        OneshotPool {
            slots: RefCell::new(VecDeque::new()),
        }
    }
}

impl<T> OneshotPool<T> {
    /// States retained per pool; completions resolve roughly FIFO on a
    /// connection, so a small window captures nearly all reuse.
    const CAP: usize = 64;

    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Like [`oneshot`], recycling a retained state when its previous
    /// sender and receiver are both gone.
    pub fn oneshot(&self) -> (OneshotSender<T>, OneshotReceiver<T>) {
        let mut slots = self.slots.borrow_mut();
        // Oldest first: on a FIFO connection the front slot is the most
        // likely to have resolved. A still-busy front rotates to the
        // back so one long-lived token can't block reuse forever.
        let state = match slots.front() {
            Some(s) if Rc::strong_count(s) == 1 => {
                let s = slots.pop_front().expect("checked non-empty");
                let mut st = s.borrow_mut();
                st.value = None;
                st.waker = None;
                st.sender_alive = true;
                drop(st);
                s
            }
            busy => {
                if busy.is_some() {
                    let s = slots.pop_front().expect("checked non-empty");
                    slots.push_back(s);
                }
                Rc::new(RefCell::new(OneshotState {
                    value: None,
                    waker: None,
                    sender_alive: true,
                }))
            }
        };
        if slots.len() < Self::CAP {
            slots.push_back(Rc::clone(&state));
        }
        (
            OneshotSender {
                state: Rc::clone(&state),
            },
            OneshotReceiver { state },
        )
    }

    /// Retained states (testing/diagnostics).
    pub fn retained(&self) -> usize {
        self.slots.borrow().len()
    }
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver. Consumes the sender.
    pub fn send(self, value: T) {
        let mut st = self.state.borrow_mut();
        st.value = Some(value);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.sender_alive = false;
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    /// `None` if the sender was dropped without sending.
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.value.take() {
            return Poll::Ready(Some(v));
        }
        if !st.sender_alive {
            return Poll::Ready(None);
        }
        match &st.waker {
            Some(w) if w.will_wake(cx.waker()) => {}
            _ => st.waker = Some(cx.waker().clone()),
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn send_then_recv() {
        let mut sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        let got = sim.block_on(async move {
            tx.send(5).unwrap();
            tx.send(6).unwrap();
            (rx.recv().await, rx.recv().await)
        });
        assert_eq!(got, (Some(5), Some(6)));
    }

    #[test]
    fn recv_parks_until_send() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (tx, mut rx) = channel::<u64>();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(50)).await;
            tx.send(h2.now().as_nanos()).unwrap();
        });
        let got = sim.block_on(async move { rx.recv().await });
        assert_eq!(got, Some(50_000));
    }

    #[test]
    fn oneshot_pool_recycles_resolved_states() {
        let mut sim = Sim::new(1);
        let pool = OneshotPool::<u32>::new();
        // Resolve a token fully: both ends dropped afterwards.
        let (tx, rx) = pool.oneshot();
        let first = Rc::as_ptr(&rx.state);
        let got = sim.block_on(async move {
            tx.send(7);
            rx.await
        });
        assert_eq!(got, Some(7));
        // The next take must reuse the same allocation, reset.
        let (tx2, rx2) = pool.oneshot();
        assert_eq!(Rc::as_ptr(&rx2.state), first, "state not recycled");
        let got = sim.block_on(async move {
            tx2.send(9);
            rx2.await
        });
        assert_eq!(got, Some(9));
        assert_eq!(pool.retained(), 1);
    }

    #[test]
    fn oneshot_pool_never_reuses_a_live_state() {
        let pool = OneshotPool::<u32>::new();
        let (tx1, rx1) = pool.oneshot();
        let (_tx2, rx2) = pool.oneshot();
        assert_ne!(
            Rc::as_ptr(&rx1.state),
            Rc::as_ptr(&rx2.state),
            "live state handed out twice"
        );
        drop(tx1);
        drop(rx1);
        // rx2's state is still live (its sender exists); a third take
        // must recycle rx1's state, not rx2's.
        let (_tx3, rx3) = pool.oneshot();
        assert_ne!(Rc::as_ptr(&rx3.state), Rc::as_ptr(&rx2.state));
    }

    #[test]
    fn oneshot_pool_recycled_state_starts_clean() {
        let mut sim = Sim::new(1);
        let pool = OneshotPool::<u32>::new();
        // Drop a sender without sending: leaves sender_alive = false.
        let (tx, rx) = pool.oneshot();
        drop(tx);
        assert_eq!(sim.block_on(rx), None);
        // The recycled state must block again (sender alive, no value).
        let (tx, mut rx) = pool.oneshot();
        let (w, count) = counting_waker();
        let mut cx = Context::from_waker(&w);
        assert!(Pin::new(&mut rx).poll(&mut cx).is_pending());
        tx.send(3);
        assert_eq!(count.get(), 1);
        assert_eq!(
            Pin::new(&mut rx).poll(&mut cx),
            std::task::Poll::Ready(Some(3))
        );
    }

    #[test]
    fn recv_returns_none_when_senders_dropped() {
        let mut sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        drop(tx);
        let got = sim.block_on(async move { rx.recv().await });
        assert_eq!(got, None);
    }

    #[test]
    fn queued_messages_survive_sender_drop() {
        let mut sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        let got = sim.block_on(async move { (rx.recv().await, rx.recv().await) });
        assert_eq!(got, (Some(1), None));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError));
    }

    #[test]
    fn clone_sender_keeps_channel_open() {
        let mut sim = Sim::new(1);
        let (tx, mut rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9).unwrap();
        let got = sim.block_on(async move { rx.recv().await });
        assert_eq!(got, Some(9));
    }

    #[test]
    fn oneshot_roundtrip() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (tx, rx) = oneshot::<&'static str>();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(3)).await;
            tx.send("done");
        });
        let got = sim.block_on(rx);
        assert_eq!(got, Some("done"));
    }

    #[test]
    fn oneshot_none_on_sender_drop() {
        let mut sim = Sim::new(1);
        let (tx, rx) = oneshot::<u8>();
        drop(tx);
        assert_eq!(sim.block_on(rx), None);
    }

    #[test]
    fn multiple_receivers_via_mpsc_fan_in() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (tx, mut rx) = channel::<u64>();
        for i in 0..8u64 {
            let tx = tx.clone();
            let h2 = h.clone();
            sim.spawn(async move {
                h2.sleep(SimDuration::from_nanos(i * 10)).await;
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        let got = sim.block_on(async move {
            let mut v = Vec::new();
            while let Some(x) = rx.recv().await {
                v.push(x);
            }
            v
        });
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    /// A waker that counts how many times it fires.
    struct WakeCount(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for WakeCount {
        fn wake(self: std::sync::Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &std::sync::Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl WakeCount {
        fn get(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    fn counting_waker() -> (Waker, std::sync::Arc<WakeCount>) {
        let count = std::sync::Arc::new(WakeCount(std::sync::atomic::AtomicUsize::new(0)));
        (Waker::from(std::sync::Arc::clone(&count)), count)
    }

    #[test]
    fn parked_receiver_polled_n_times_is_woken_exactly_once() {
        // The satellite regression: N polls of a parked receiver must leave
        // one waker slot, and a send must fire it exactly once — not once
        // per poll (the old Vec accumulated a clone per poll).
        let (waker, fired) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        let (tx, mut rx) = channel::<u32>();
        let mut fut = rx.recv();
        for _ in 0..16 {
            assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        }
        assert_eq!(fired.get(), 0);
        tx.send(7).unwrap();
        assert_eq!(fired.get(), 1, "one send must wake exactly once");
        // A second send while the receiver is runnable must not re-fire.
        tx.send(8).unwrap();
        assert_eq!(fired.get(), 1);
        assert_eq!(Pin::new(&mut fut).poll(&mut cx), Poll::Ready(Some(7)));
    }

    #[test]
    fn dropped_recv_clears_waker_slot() {
        // Abandoning a parked receive (timeout/select) must unregister, so
        // a later send wakes nobody.
        let (waker, fired) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        let (tx, mut rx) = channel::<u32>();
        {
            let mut fut = rx.recv();
            assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        }
        tx.send(1).unwrap();
        assert_eq!(fired.get(), 0, "abandoned receive must not be woken");
        assert_eq!(rx.try_recv(), Some(1));
    }

    #[test]
    fn recv_all_parks_then_drains_burst() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (tx, mut rx) = channel::<u64>();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(5)).await;
            tx.send_batch([1, 2, 3]).unwrap();
        });
        let got = sim.block_on(async move {
            let mut buf = VecDeque::new();
            let n = rx.recv_all(&mut buf).await;
            (n, buf, h.now().as_nanos())
        });
        assert_eq!(got, (3, VecDeque::from([1, 2, 3]), 5_000));
    }

    #[test]
    fn recv_all_swaps_ring_and_preserves_order() {
        let mut sim = Sim::new(1);
        let (tx, mut rx) = channel::<u64>();
        let got = sim.block_on(async move {
            let mut buf = VecDeque::new();
            tx.send_batch(0..5u64).unwrap();
            let a = rx.recv_all(&mut buf).await;
            let first: Vec<u64> = buf.drain(..).collect();
            // Non-empty scratch: the second burst appends instead of swaps.
            buf.push_back(99);
            tx.send_batch(5..8u64).unwrap();
            let b = rx.recv_all(&mut buf).await;
            let second: Vec<u64> = buf.drain(..).collect();
            drop(tx);
            let c = rx.recv_all(&mut buf).await;
            (a, first, b, second, c)
        });
        assert_eq!(got.0, 5);
        assert_eq!(got.1, vec![0, 1, 2, 3, 4]);
        assert_eq!(got.2, 3);
        assert_eq!(got.3, vec![99, 5, 6, 7]);
        assert_eq!(got.4, 0);
    }

    #[test]
    fn send_batch_wakes_parked_receiver_once() {
        let (waker, fired) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        let (tx, mut rx) = channel::<u32>();
        let mut buf = VecDeque::new();
        let mut fut = rx.recv_all(&mut buf);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        tx.send_batch([1, 2, 3, 4]).unwrap();
        assert_eq!(fired.get(), 1, "a burst wakes once, not once per element");
        assert_eq!(Pin::new(&mut fut).poll(&mut cx), Poll::Ready(4));
    }
}
