//! Contended service resources: FIFO servers (CPU cores, DMA engines) and
//! serialized links (network wires, PCIe lanes, PM media bandwidth).

use std::cell::Cell;
use std::rc::Rc;

use crate::executor::SimHandle;
use crate::sync::Semaphore;
use crate::time::{transfer_time, SimDuration};

/// A multi-server FIFO queueing resource: `capacity` requests are serviced
/// concurrently, the rest wait in FIFO order.
///
/// Models CPU core pools, RNIC processing units, and DMA engines.
#[derive(Clone)]
pub struct FifoResource {
    handle: SimHandle,
    sem: Semaphore,
    capacity: usize,
    busy: Rc<Cell<u64>>, // accumulated service nanoseconds
    served: Rc<Cell<u64>>,
}

impl FifoResource {
    /// A resource with `capacity` parallel servers.
    pub fn new(handle: SimHandle, capacity: usize) -> Self {
        assert!(capacity > 0, "resource needs at least one server");
        FifoResource {
            handle,
            sem: Semaphore::new(capacity),
            capacity,
            busy: Rc::default(),
            served: Rc::default(),
        }
    }

    /// Occupy one server for `service` time (queueing if all are busy).
    pub async fn process(&self, service: SimDuration) {
        let _permit = self.sem.acquire().await;
        self.handle.sleep(service).await;
        self.busy.set(self.busy.get() + service.as_nanos());
        self.served.set(self.served.get() + 1);
    }

    /// Permanently occupy `n` servers (background load that never finishes).
    /// Panics if `n >= capacity` would leave no server.
    pub fn occupy_background(&self, n: usize) {
        assert!(
            n < self.capacity,
            "background load must leave at least one server"
        );
        let sem = self.sem.clone();
        self.handle.spawn(async move {
            let _permits = sem.acquire_many(n).await;
            // Hold forever: park on a future that never resolves (no timer,
            // so `Sim::run` still terminates when real work is done).
            std::future::pending::<()>().await;
        });
    }

    /// Number of parallel servers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total service time accumulated across all servers.
    pub fn busy_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.busy.get())
    }

    /// Requests fully serviced.
    pub fn served(&self) -> u64 {
        self.served.get()
    }
}

/// A serialized transmission pipe with bandwidth and propagation delay.
///
/// A transfer occupies the pipe — a one-server [`FifoResource`] — for its
/// serialization time (`bytes * 8 / gbps`), after which the pipe is free
/// for the next transfer while the message propagates for `propagation` —
/// i.e. transfers pipeline on the wire exactly like real links.
#[derive(Clone)]
pub struct SharedLink {
    handle: SimHandle,
    wire: FifoResource,
    gbps: f64,
    propagation: SimDuration,
    bytes_moved: Rc<Cell<u64>>,
    // Serialization-time multiplier (1.0 = healthy); fault injection
    // raises it to model a degraded / congested link.
    slowdown: Rc<Cell<f64>>,
}

impl SharedLink {
    /// A link of `gbps` gigabits/second and one-way `propagation` delay.
    pub fn new(handle: SimHandle, gbps: f64, propagation: SimDuration) -> Self {
        assert!(gbps > 0.0, "bandwidth must be positive");
        SharedLink {
            wire: FifoResource::new(handle.clone(), 1),
            handle,
            gbps,
            propagation,
            bytes_moved: Rc::default(),
            slowdown: Rc::new(Cell::new(1.0)),
        }
    }

    /// Move `bytes` through the link; resolves when the last bit arrives at
    /// the far end (serialization + queueing + propagation).
    pub async fn transmit(&self, bytes: u64) {
        let ser = transfer_time(bytes, self.gbps).mul_f64(self.slowdown.get());
        self.wire.process(ser).await;
        self.bytes_moved.set(self.bytes_moved.get() + bytes);
        // Pipe released; propagation overlaps with the next sender.
        self.handle.sleep(self.propagation).await;
    }

    /// Set the serialization slowdown factor (>= 1 slows the link; 1
    /// restores full speed). Shared across clones, so a fault injector
    /// holding one clone degrades every sender. In-flight transfers keep
    /// their already-computed serialization time.
    pub fn set_slowdown(&self, factor: f64) {
        assert!(factor >= 1.0, "slowdown must not speed the link up");
        self.slowdown.set(factor);
    }

    /// Current serialization slowdown factor.
    pub fn slowdown(&self) -> f64 {
        self.slowdown.get()
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Configured bandwidth in Gbit/s.
    pub fn gbps(&self) -> f64 {
        self.gbps
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use std::cell::RefCell;

    #[test]
    fn fifo_resource_serializes_beyond_capacity() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let res = FifoResource::new(h.clone(), 2);
        let done: Rc<RefCell<Vec<u64>>> = Rc::default();
        for _ in 0..4 {
            let res = res.clone();
            let h2 = h.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                res.process(SimDuration::from_micros(10)).await;
                done.borrow_mut().push(h2.now().as_nanos());
            });
        }
        sim.run();
        // 2 servers, 4 jobs of 10us: completions at 10us,10us,20us,20us.
        assert_eq!(*done.borrow(), vec![10_000, 10_000, 20_000, 20_000]);
        assert_eq!(res.served(), 4);
        assert_eq!(res.busy_time(), SimDuration::from_micros(40));
    }

    #[test]
    fn background_occupancy_reduces_capacity() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let res = FifoResource::new(h.clone(), 4);
        res.occupy_background(3);
        let done: Rc<RefCell<Vec<u64>>> = Rc::default();
        for _ in 0..2 {
            let res = res.clone();
            let h2 = h.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                // let the background task grab its permits first
                h2.sleep(SimDuration::from_nanos(1)).await;
                res.process(SimDuration::from_micros(10)).await;
                done.borrow_mut().push(h2.now().as_nanos());
            });
        }
        sim.run();
        // Only one effective server left: strictly serialized.
        assert_eq!(*done.borrow(), vec![10_001, 20_001]);
    }

    #[test]
    fn link_pipelines_propagation() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        // 8 Gbps -> 1 ns per byte; 1000-byte messages serialize in 1 us.
        let link = SharedLink::new(h.clone(), 8.0, SimDuration::from_micros(5));
        let done: Rc<RefCell<Vec<u64>>> = Rc::default();
        for _ in 0..3 {
            let link = link.clone();
            let h2 = h.clone();
            let done = Rc::clone(&done);
            sim.spawn(async move {
                link.transmit(1000).await;
                done.borrow_mut().push(h2.now().as_nanos());
            });
        }
        sim.run();
        // Serialization serializes (1us each), propagation overlaps:
        // arrivals at 6us, 7us, 8us.
        assert_eq!(*done.borrow(), vec![6_000, 7_000, 8_000]);
        assert_eq!(link.bytes_moved(), 3000);
    }

    #[test]
    fn degraded_link_serializes_slower_until_restored() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        // 8 Gbps -> 1 us per 1000 bytes at full speed.
        let link = SharedLink::new(h.clone(), 8.0, SimDuration::from_micros(5));
        link.set_slowdown(4.0);
        let l2 = link.clone();
        let h2 = h.clone();
        let at = sim.block_on(async move {
            l2.transmit(1000).await; // 4 us serialization + 5 us propagation
            let degraded = h2.now().as_nanos();
            l2.set_slowdown(1.0);
            l2.transmit(1000).await; // back to 1 us + 5 us
            (degraded, h2.now().as_nanos())
        });
        assert_eq!(at.0, 9_000);
        assert_eq!(at.1, 15_000);
        assert_eq!(link.slowdown(), 1.0);
    }
}
