//! CPU model: a pool of cores with FIFO scheduling, background-load
//! injection, and costs for the software operations RPC systems perform
//! (polling dispatch, memcpy, request parsing).

use prdma_simnet::trace::Tracer;
use prdma_simnet::{FifoResource, SimDuration, SimHandle};

// Calibrated to one socket of the paper's testbed (Xeon Gold 6230, 20
// cores, 2.1 GHz): a polling thread detects and dispatches an incoming
// message in 100–200 ns (a cache-line poll hit plus a branch to the
// handler); memcpy moves ~10 GB/s per core.

/// Cores available to the RPC runtime.
const CORES: usize = 8;
/// Cost to detect + dispatch a polled message (cache miss + parse).
const POLL_DISPATCH: SimDuration = SimDuration::from_nanos(100);
/// Cost to receive-dispatch a two-sided message: CQ event handling,
/// recv-queue replenishment, header parse, handler lookup. This is the
/// RPC-framework software cost that makes two-sided systems like DaRPC
/// pay roughly twice FaRM's effective RTT (paper Fig. 20).
const PARSE_REQUEST: SimDuration = SimDuration::from_nanos(1_500);
/// Single-core memcpy bandwidth in Gbit/s (~10 GB/s).
const MEMCPY_GBPS: f64 = 80.0;
/// Cost to hand an RPC to a pooled handler thread (enqueue + wake; the
/// pool is pre-spawned, so this is scheduling, not thread creation).
const DISPATCH_THREAD: SimDuration = SimDuration::from_nanos(300);

/// A pool of CPU cores.
#[derive(Clone)]
pub struct CpuModel {
    cores: FifoResource,
    tracer: Tracer,
}

impl CpuModel {
    /// Build a CPU of eight cores whose RPC work is recorded into the
    /// node's `tracer` as sender- or receiver-side software, per the
    /// tracer's role.
    pub fn new(handle: SimHandle, tracer: Tracer) -> Self {
        let cores = FifoResource::new(handle, CORES);
        CpuModel { cores, tracer }
    }

    /// The underlying core pool (for wiring into QP post costs).
    pub fn cores(&self) -> &FifoResource {
        &self.cores
    }

    /// Run `work` of computation on one core (queueing when all are busy).
    pub async fn compute(&self, work: SimDuration) {
        let _span = self.tracer.span_sw();
        self.cores.process(work).await;
    }

    /// Like [`compute`](Self::compute), but outside the latency breakdown —
    /// for background/antagonist load that is not part of any RPC.
    pub async fn compute_background(&self, work: SimDuration) {
        self.cores.process(work).await;
    }

    /// The cost of noticing a message via memory polling and dispatching it.
    pub async fn poll_dispatch(&self) {
        let _span = self.tracer.span_sw();
        self.cores.process(POLL_DISPATCH).await;
    }

    /// Parse a two-sided request (header decode, handler lookup).
    pub async fn parse_request(&self) {
        let _span = self.tracer.span_sw();
        self.cores.process(PARSE_REQUEST).await;
    }

    /// Copy `bytes` between buffers on one core.
    pub async fn memcpy(&self, bytes: u64) {
        let t = prdma_simnet::transfer_time(bytes, MEMCPY_GBPS);
        let _span = self.tracer.span_sw();
        self.cores.process(t).await;
    }

    /// Spawn/schedule a handler thread for an RPC.
    pub async fn dispatch_thread(&self) {
        let _span = self.tracer.span_sw();
        self.cores.process(DISPATCH_THREAD).await;
    }

    /// Occupy all but one core (the paper's "busy" CPU condition).
    pub fn make_busy(&self) {
        self.cores.occupy_background(CORES - 1);
    }

    /// Total accumulated busy time across cores.
    pub fn busy_time(&self) -> SimDuration {
        self.cores.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_simnet::Sim;

    fn cpu(sim: &Sim) -> CpuModel {
        CpuModel::new(sim.handle(), Tracer::new(sim.handle()))
    }

    #[test]
    fn compute_queues_beyond_core_count() {
        let mut sim = Sim::new(1);
        let cpu = cpu(&sim);
        let h = sim.handle();
        for _ in 0..2 * CORES {
            let cpu = cpu.clone();
            sim.spawn(async move {
                cpu.compute(SimDuration::from_micros(100)).await;
            });
        }
        sim.run();
        assert_eq!(h.now().as_nanos(), 200_000);
    }

    #[test]
    fn busy_cpu_serializes_work() {
        let mut sim = Sim::new(1);
        let cpu = cpu(&sim);
        cpu.make_busy();
        let h = sim.handle();
        for _ in 0..3 {
            let cpu = cpu.clone();
            let h2 = h.clone();
            sim.spawn(async move {
                h2.sleep(SimDuration::from_nanos(1)).await;
                cpu.compute(SimDuration::from_micros(50)).await;
            });
        }
        sim.run();
        // one free core -> 3 jobs serialized
        assert_eq!(h.now().as_nanos(), 150_001);
    }

    #[test]
    fn memcpy_time_scales_with_bytes() {
        let mut sim = Sim::new(1);
        let cpu = cpu(&sim);
        let h = sim.handle();
        let cpu2 = cpu.clone();
        let (t_small, t_big) = sim.block_on(async move {
            let t0 = h.now();
            cpu2.memcpy(1024).await;
            let t1 = h.now();
            cpu2.memcpy(65536).await;
            let t2 = h.now();
            (t1 - t0, t2 - t1)
        });
        assert!(t_big.as_nanos() > t_small.as_nanos() * 50);
        // 64KB at 80 Gbps = 6.55us
        assert!((t_big.as_micros_f64() - 6.55).abs() < 0.2);
    }
}
