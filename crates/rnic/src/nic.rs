//! The RNIC model: packet-processing engines, PCIe DMA engines, the
//! volatile SRAM staging buffer, and the PCIe posted-write ordering that
//! makes read-after-write flushing work.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use prdma_pmem::{PmDevice, VolatileMemory};
use prdma_simnet::journal::{EventKind, Journal, Subsystem, NO_ID};
use prdma_simnet::trace::{Phase, Span, Tracer};
use prdma_simnet::{FifoResource, Notify, SimDuration, SimHandle};

use crate::config::RnicConfig;
use crate::payload::Payload;

/// RNIC packet-processing engine cost per message.
const NIC_PROCESS: SimDuration = SimDuration::from_nanos(150);
/// Parallel RNIC processing units.
const NIC_UNITS: usize = 4;
/// One-way PCIe traversal latency. Posted writes (payload DMA, CQE
/// delivery) pay it once; reads (recv-WQE fetches, RDMA-read DMA) pay a
/// request + completion round trip (2x).
const PCIE_LATENCY: SimDuration = SimDuration::from_nanos(350);
/// PCIe bandwidth in Gbit/s (x16 Gen3 ~ 128 Gbit/s).
const PCIE_GBPS: f64 = 128.0;
/// Parallel DMA engines.
const DMA_UNITS: usize = 4;

/// Where a DMA lands on the receiving node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTarget {
    /// Persistent memory at this device offset.
    Pm(u64),
    /// DRAM (message buffers, application memory) at this offset.
    Dram(u64),
}

/// Errors surfaced by RDMA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaError {
    /// The remote node is down (crashed and not yet restarted).
    Disconnected,
    /// Payload exceeds the UD MTU (FaSST-style 4 KB transport limit).
    MtuExceeded {
        /// Payload size.
        len: u64,
        /// Transport MTU.
        mtu: u64,
    },
    /// Underlying PM device error.
    Pm(prdma_pmem::PmError),
    /// A content-bearing store landed on a slot that wrapped modulo the
    /// region and still holds a *different* live object — the write would
    /// silently corrupt it. Timing-only payloads never trip this.
    SlotAliased {
        /// Object id whose write was rejected.
        obj: u64,
        /// Live object currently occupying the slot.
        occupant: u64,
    },
}

impl std::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdmaError::Disconnected => write!(f, "remote node down"),
            RdmaError::MtuExceeded { len, mtu } => {
                write!(f, "payload {len} exceeds UD MTU {mtu}")
            }
            RdmaError::Pm(e) => write!(f, "PM error: {e}"),
            RdmaError::SlotAliased { obj, occupant } => {
                write!(
                    f,
                    "object {obj} wraps onto the slot holding live object {occupant}"
                )
            }
        }
    }
}

impl std::error::Error for RdmaError {}

impl From<prdma_pmem::PmError> for RdmaError {
    fn from(e: prdma_pmem::PmError) -> Self {
        RdmaError::Pm(e)
    }
}

/// Result alias for RDMA operations.
pub type RdmaResult<T> = Result<T, RdmaError>;

struct RnicInner {
    handle: SimHandle,
    cfg: RnicConfig,
    pm: PmDevice,
    dram: VolatileMemory,
    /// Packet-processing engines (per-message fixed cost).
    engine: FifoResource,
    /// PCIe DMA engines.
    dma: FifoResource,
    /// Posted (in-flight) DMA writes, by monotonically increasing ticket;
    /// PCIe ordering makes a read drain every write posted *before* it
    /// (but not writes that arrive later — otherwise a flush under
    /// constant traffic from other senders would never return).
    next_dma_ticket: Cell<u64>,
    active_dma: RefCell<std::collections::BTreeSet<u64>>,
    dma_drained: Notify,
    /// Volatile staging-buffer occupancy (bytes currently not yet DMA'd).
    sram_bytes: Cell<u64>,
    sram_peak: Cell<u64>,
    /// Liveness: false while the node is crashed.
    up: Cell<bool>,
    /// Incremented on every crash; lets protocols detect restarts.
    epoch: Cell<u64>,
    /// Id of the next QP whose writes land on this NIC.
    next_qp: Cell<u64>,
    /// `(ticket, qp)` of each PM-bound DMA that aborted mid-flight (crash
    /// / SRAM loss): its ticket completed without the data reaching the
    /// persistence domain. The posting QP's next barrier that covers it
    /// fails and removes it ([`Rnic::drain_posted_writes`]).
    aborted: RefCell<Vec<(u64, u64)>>,
    /// Fault-injected extra loss on messages *into* this node: probability
    /// and the virtual time the burst ends (ns).
    injected_loss_rate: Cell<f64>,
    injected_loss_until: Cell<u64>,
    msgs_processed: Cell<u64>,
    /// RC hardware retransmits attributed to this NIC as the sender.
    retransmits: Cell<u64>,
}

/// One RDMA NIC attached to a node's PM and DRAM. Cheap to clone.
#[derive(Clone)]
pub struct Rnic {
    inner: Rc<RnicInner>,
}

impl Rnic {
    /// Build an RNIC over the node's memories. It records into the sinks
    /// of `pm`, its node's: packet-engine time as [`Phase::Wire`],
    /// DMA-engine time as [`Phase::NicDma`], posted-write drains as
    /// [`Phase::FlushWait`], and SRAM, DMA, WQE/CQE and flush-barrier
    /// transitions into the journal when there is one.
    pub fn new(handle: SimHandle, cfg: RnicConfig, pm: PmDevice, dram: VolatileMemory) -> Self {
        let engine = FifoResource::new(handle.clone(), NIC_UNITS);
        let dma = FifoResource::new(handle.clone(), DMA_UNITS);
        Rnic {
            inner: Rc::new(RnicInner {
                handle,
                cfg,
                pm,
                dram,
                engine,
                dma,
                next_dma_ticket: Cell::new(0),
                active_dma: RefCell::default(),
                dma_drained: Notify::new(),
                sram_bytes: Cell::new(0),
                sram_peak: Cell::new(0),
                up: Cell::new(true),
                epoch: Cell::new(0),
                next_qp: Cell::new(0),
                aborted: RefCell::default(),
                injected_loss_rate: Cell::new(0.0),
                injected_loss_until: Cell::new(0),
                msgs_processed: Cell::new(0),
                retransmits: Cell::new(0),
            }),
        }
    }

    /// The node's tracer (shared with the QP layer, which records
    /// verb-post software costs and wire legs against it).
    pub fn tracer(&self) -> &Tracer {
        self.inner.pm.tracer()
    }

    fn span(&self, phase: Phase) -> Span {
        self.tracer().span(phase)
    }

    /// The node's journal (shared with the QP layer, which records
    /// doorbells and wire segments against it).
    pub fn journal(&self) -> &Journal {
        self.inner.pm.journal()
    }

    fn jot(&self, subsystem: Subsystem, kind: EventKind, wr_id: u64, bytes: u64) {
        self.journal().record(subsystem, kind, NO_ID, wr_id, bytes);
    }

    /// The configuration this RNIC was built with.
    pub fn config(&self) -> &RnicConfig {
        &self.inner.cfg
    }

    /// The node's PM device.
    pub fn pm(&self) -> &PmDevice {
        &self.inner.pm
    }

    /// The node's DRAM.
    pub fn dram(&self) -> &VolatileMemory {
        &self.inner.dram
    }

    /// The simulation handle.
    pub fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Occupy one packet-processing engine for the per-message cost.
    pub async fn process_message(&self) {
        let _span = self.span(Phase::Wire);
        self.inner.engine.process(NIC_PROCESS).await;
        self.inner
            .msgs_processed
            .set(self.inner.msgs_processed.get() + 1);
    }

    /// Admit `len` payload bytes into the volatile SRAM staging buffer.
    pub fn sram_admit(&self, len: u64) {
        let now = self.inner.sram_bytes.get() + len;
        self.inner.sram_bytes.set(now);
        self.inner
            .sram_peak
            .set(self.inner.sram_peak.get().max(now));
        self.jot(Subsystem::Nic, EventKind::SramAdmit, NO_ID, len);
    }

    /// Release staged bytes after DMA completes.
    pub fn sram_release(&self, len: u64) {
        let cur = self.inner.sram_bytes.get();
        self.inner.sram_bytes.set(cur.saturating_sub(len));
        self.jot(Subsystem::Nic, EventKind::SramRelease, NO_ID, len);
    }

    /// Peak SRAM occupancy observed (bytes).
    pub fn sram_peak(&self) -> u64 {
        self.inner.sram_peak.get()
    }

    /// Current SRAM occupancy (bytes staged, not yet DMA'd). Metrics
    /// gauge-provider hook.
    pub fn sram_bytes(&self) -> u64 {
        self.inner.sram_bytes.get()
    }

    /// Posted DMA writes currently in flight. Metrics gauge-provider
    /// hook.
    pub fn dma_inflight(&self) -> usize {
        self.inner.active_dma.borrow().len()
    }

    /// The id of a new QP whose writes land on this NIC: it keys the
    /// QP's aborted writes ([`drain_posted_writes`](Self::drain_posted_writes)).
    pub(crate) fn register_qp(&self) -> u64 {
        let id = self.inner.next_qp.get();
        self.inner.next_qp.set(id + 1);
        id
    }

    /// DMA a payload that QP `qp` posted from SRAM to `target`, honoring
    /// the DDIO setting.
    ///
    /// Resolves when the data has left the NIC *and* — for PM targets with
    /// DDIO disabled — reached the persistence domain. With DDIO enabled
    /// the data lands in the (volatile) LLC and the CPU must `clflush` it.
    ///
    /// Returns `true` iff the bytes are durable when this resolves.
    pub async fn dma_write(
        &self,
        qp: u64,
        target: MemTarget,
        payload: &Payload,
    ) -> RdmaResult<bool> {
        let ticket = self.begin_pending_dma();
        let result = self.dma_write_untracked(qp, ticket, target, payload).await;
        self.end_pending_dma(ticket);
        result
    }

    /// Like [`dma_write`](Self::dma_write) but the caller manages the
    /// posted-write markers ([`begin_pending_dma`](Self::begin_pending_dma),
    /// which returned `ticket`, and [`end_pending_dma`](Self::end_pending_dma)).
    /// Used by the QP layer, which must mark the write as posted at
    /// packet-arrival time, before the asynchronous DMA task gets scheduled.
    pub(crate) async fn dma_write_untracked(
        &self,
        qp: u64,
        ticket: u64,
        target: MemTarget,
        payload: &Payload,
    ) -> RdmaResult<bool> {
        let pcie = PCIE_LATENCY + prdma_simnet::transfer_time(payload.len(), PCIE_GBPS);
        // Power-failure semantics: if the node crashes while this DMA is in
        // flight, the transfer is aborted and nothing reaches memory.
        let epoch = self.inner.epoch.get();
        {
            let _span = self.span(Phase::NicDma);
            self.inner.dma.process(pcie).await;
        }
        if self.inner.epoch.get() != epoch || !self.inner.up.get() {
            self.note_dma_abort(qp, ticket, target);
            return Ok(false);
        }
        match target {
            MemTarget::Dram(addr) => {
                payload.try_for_each_inline(|off, bytes| {
                    self.inner.dram.write(addr + off, bytes);
                    Ok::<(), RdmaError>(())
                })?;
                Ok(false)
            }
            MemTarget::Pm(addr) => {
                if self.inner.cfg.ddio {
                    // DDIO routes the DMA into the LLC: volatile.
                    payload.try_for_each_inline(|off, bytes| {
                        self.inner.pm.cache_write(addr + off, bytes)
                    })?;
                    Ok(false)
                } else {
                    // Straight to the persistence domain: pay the media
                    // time for the whole transfer, then place the content.
                    // A crash during the media write aborts the whole
                    // transfer (all-or-nothing; torn-entry behaviour is
                    // tested separately by crafting partial images).
                    self.inner.pm.simulate_write_time(payload.len()).await;
                    if self.inner.epoch.get() != epoch || !self.inner.up.get() {
                        self.note_dma_abort(qp, ticket, target);
                        return Ok(false);
                    }
                    payload.try_for_each_inline(|off, bytes| {
                        self.inner.pm.commit_persistent(addr + off, bytes)
                    })?;
                    Ok(true)
                }
            }
        }
    }

    /// DMA-read `len` bytes from `target` for QP `qp`: the bytes when
    /// `inline`, else only the read's timing (`None`).
    ///
    /// PCIe ordering: a read request drains all previously posted DMA
    /// writes first — this is exactly the mechanism the paper's emulated
    /// `WFlush` (read-after-write) exploits.
    pub async fn dma_read(
        &self,
        qp: u64,
        target: MemTarget,
        len: u64,
        inline: bool,
    ) -> RdmaResult<Option<Vec<u8>>> {
        self.drain_posted_writes(qp).await?;
        // A DMA read is a request/completion round trip over the bus.
        let pcie = PCIE_LATENCY * 2 + prdma_simnet::transfer_time(len, PCIE_GBPS);
        {
            let _span = self.span(Phase::NicDma);
            self.inner.dma.process(pcie).await;
        }
        match target {
            MemTarget::Dram(addr) => Ok(inline.then(|| self.inner.dram.read(addr, len))),
            MemTarget::Pm(addr) => {
                if inline {
                    Ok(Some(self.inner.pm.read(addr, len).await?))
                } else {
                    self.inner.pm.simulate_read_time(len).await;
                    Ok(None)
                }
            }
        }
    }

    /// PCIe fetch of a posted recv WQE (two-sided delivery prologue).
    /// A fetch is a PCIe *read*: request + completion, two bus traversals.
    pub async fn fetch_recv_wqe(&self) {
        self.jot(Subsystem::Nic, EventKind::WqeFetch, NO_ID, 0);
        let _span = self.span(Phase::NicDma);
        self.inner.dma.process(PCIE_LATENCY * 2).await;
    }

    /// DMA the completion-queue entry of a delivered two-sided (or
    /// write-imm) message to host memory. The CPU cannot observe the
    /// completion before the CQE lands — this is part of why two-sided
    /// transports pay a higher hardware RTT than one-sided write + poll
    /// (paper Fig. 20: DaRPC vs FaRM).
    pub async fn dma_write_cqe(&self) {
        self.jot(Subsystem::Nic, EventKind::CqeWrite, NO_ID, 0);
        let _span = self.span(Phase::NicDma);
        self.inner.dma.process(PCIE_LATENCY).await;
    }

    /// Mark the start of a posted DMA write; returns its ordering ticket.
    pub(crate) fn begin_pending_dma(&self) -> u64 {
        let t = self.inner.next_dma_ticket.get();
        self.inner.next_dma_ticket.set(t + 1);
        self.inner.active_dma.borrow_mut().insert(t);
        self.jot(Subsystem::Nic, EventKind::DmaIssue, t, 0);
        t
    }

    /// Mark the end of a posted DMA write, releasing waiting reads.
    pub(crate) fn end_pending_dma(&self, ticket: u64) {
        self.inner.active_dma.borrow_mut().remove(&ticket);
        self.jot(Subsystem::Nic, EventKind::DmaComplete, ticket, 0);
        // Wake every drain waiter: each re-checks its own barrier (a
        // notify_one could wake a waiter whose barrier is not yet met,
        // losing the wake another waiter needed).
        self.inner.dma_drained.notify_all();
    }

    /// QP `qp`'s PM-bound DMA `ticket` aborted (crash / SRAM loss dropped
    /// its data after the ticket was posted): record it for the QP's next
    /// barrier. DRAM-bound aborts are invisible to persistence.
    fn note_dma_abort(&self, qp: u64, ticket: u64, target: MemTarget) {
        if matches!(target, MemTarget::Pm(_)) && !self.inner.cfg.ddio {
            self.inner.aborted.borrow_mut().push((ticket, qp));
        }
    }

    /// Wait until every DMA write posted *before now* has completed
    /// (writes posted later do not delay this — PCIe ordering is a
    /// barrier, not a quiescence requirement), on behalf of QP `qp`.
    ///
    /// Fails with [`RdmaError::Disconnected`] if the node is down when the
    /// barrier resolves, or if a PM-bound DMA that `qp` posted below the
    /// barrier was aborted by a crash or SRAM loss — an aborted ticket
    /// completes without its data reaching the persistence domain, so
    /// ACKing the barrier would certify durability over a torn entry. The
    /// failing barrier removes exactly those records, so `qp`'s next
    /// barrier starts clean. Another QP's barrier ignores them: its own
    /// writes landed.
    pub async fn drain_posted_writes(&self, qp: u64) -> RdmaResult<()> {
        let barrier = self.inner.next_dma_ticket.get();
        self.jot(Subsystem::Flush, EventKind::FlushIssue, barrier, 0);
        // Only an actual wait is a flush stall; instantaneous drains
        // (nothing posted) open no FlushWait span.
        let mut span: Option<Span> = None;
        loop {
            let oldest = self.inner.active_dma.borrow().iter().next().copied();
            match oldest {
                Some(t) if t < barrier => {
                    span.get_or_insert_with(|| self.span(Phase::FlushWait));
                    self.inner.dma_drained.notified().await;
                }
                _ => {
                    if !self.inner.up.get() || self.take_aborted(qp, barrier) {
                        return Err(RdmaError::Disconnected);
                    }
                    self.jot(Subsystem::Flush, EventKind::FlushAck, barrier, 0);
                    return Ok(());
                }
            }
        }
    }

    /// Remove `qp`'s aborted tickets below `barrier`; whether there were any.
    fn take_aborted(&self, qp: u64, barrier: u64) -> bool {
        let mut aborted = self.inner.aborted.borrow_mut();
        let before = aborted.len();
        aborted.retain(|&(t, q)| q != qp || t >= barrier);
        aborted.len() < before
    }

    /// Whether the node is currently up.
    pub fn is_up(&self) -> bool {
        self.inner.up.get()
    }

    /// Crash the node: RNIC SRAM contents are lost, DRAM is cleared, PM
    /// dirty cache lines are dropped. The node stays down until
    /// [`restart`](Self::restart).
    pub fn crash(&self) {
        self.inner.up.set(false);
        self.inner.epoch.set(self.inner.epoch.get() + 1);
        self.inner.sram_bytes.set(0);
        self.inner.pm.crash();
        self.inner.dram.crash();
    }

    /// Bring the node back up after a crash. Also drops every aborted-DMA
    /// record: a restart implies a NIC reset, and the recovery scan that
    /// follows it accounts for every torn log entry.
    pub fn restart(&self) {
        self.inner.up.set(true);
        self.inner.aborted.borrow_mut().clear();
    }

    /// Drop the NIC's volatile staging SRAM and abort in-flight DMA while
    /// the NIC stays up (an NIC-internal reset). Epoch bumps exactly as on
    /// a crash, so every in-flight transfer is discarded; PM, DRAM, and
    /// connectivity are untouched. Each aborted PM-bound DMA fails the
    /// next flush barrier of the QP that posted it, once
    /// ([`drain_posted_writes`](Self::drain_posted_writes)).
    pub fn lose_sram(&self) {
        self.inner.epoch.set(self.inner.epoch.get() + 1);
        self.inner.sram_bytes.set(0);
    }

    /// Inject extra loss with probability `rate` on messages into this
    /// node until virtual time `until` (fault-injection hook; RC absorbs
    /// the loss via hardware retransmit, UC/UD drop silently).
    pub fn inject_loss(&self, rate: f64, until: prdma_simnet::SimTime) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        self.inner.injected_loss_rate.set(rate);
        self.inner.injected_loss_until.set(until.as_nanos());
    }

    /// The currently active injected loss rate (0 outside any burst).
    pub fn injected_loss(&self) -> f64 {
        if self.inner.handle.now().as_nanos() < self.inner.injected_loss_until.get() {
            self.inner.injected_loss_rate.get()
        } else {
            0.0
        }
    }

    /// Crash epoch (number of crashes so far).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.get()
    }

    /// Messages handled by the processing engines.
    pub fn msgs_processed(&self) -> u64 {
        self.inner.msgs_processed.get()
    }

    /// Note one RC hardware retransmit with this NIC as the sender
    /// (bumped by the QP layer's loss path).
    pub fn note_retransmit(&self) {
        self.inner.retransmits.set(self.inner.retransmits.get() + 1);
    }

    /// RC hardware retransmits sent by this NIC so far.
    pub fn retransmits(&self) -> u64 {
        self.inner.retransmits.get()
    }

    /// Fail with [`RdmaError::Disconnected`] if the node is down.
    pub fn check_up(&self) -> RdmaResult<()> {
        if self.inner.up.get() {
            Ok(())
        } else {
            Err(RdmaError::Disconnected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_simnet::Sim;

    fn rnic_fixture(sim: &Sim) -> Rnic {
        rnic_with(sim, RnicConfig::default())
    }

    fn rnic_with(sim: &Sim, cfg: RnicConfig) -> Rnic {
        let tracer = Tracer::new(sim.handle());
        let pm = PmDevice::new(sim.handle(), 1 << 20, tracer, Journal::off());
        Rnic::new(sim.handle(), cfg, pm, VolatileMemory::new(1 << 20))
    }

    #[test]
    fn dma_write_to_pm_is_durable_without_ddio() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let nic2 = nic.clone();
        let durable = sim.block_on(async move {
            nic2.dma_write(0, MemTarget::Pm(0), &Payload::from_bytes(vec![7; 128]))
                .await
                .unwrap()
        });
        assert!(durable);
        assert_eq!(nic.pm().read_persistent_view(0, 128), vec![7; 128]);
    }

    #[test]
    fn dma_write_with_ddio_is_volatile() {
        let mut sim = Sim::new(1);
        let nic = rnic_with(&sim, RnicConfig::with_ddio());
        let nic2 = nic.clone();
        let durable = sim.block_on(async move {
            nic2.dma_write(0, MemTarget::Pm(0), &Payload::from_bytes(vec![9; 64]))
                .await
                .unwrap()
        });
        assert!(!durable);
        // visible to the CPU, not yet persistent
        assert_eq!(nic.pm().read_volatile_view(0, 64), vec![9; 64]);
        assert!(!nic.pm().is_persisted(0, 64));
    }

    #[test]
    fn dma_read_drains_posted_writes() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let h = sim.handle();
        let nic_w = nic.clone();
        let h2 = h.clone();
        // A slow posted write in flight...
        sim.spawn(async move {
            let ticket = nic_w.begin_pending_dma();
            h2.sleep(SimDuration::from_micros(50)).await;
            nic_w.end_pending_dma(ticket);
        });
        let nic_r = nic.clone();
        let t = sim.block_on(async move {
            h.sleep(SimDuration::from_nanos(1)).await;
            nic_r.dma_read(0, MemTarget::Pm(0), 1, false).await.unwrap();
            h.now()
        });
        // The read could not start before the posted write finished at 50us.
        assert!(t.as_nanos() >= 50_000, "read returned at {t}");
    }

    #[test]
    fn crash_clears_memories_and_bumps_epoch() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let nic2 = nic.clone();
        sim.block_on(async move {
            nic2.dma_write(0, MemTarget::Pm(0), &Payload::from_bytes(vec![1; 8]))
                .await
                .unwrap();
        });
        nic.dram().write(0, b"xx");
        nic.pm().cache_write(512, b"dirty").unwrap();
        nic.crash();
        assert!(!nic.is_up());
        assert_eq!(nic.epoch(), 1);
        assert_eq!(nic.check_up(), Err(RdmaError::Disconnected));
        // persisted PM survives; DRAM and dirty lines do not
        assert_eq!(nic.pm().read_persistent_view(0, 8), vec![1; 8]);
        assert_eq!(nic.dram().read(0, 2), vec![0, 0]);
        assert!(nic.pm().is_persisted(512, 5)); // dirty line dropped
        assert_eq!(nic.pm().read_volatile_view(512, 5), vec![0; 5]);
        nic.restart();
        assert!(nic.is_up());
    }

    /// Post a PM write on `qp` and drop the SRAM while it is in flight;
    /// returns once the write has noticed the loss and aborted.
    fn abort_inflight_write(sim: &mut Sim, nic: &Rnic, qp: u64) {
        let nic_w = nic.clone();
        sim.spawn(async move {
            let durable = nic_w
                .dma_write(qp, MemTarget::Pm(0), &Payload::from_bytes(vec![5; 4096]))
                .await
                .unwrap();
            assert!(!durable, "aborted DMA must not report durability");
        });
        let (nic_l, h) = (nic.clone(), sim.handle());
        sim.block_on(async move {
            h.sleep(SimDuration::from_nanos(200)).await;
            nic_l.lose_sram();
            h.sleep(SimDuration::from_micros(100)).await;
        });
        assert!(nic.is_up(), "SRAM loss must not take the node down");
        assert_eq!(nic.dma_inflight(), 0);
        assert_eq!(nic.pm().read_persistent_view(0, 8), vec![0; 8]);
    }

    #[test]
    fn sram_loss_fails_the_owning_qps_next_barrier_once() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let qp = nic.register_qp();
        abort_inflight_write(&mut sim, &nic, qp);
        // No restart: the barrier that covers the aborted ticket fails and
        // takes its record, so the QP's next barrier starts clean.
        let nic_f = nic.clone();
        let barriers = sim.block_on(async move {
            let first = nic_f.drain_posted_writes(qp).await;
            (first, nic_f.drain_posted_writes(qp).await)
        });
        assert_eq!(barriers, (Err(RdmaError::Disconnected), Ok(())));
    }

    #[test]
    fn another_qps_barrier_ignores_the_aborted_write() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let (owner, other) = (nic.register_qp(), nic.register_qp());
        abort_inflight_write(&mut sim, &nic, owner);
        // The other QP's barrier covers the aborted ticket, but its own
        // writes landed; it must neither fail nor take the owner's record.
        let nic_f = nic.clone();
        let barriers = sim.block_on(async move {
            let theirs = nic_f.drain_posted_writes(other).await;
            (theirs, nic_f.drain_posted_writes(owner).await)
        });
        assert_eq!(barriers, (Ok(()), Err(RdmaError::Disconnected)));
    }

    #[test]
    fn restart_drops_every_abort_record() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let qp = nic.register_qp();
        abort_inflight_write(&mut sim, &nic, qp);
        // The NIC reset after a crash; log recovery accounts for the
        // torn entry, so no barrier is failed on its behalf.
        nic.restart();
        let nic_f = nic.clone();
        let barrier = sim.block_on(async move { nic_f.drain_posted_writes(qp).await });
        assert_eq!(barrier, Ok(()));
    }

    #[test]
    fn injected_loss_expires_with_virtual_time() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        nic.inject_loss(0.5, prdma_simnet::SimTime::from_nanos(1_000));
        assert_eq!(nic.injected_loss(), 0.5);
        let nic2 = nic.clone();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(SimDuration::from_micros(2)).await;
        });
        assert_eq!(nic2.injected_loss(), 0.0, "burst must expire");
    }

    #[test]
    fn sram_accounting_tracks_peak() {
        let sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        nic.sram_admit(1000);
        nic.sram_admit(500);
        nic.sram_release(1000);
        nic.sram_admit(100);
        assert_eq!(nic.sram_peak(), 1500);
    }

    #[test]
    fn synthetic_payload_models_time_without_content() {
        let mut sim = Sim::new(1);
        let nic = rnic_fixture(&sim);
        let h = sim.handle();
        let nic2 = nic.clone();
        let t = sim.block_on(async move {
            nic2.dma_write(0, MemTarget::Pm(0), &Payload::synthetic(65536, 1))
                .await
                .unwrap();
            h.now()
        });
        // 64 KiB at PCIe 128 Gbps (~4.1us) + PM write (~8.5us) + latencies
        assert!(t.as_nanos() > 10_000, "t = {t}");
        // contents untouched
        assert_eq!(nic.pm().read_persistent_view(0, 8), vec![0; 8]);
    }
}
