//! Queue pairs and RDMA verbs.
//!
//! The verbs reproduce the completion semantics the paper builds on
//! (Section 2.4, Fig. 1):
//!
//! * **RC**: the sender's work completion (WC) fires when the receiving
//!   RNIC has the data in its *volatile* SRAM and has returned a hardware
//!   ACK — i.e. **before** the data is persistent. The DMA to memory/PM
//!   proceeds asynchronously; [`PersistToken`] resolves when it lands.
//! * **UC/UD**: the WC fires once the sender RNIC has pushed the data onto
//!   the wire; nothing at all is known about the receiver.
//! * **read**: PCIe ordering forces the remote RNIC to drain posted DMA
//!   writes before servicing the read — the mechanism behind the paper's
//!   emulated `WFlush` (read-after-write).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::trace::{Phase, Span};
use prdma_simnet::{
    oneshot, FifoResource, Notify, OneshotPool, OneshotReceiver, SharedLink, SimDuration, SimHandle,
};

use crate::nic::{MemTarget, RdmaError, RdmaResult, Rnic};
use crate::payload::Payload;

/// Wire/transport header bytes added to every message.
const HEADER_BYTES: u64 = 60;
/// Size of an RC hardware ACK on the wire.
const ACK_BYTES: u64 = 20;
/// Sender software cost to post a one-sided WQE (write/read);
/// FaSST/HERD measure 65–100 ns per post.
pub const POST_ONESIDED: SimDuration = SimDuration::from_nanos(70);
/// Sender software cost to post a two-sided WQE (send), which also
/// covers (batch-amortized) recv-WQE replenishment on the sender.
const POST_TWOSIDED: SimDuration = SimDuration::from_nanos(150);
/// Additional per-WQE cost when posting to a doorbell in a batch
/// (amortized fraction of a full post).
const POST_BATCHED_EXTRA: SimDuration = SimDuration::from_nanos(60);
/// Maximum transmission unit for UD transport (FaSST's 4 KB limit).
pub const UD_MTU: u64 = 4096;
/// Hardware retransmission delay RC pays per lost packet.
const RC_RETRANSMIT_DELAY: SimDuration = SimDuration::from_micros(16);

/// RDMA transport mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpMode {
    /// Reliable connection: lossless, in-order, hardware-ACKed.
    Rc,
    /// Unreliable connection.
    Uc,
    /// Unreliable datagram (MTU-limited).
    Ud,
}

/// A completion delivered to the receiver's CQ for two-sided traffic
/// (`send`) and `write_imm`.
#[derive(Debug, Clone)]
pub struct RecvCompletion {
    /// The received payload.
    pub payload: Payload,
    /// Immediate value, if this was a `write_imm`.
    pub imm: Option<u32>,
    /// Where the data was placed.
    pub target: MemTarget,
    /// Whether the data was already durable when this completion fired
    /// (true only for PM targets with DDIO disabled).
    pub durable: bool,
}

/// Outcome of a receiver-side DMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaOutcome {
    /// Bytes reached the persistence domain.
    pub durable: bool,
    /// The message reached the receiver at all (false = dropped on an
    /// unreliable transport; the sender's WC fired regardless).
    pub delivered: bool,
}

/// Resolves when an RDMA write/send's DMA has finished on the receiver;
/// yields whether the bytes are durable at that point.
pub struct PersistToken {
    rx: OneshotReceiver<DmaOutcome>,
}

impl PersistToken {
    /// Wait for the receiver-side DMA to complete; returns durability.
    pub async fn wait(self) -> bool {
        self.rx.await.map(|o| o.durable).unwrap_or(false)
    }

    /// Wait for the full outcome (durability + delivery) — what
    /// unreliable-transport protocols poll to decide on retries.
    pub async fn wait_outcome(self) -> DmaOutcome {
        self.rx.await.unwrap_or(DmaOutcome {
            durable: false,
            delivered: false,
        })
    }

    /// A token that is already resolved (for error paths / tests).
    pub fn resolved(durable: bool) -> Self {
        let (tx, rx) = oneshot();
        tx.send(DmaOutcome {
            durable,
            delivered: true,
        });
        PersistToken { rx }
    }

    /// A token for a message dropped on an unreliable transport.
    pub fn resolved_dropped() -> Self {
        let (tx, rx) = oneshot();
        tx.send(DmaOutcome {
            durable: false,
            delivered: false,
        });
        PersistToken { rx }
    }
}

/// One endpoint's receive-side state (posted recv WQEs + CQ).
struct Endpoint {
    posted_recvs: RefCell<VecDeque<MemTarget>>,
    recv_posted: Notify,
    completions: RefCell<VecDeque<RecvCompletion>>,
    completion_ready: Notify,
}

impl Endpoint {
    fn new() -> Rc<Self> {
        Rc::new(Endpoint {
            posted_recvs: RefCell::new(VecDeque::new()),
            recv_posted: Notify::new(),
            completions: RefCell::new(VecDeque::new()),
            completion_ready: Notify::new(),
        })
    }

    async fn take_recv_target(&self) -> MemTarget {
        loop {
            if let Some(t) = self.posted_recvs.borrow_mut().pop_front() {
                return t;
            }
            self.recv_posted.notified().await;
        }
    }

    fn push_completion(&self, c: RecvCompletion) {
        self.completions.borrow_mut().push_back(c);
        self.completion_ready.notify_one();
    }

    async fn pop_completion(&self) -> RecvCompletion {
        loop {
            if let Some(c) = self.completions.borrow_mut().pop_front() {
                return c;
            }
            self.completion_ready.notified().await;
        }
    }
}

struct QpInner {
    handle: SimHandle,
    mode: QpMode,
    local: Rnic,
    remote: Rnic,
    /// This QP's id on the remote NIC, where its writes land: it keys
    /// the QP's aborted writes there.
    id: u64,
    out_link: SharedLink,
    back_link: SharedLink,
    local_ep: Rc<Endpoint>,
    remote_ep: Rc<Endpoint>,
    /// Core pool verb posts queue on (the connecting side of a cluster
    /// connection), so sender CPU contention (paper Fig. 16) delays
    /// posts; without one a post sleeps its cost.
    sender_cpu: Option<FifoResource>,
    /// RPC id stamped onto the next posted verb's journal records
    /// ([`Qp::tag_rpc`]); consumed (reset to `NO_ID`) at verb entry.
    rpc_tag: Cell<u64>,
    /// Per-connection recycler for the one [`PersistToken`] oneshot
    /// every verb mints — at open-loop scale the dominant short-lived
    /// allocation on the data path.
    token_pool: OneshotPool<DmaOutcome>,
}

/// One endpoint of a connected queue pair.
#[derive(Clone)]
pub struct Qp {
    inner: Rc<QpInner>,
}

/// Create a connected QP pair between two RNICs over the given directed
/// links. `(a_to_b, b_to_a)` are the wire directions; `a_cpu`, if given,
/// is the core pool `a`'s verb posts queue on (`b`'s posts sleep their
/// cost).
pub fn connect(
    handle: SimHandle,
    mode: QpMode,
    a: Rnic,
    b: Rnic,
    a_to_b: SharedLink,
    b_to_a: SharedLink,
    a_cpu: Option<FifoResource>,
) -> (Qp, Qp) {
    let ep_a = Endpoint::new();
    let ep_b = Endpoint::new();
    let qa = Qp {
        inner: Rc::new(QpInner {
            handle: handle.clone(),
            mode,
            local: a.clone(),
            remote: b.clone(),
            id: b.register_qp(),
            out_link: a_to_b.clone(),
            back_link: b_to_a.clone(),
            local_ep: Rc::clone(&ep_a),
            remote_ep: Rc::clone(&ep_b),
            sender_cpu: a_cpu,
            rpc_tag: Cell::new(NO_ID),
            token_pool: OneshotPool::new(),
        }),
    };
    let qb = Qp {
        inner: Rc::new(QpInner {
            handle,
            mode,
            id: a.register_qp(),
            local: b,
            remote: a,
            out_link: b_to_a,
            back_link: a_to_b,
            local_ep: ep_b,
            remote_ep: ep_a,
            sender_cpu: None,
            rpc_tag: Cell::new(NO_ID),
            token_pool: OneshotPool::new(),
        }),
    };
    (qa, qb)
}

impl Qp {
    /// Transport mode of this QP.
    pub fn mode(&self) -> QpMode {
        self.inner.mode
    }

    /// The local RNIC.
    pub fn local(&self) -> &Rnic {
        &self.inner.local
    }

    /// The remote RNIC.
    pub fn remote(&self) -> &Rnic {
        &self.inner.remote
    }

    /// Stamp the next posted verb's journal records with an RPC id, so
    /// span analyzers can attribute individual wire segments (data-out,
    /// retransmits, hardware ACKs) to the request that caused them. The
    /// tag applies to exactly one verb: it is consumed at the next verb's
    /// entry, before any interleaving can occur (the cooperative executor
    /// polls the verb's future synchronously).
    pub fn tag_rpc(&self, rpc_id: u64) {
        self.inner.rpc_tag.set(rpc_id);
    }

    fn take_tag(&self) -> u64 {
        self.inner.rpc_tag.replace(NO_ID)
    }

    /// Journal one event on the posting (local) node's Qp track.
    fn jot_local(&self, kind: EventKind, rpc_id: u64, bytes: u64) {
        let j = self.inner.local.journal();
        j.record(Subsystem::Qp, kind, rpc_id, NO_ID, bytes);
    }

    /// Journal one event on the remote node's Qp track (segments the
    /// remote NIC puts on the wire back toward us: ACKs, read data).
    fn jot_remote(&self, kind: EventKind, rpc_id: u64, bytes: u64) {
        let j = self.inner.remote.journal();
        j.record(Subsystem::Qp, kind, rpc_id, NO_ID, bytes);
    }

    async fn post_cost(&self, rpc: u64, d: SimDuration) {
        // Verb posting is software on the local node; the tracer's role
        // decides whether that is sender- or receiver-side time.
        self.jot_local(EventKind::Doorbell, rpc, 0);
        let _span = self.inner.local.tracer().span_sw();
        match &self.inner.sender_cpu {
            Some(cpu) => cpu.process(d).await,
            None => self.inner.handle.sleep(d).await,
        }
    }

    /// Wire-phase span against the local node's tracer (link legs).
    fn wire_span(&self) -> Span {
        self.inner.local.tracer().span(Phase::Wire)
    }

    fn check_mtu(&self, len: u64) -> RdmaResult<()> {
        if self.inner.mode == QpMode::Ud && len > UD_MTU {
            return Err(RdmaError::MtuExceeded { len, mtu: UD_MTU });
        }
        Ok(())
    }

    /// One-sided RDMA write. Resolves at the sender's WC (see module docs);
    /// the returned token resolves when the receiver-side DMA lands.
    pub async fn write(&self, target: MemTarget, payload: Payload) -> RdmaResult<PersistToken> {
        let rpc = self.take_tag();
        self.check_mtu(payload.len())?;
        self.post_cost(rpc, POST_ONESIDED).await;
        self.transfer_and_ack(rpc, Delivery::Write { target }, payload, None)
            .await
    }

    /// RDMA write with a 32-bit immediate: like `write`, plus a completion
    /// event in the receiver's CQ once the data is placed.
    pub async fn write_imm(
        &self,
        target: MemTarget,
        payload: Payload,
        imm: u32,
    ) -> RdmaResult<PersistToken> {
        let rpc = self.take_tag();
        self.check_mtu(payload.len())?;
        self.post_cost(rpc, POST_ONESIDED).await;
        self.transfer_and_ack(rpc, Delivery::Write { target }, payload, Some(imm))
            .await
    }

    /// Two-sided RDMA send: the receiver must have posted a recv buffer;
    /// data is DMA'd there and a CQ completion is raised.
    pub async fn send(&self, payload: Payload) -> RdmaResult<PersistToken> {
        let rpc = self.take_tag();
        self.check_mtu(payload.len())?;
        self.post_cost(rpc, POST_TWOSIDED).await;
        self.transfer_and_ack(rpc, Delivery::Send, payload, None)
            .await
    }

    /// Doorbell-batched writes: one post for `items.len()` WQEs, messages
    /// pipelined on the wire, a single coalesced RC ACK at the end.
    pub async fn write_batch(
        &self,
        items: Vec<(MemTarget, Payload)>,
    ) -> RdmaResult<Vec<PersistToken>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        for (_, p) in &items {
            self.check_mtu(p.len())?;
        }
        let rpc = self.take_tag();
        let k = items.len() as u64;
        self.post_cost(rpc, POST_ONESIDED + POST_BATCHED_EXTRA * (k - 1))
            .await;
        let mut tokens = Vec::with_capacity(items.len());
        let n = items.len();
        for (i, (target, payload)) in items.into_iter().enumerate() {
            let last = i + 1 == n;
            let token = self
                .transfer(rpc, Delivery::Write { target }, payload, None, last)
                .await?;
            tokens.push(token);
        }
        Ok(tokens)
    }

    /// Doorbell-batched sends: one post for all WQEs, messages pipelined
    /// on the wire, a single coalesced RC ACK. Each message still pays
    /// its per-message receiver costs (recv-WQE fetch, delivery).
    pub async fn send_batch(&self, payloads: Vec<Payload>) -> RdmaResult<Vec<PersistToken>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        for p in &payloads {
            self.check_mtu(p.len())?;
        }
        let rpc = self.take_tag();
        let k = payloads.len() as u64;
        self.post_cost(rpc, POST_TWOSIDED + POST_BATCHED_EXTRA * (k - 1))
            .await;
        let mut tokens = Vec::with_capacity(payloads.len());
        let n = payloads.len();
        for (i, payload) in payloads.into_iter().enumerate() {
            let last = i + 1 == n;
            tokens.push(
                self.transfer(rpc, Delivery::Send, payload, None, last)
                    .await?,
            );
        }
        Ok(tokens)
    }

    /// One-sided RDMA read returning real content.
    pub async fn read_bytes(&self, target: MemTarget, len: u64) -> RdmaResult<Vec<u8>> {
        let bytes = self.read_inner(target, len, true, false).await?;
        Ok(bytes.expect("an inline read returns bytes"))
    }

    /// One-sided RDMA read modeling only the transfer time (benchmarks).
    pub async fn read_synthetic(&self, target: MemTarget, len: u64) -> RdmaResult<()> {
        self.read_inner(target, len, false, false).await?;
        Ok(())
    }

    /// One-sided GET fast path: an RDMA READ of a server-published DRAM
    /// mirror slot. Same wire and remote-PCIe legs as [`Qp::read_bytes`]
    /// (the remote RNIC drains posted writes and pays the PCIe read
    /// round trip), but the response payload is additionally staged
    /// through the *local* RNIC's SRAM on arrival — the read-side
    /// counterpart of the write path's staging — so mirror-read traffic
    /// shows up in SRAM occupancy gauges and contends for staging space.
    pub async fn read_mirror(&self, target: MemTarget, len: u64) -> RdmaResult<Vec<u8>> {
        let bytes = self.read_inner(target, len, true, true).await?;
        Ok(bytes.expect("an inline read returns bytes"))
    }

    /// The read round trip; `stage` passes the response through the local
    /// RNIC's SRAM ([`Qp::read_mirror`]).
    async fn read_inner(
        &self,
        target: MemTarget,
        len: u64,
        inline: bool,
        stage: bool,
    ) -> RdmaResult<Option<Vec<u8>>> {
        let rpc = self.take_tag();
        self.inner.remote.check_up()?;
        self.post_cost(rpc, POST_ONESIDED).await;
        self.inner.local.process_message().await;
        // Read request: header-sized message.
        {
            let _span = self.wire_span();
            self.jot_local(EventKind::WireSegment, rpc, HEADER_BYTES + 16);
            self.inner.out_link.transmit(HEADER_BYTES + 16).await;
        }
        self.inner.remote.check_up()?;
        self.inner.remote.process_message().await;
        let remote = &self.inner.remote;
        let bytes = remote.dma_read(self.inner.id, target, len, inline).await?;
        {
            let _span = self.wire_span();
            self.jot_remote(EventKind::WireSegment, rpc, HEADER_BYTES + len);
            self.inner.back_link.transmit(HEADER_BYTES + len).await;
        }
        if stage {
            self.inner.local.sram_admit(len);
        }
        self.inner.local.process_message().await;
        if stage {
            self.inner.local.sram_release(len);
        }
        Ok(bytes)
    }

    /// A flush-style control round trip: a header-only command that makes
    /// the remote RNIC drain its posted DMA writes before ACKing. This is
    /// the wire behaviour of a native RDMA Flush verb (no PCIe read is
    /// performed, unlike the emulated read-after-write).
    pub async fn flush_command(&self) -> RdmaResult<()> {
        let rpc = self.take_tag();
        self.inner.remote.check_up()?;
        self.inner.local.process_message().await;
        {
            let _span = self.wire_span();
            self.jot_local(EventKind::WireSegment, rpc, HEADER_BYTES);
            self.inner.out_link.transmit(HEADER_BYTES).await;
        }
        self.inner.remote.check_up()?;
        self.inner.remote.process_message().await;
        self.inner.remote.drain_posted_writes(self.inner.id).await?;
        {
            let _span = self.wire_span();
            self.jot_remote(EventKind::WireSegment, rpc, ACK_BYTES);
            self.inner.back_link.transmit(ACK_BYTES).await;
        }
        self.inner.local.process_message().await;
        Ok(())
    }

    /// Post a receive buffer for inbound `send`s.
    pub fn post_recv(&self, target: MemTarget) {
        self.inner
            .local_ep
            .posted_recvs
            .borrow_mut()
            .push_back(target);
        self.inner.local_ep.recv_posted.notify_one();
    }

    /// Flush this endpoint's receive ring: drop every posted-but-unconsumed
    /// recv WQE and any undrained completions, returning how many of each
    /// were discarded. Models the software re-arm after a QP error
    /// transition — a crash that aborts an in-flight send consumes a WQE
    /// that can never complete, leaving the surviving ring offset from
    /// what the application posted; recovery flushes and re-posts.
    pub fn flush_recvs(&self) -> (usize, usize) {
        let ep = &self.inner.local_ep;
        let wqes = std::mem::take(&mut *ep.posted_recvs.borrow_mut()).len();
        let cqes = std::mem::take(&mut *ep.completions.borrow_mut()).len();
        (wqes, cqes)
    }

    /// Await the next CQ completion (inbound `send` or `write_imm`).
    pub async fn recv(&self) -> RecvCompletion {
        self.inner.local_ep.pop_completion().await
    }

    /// Non-blocking CQ poll.
    pub fn try_recv(&self) -> Option<RecvCompletion> {
        self.inner.local_ep.completions.borrow_mut().pop_front()
    }

    async fn transfer_and_ack(
        &self,
        rpc: u64,
        delivery: Delivery,
        payload: Payload,
        imm: Option<u32>,
    ) -> RdmaResult<PersistToken> {
        self.transfer(rpc, delivery, payload, imm, true).await
    }

    /// The shared wire path: local NIC -> link -> remote NIC -> SRAM, then
    /// an asynchronous DMA/delivery task; RC additionally waits for the
    /// hardware ACK before returning (`ack` selects whether this message
    /// carries the coalesced ACK in a batch).
    async fn transfer(
        &self,
        rpc: u64,
        delivery: Delivery,
        payload: Payload,
        imm: Option<u32>,
        ack: bool,
    ) -> RdmaResult<PersistToken> {
        self.inner.remote.check_up()?;
        let len = payload.len();
        self.inner.local.process_message().await;
        {
            let _span = self.wire_span();
            self.jot_local(EventKind::WireSegment, rpc, HEADER_BYTES + len);
            self.inner.out_link.transmit(HEADER_BYTES + len).await;
        }
        // Wire loss: RC retransmits in hardware (pure delay); UC/UD drop
        // the message silently — the sender still gets its local WC. The
        // rate is whatever loss is injected on the receiving node; the RNG
        // is only consulted when a loss is possible, so loss-free schedules
        // are byte-identical with and without the fault machinery.
        let loss_rate = self.inner.remote.injected_loss();
        if loss_rate > 0.0 && self.inner.handle.gen_f64() < loss_rate {
            match self.inner.mode {
                QpMode::Rc => {
                    let _span = self.wire_span();
                    self.inner.local.note_retransmit();
                    self.inner.handle.sleep(RC_RETRANSMIT_DELAY).await;
                    self.jot_local(EventKind::WireSegment, rpc, HEADER_BYTES + len);
                    self.inner.out_link.transmit(HEADER_BYTES + len).await;
                }
                QpMode::Uc | QpMode::Ud => {
                    return Ok(PersistToken::resolved_dropped());
                }
            }
        }
        self.inner.remote.check_up()?;
        self.inner.remote.process_message().await;

        // Data is now staged in the remote RNIC's volatile SRAM.
        self.inner.remote.sram_admit(len);
        let (tx, rx) = self.inner.token_pool.oneshot();
        let ticket = self.inner.remote.begin_pending_dma();
        let id = self.inner.id;
        let remote = self.inner.remote.clone();
        let remote_ep = Rc::clone(&self.inner.remote_ep);
        self.inner.handle.spawn(async move {
            let (target, consumed_recv) = match delivery {
                Delivery::Write { target } => {
                    if imm.is_some() {
                        // write-imm consumes a recv WQE for its CQ event:
                        // the RNIC fetches it over PCIe (IB semantics).
                        remote.fetch_recv_wqe().await;
                    }
                    (target, false)
                }
                Delivery::Send => {
                    let t = remote_ep.take_recv_target().await;
                    // Two-sided delivery: the RNIC fetches the recv WQE
                    // over PCIe before it can DMA the payload.
                    remote.fetch_recv_wqe().await;
                    (t, true)
                }
            };
            let durable = remote
                .dma_write_untracked(id, ticket, target, &payload)
                .await
                .unwrap_or(false);
            remote.end_pending_dma(ticket);
            remote.sram_release(len);
            if consumed_recv || imm.is_some() {
                // The receiving CPU sees the completion only once the CQE
                // itself has been DMAed to host memory.
                remote.dma_write_cqe().await;
                remote_ep.push_completion(RecvCompletion {
                    payload,
                    imm,
                    target,
                    durable,
                });
            }
            tx.send(DmaOutcome {
                durable,
                delivered: true,
            });
        });

        if self.inner.mode == QpMode::Rc && ack {
            // Hardware ACK generated at SRAM arrival (NOT persistence).
            {
                let _span = self.wire_span();
                self.jot_remote(EventKind::WireSegment, rpc, ACK_BYTES);
                self.inner.back_link.transmit(ACK_BYTES).await;
            }
            self.inner.local.process_message().await;
        }
        Ok(PersistToken { rx })
    }
}

#[derive(Clone, Copy)]
enum Delivery {
    Write { target: MemTarget },
    Send,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RnicConfig;
    use crate::fabric::{LINK_GBPS, PROPAGATION};
    use prdma_pmem::{PmDevice, VolatileMemory};
    use prdma_simnet::{transfer_time, Journal, Sim, SimTime, Tracer};

    fn pair(sim: &Sim, mode: QpMode) -> (Qp, Qp) {
        pair_cfg(sim, mode, RnicConfig::default())
    }

    fn pair_cfg(sim: &Sim, mode: QpMode, cfg: RnicConfig) -> (Qp, Qp) {
        let h = sim.handle();
        let mk = |cfg: &RnicConfig| {
            let tracer = Tracer::new(h.clone());
            let pm = PmDevice::new(h.clone(), 1 << 20, tracer, Journal::off());
            let dram = VolatileMemory::new(1 << 20);
            Rnic::new(h.clone(), cfg.clone(), pm, dram)
        };
        let a = mk(&cfg);
        let b = mk(&cfg);
        let ab = SharedLink::new(h.clone(), LINK_GBPS, PROPAGATION);
        let ba = SharedLink::new(h.clone(), LINK_GBPS, PROPAGATION);
        connect(h, mode, a, b, ab, ba, None)
    }

    #[test]
    fn rc_write_places_data_in_remote_pm() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair(&sim, QpMode::Rc);
        let qa2 = qa.clone();
        sim.block_on(async move {
            let token = qa2
                .write(
                    MemTarget::Pm(64),
                    Payload::from_bytes(b"persist me".to_vec()),
                )
                .await
                .unwrap();
            assert!(token.wait().await);
        });
        assert_eq!(qb.local().pm().read_persistent_view(64, 10), b"persist me");
    }

    #[test]
    fn rc_wc_fires_before_persistence() {
        let mut sim = Sim::new(1);
        let (qa, _qb) = pair(&sim, QpMode::Rc);
        let h = sim.handle();
        let (wc_at, persist_at) = sim.block_on(async move {
            let token = qa
                .write(MemTarget::Pm(0), Payload::synthetic(65536, 1))
                .await
                .unwrap();
            let wc = h.now();
            token.wait().await;
            (wc, h.now())
        });
        // This is the paper's core hazard: WC (ACK) precedes durability.
        assert!(wc_at < persist_at, "wc {wc_at} persist {persist_at}");
    }

    #[test]
    fn rc_small_write_rtt_in_expected_range() {
        let mut sim = Sim::new(1);
        let (qa, _qb) = pair(&sim, QpMode::Rc);
        let h = sim.handle();
        let t = sim.block_on(async move {
            qa.write(MemTarget::Pm(0), Payload::synthetic(32, 0))
                .await
                .unwrap();
            h.now()
        });
        // Calibration target: a small RC write completes (post to WC) in
        // ~1.5-2 us on ConnectX-4-class hardware.
        let us = t.as_nanos() as f64 / 1000.0;
        assert!((1.2..3.0).contains(&us), "RTT {us} us");
    }

    #[test]
    fn uc_write_completes_without_ack_leg() {
        let mut sim = Sim::new(2);
        let (qa_rc, _b1) = pair(&sim, QpMode::Rc);
        let h = sim.handle();
        let t_rc = sim.block_on(async move {
            qa_rc
                .write(MemTarget::Pm(0), Payload::synthetic(1024, 0))
                .await
                .unwrap();
            h.now()
        });
        let mut sim2 = Sim::new(2);
        let (qa_uc, _b2) = pair(&sim2, QpMode::Uc);
        let h2 = sim2.handle();
        let t_uc = sim2.block_on(async move {
            qa_uc
                .write(MemTarget::Pm(0), Payload::synthetic(1024, 0))
                .await
                .unwrap();
            h2.now()
        });
        assert!(t_uc < t_rc, "uc {t_uc} !< rc {t_rc}");
    }

    #[test]
    fn ud_send_respects_mtu() {
        let mut sim = Sim::new(1);
        let (qa, _qb) = pair(&sim, QpMode::Ud);
        let err =
            sim.block_on(async move { qa.send(Payload::synthetic(8192, 0)).await.err().unwrap() });
        assert_eq!(
            err,
            RdmaError::MtuExceeded {
                len: 8192,
                mtu: 4096
            }
        );
    }

    #[test]
    fn injected_loss_drops_ud_and_delays_rc_by_one_retransmit() {
        // One 64 B message with total loss injected on the destination
        // NIC (or none): the WC time and the receiver-side outcome.
        let run = |mode: QpMode, lossy: bool| {
            let mut sim = Sim::new(1);
            let (qa, qb) = pair(&sim, mode);
            if lossy {
                let forever = SimTime::from_nanos(u64::MAX / 2);
                qb.local().inject_loss(1.0, forever);
            }
            qb.post_recv(MemTarget::Dram(0));
            let h = sim.handle();
            sim.block_on(async move {
                let msg = Payload::synthetic(64, 0);
                let token = match mode {
                    QpMode::Ud => qa.send(msg).await,
                    _ => qa.write(MemTarget::Pm(0), msg).await,
                };
                let wc = h.now();
                (wc, token.unwrap().wait_outcome().await)
            })
        };
        let (_, ud) = run(QpMode::Ud, true);
        assert!(!ud.delivered && !ud.durable, "UD must drop: {ud:?}");
        let (clean_wc, clean) = run(QpMode::Rc, false);
        let (lossy_wc, lossy) = run(QpMode::Rc, true);
        assert_eq!(clean, lossy, "RC absorbs the loss");
        assert!(lossy.delivered && lossy.durable);
        // The retransmit waits out the hardware timer, then the message
        // crosses the idle link a second time.
        let resend = PROPAGATION + transfer_time(HEADER_BYTES + 64, LINK_GBPS);
        assert_eq!(lossy_wc - clean_wc, RC_RETRANSMIT_DELAY + resend);
        assert!(
            run(QpMode::Ud, false).1.delivered,
            "UD delivers on a clean wire"
        );
    }

    #[test]
    fn ud_write_batch_respects_mtu_per_item() {
        // An over-MTU payload must be rejected in a batch exactly as it is
        // posted singly — before the doorbell, whatever its position.
        let mut sim = Sim::new(1);
        let (qa, _qb) = pair(&sim, QpMode::Ud);
        let h = sim.handle();
        let (single, batched, t) = sim.block_on(async move {
            let big = || Payload::synthetic(8192, 0);
            let single = qa.write(MemTarget::Pm(0), big()).await.err();
            let items = vec![
                (MemTarget::Pm(0), Payload::synthetic(64, 0)),
                (MemTarget::Pm(64), big()),
            ];
            (single, qa.write_batch(items).await.err(), h.now())
        });
        let want = Some(RdmaError::MtuExceeded {
            len: 8192,
            mtu: 4096,
        });
        assert_eq!(single, want);
        assert_eq!(batched, want);
        assert_eq!(t.as_nanos(), 0, "rejected before any post cost");
    }

    #[test]
    fn send_recv_roundtrip_with_posted_buffer() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair(&sim, QpMode::Rc);
        qb.post_recv(MemTarget::Dram(256));
        let qb2 = qb.clone();
        sim.spawn(async move {
            let c = qb2.recv().await;
            assert_eq!(c.payload.bytes(), Some(&b"msg"[..]));
            assert_eq!(c.target, MemTarget::Dram(256));
            assert!(!c.durable); // DRAM is never durable
        });
        sim.block_on(async move {
            qa.send(Payload::from_bytes(b"msg".to_vec())).await.unwrap();
        });
        // The sender's WC does not imply remote placement (the paper's
        // hazard): drain the receive-side DMA before checking memory.
        sim.run();
        assert_eq!(qb.local().dram().read(256, 3), b"msg");
    }

    #[test]
    fn send_waits_for_recv_posting() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair(&sim, QpMode::Rc);
        let h = sim.handle();
        // Post the recv only after 50us.
        let qb2 = qb.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(50)).await;
            qb2.post_recv(MemTarget::Dram(0));
        });
        let qb3 = qb.clone();
        let t = sim.block_on(async move {
            let tok = qa.send(Payload::synthetic(64, 0)).await.unwrap();
            tok.wait().await;
            let _ = qb3.recv().await;
            h.now()
        });
        assert!(t.as_nanos() >= 50_000);
    }

    #[test]
    fn write_imm_raises_completion_after_placement() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair(&sim, QpMode::Rc);
        let qb2 = qb.clone();
        let got = sim.block_on(async move {
            qa.write_imm(MemTarget::Pm(0), Payload::from_bytes(vec![5; 16]), 0xABCD)
                .await
                .unwrap();
            let c = qb2.recv().await;
            (c.imm, c.durable)
        });
        assert_eq!(got, (Some(0xABCD), true));
    }

    #[test]
    fn read_after_write_observes_persisted_data() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair(&sim, QpMode::Rc);
        let out = sim.block_on(async move {
            qa.write(MemTarget::Pm(0), Payload::from_bytes(vec![0xEE; 4096]))
                .await
                .unwrap();
            // Emulated WFlush: read the last byte; PCIe ordering drains the
            // posted DMA first, so afterwards the data must be durable.
            let b = qa.read_bytes(MemTarget::Pm(4095), 1).await.unwrap();
            (b, qb.local().pm().is_persisted(0, 4096))
        });
        assert_eq!(out.0, vec![0xEE]);
        assert!(out.1, "data must be durable after read-after-write");
    }

    #[test]
    fn mirror_read_returns_dram_bytes_and_costs_a_round_trip() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair(&sim, QpMode::Rc);
        qb.local().dram().write(4096, &[0xA5; 32]);
        let h = sim.handle();
        let (bytes, elapsed) = sim.block_on(async move {
            let t0 = h.now();
            let b = qa.read_mirror(MemTarget::Dram(4096), 32).await.unwrap();
            (b, h.now() - t0)
        });
        assert_eq!(bytes, vec![0xA5; 32]);
        // A one-sided read pays a full wire round trip plus the remote
        // PCIe read: comfortably over a microsecond, well under ten.
        assert!(
            elapsed.as_nanos() > 1_000 && elapsed.as_nanos() < 10_000,
            "mirror read RTT {} ns out of expected range",
            elapsed.as_nanos()
        );
    }

    #[test]
    fn write_to_down_node_fails() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair(&sim, QpMode::Rc);
        qb.local().crash();
        let err = sim.block_on(async move {
            qa.write(MemTarget::Pm(0), Payload::synthetic(64, 0))
                .await
                .err()
                .unwrap()
        });
        assert_eq!(err, RdmaError::Disconnected);
    }

    #[test]
    fn batch_write_amortizes_post_cost() {
        // Total time for a 4-message batch must be well below 4 sequential
        // writes (single post + pipelined wire + one coalesced ACK).
        let elapsed = |batched: bool| {
            let mut sim = Sim::new(9);
            let (qa, _qb) = pair(&sim, QpMode::Rc);
            let h = sim.handle();
            sim.block_on(async move {
                if batched {
                    let items = (0..4)
                        .map(|i| (MemTarget::Pm(i * 8192), Payload::synthetic(4096, i)))
                        .collect();
                    qa.write_batch(items).await.unwrap();
                } else {
                    for i in 0..4u64 {
                        qa.write(MemTarget::Pm(i * 8192), Payload::synthetic(4096, i))
                            .await
                            .unwrap();
                    }
                }
                h.now()
            })
        };
        let t_seq = elapsed(false);
        let t_batch = elapsed(true);
        assert!(
            t_batch.as_nanos() * 2 < t_seq.as_nanos() * 2 && t_batch < t_seq,
            "batch {t_batch} vs seq {t_seq}"
        );
    }

    #[test]
    fn ddio_write_is_not_durable_until_clflush() {
        let mut sim = Sim::new(1);
        let (qa, qb) = pair_cfg(&sim, QpMode::Rc, RnicConfig::with_ddio());
        let qb2 = qb.clone();
        sim.block_on(async move {
            let tok = qa
                .write(MemTarget::Pm(0), Payload::from_bytes(vec![3; 256]))
                .await
                .unwrap();
            let durable = tok.wait().await;
            assert!(!durable, "DDIO write must land volatile");
            assert!(!qb2.local().pm().is_persisted(0, 256));
            // Receiver CPU flushes.
            qb2.local().pm().clflush(0, 256).await.unwrap();
            assert!(qb2.local().pm().is_persisted(0, 256));
        });
    }

    #[test]
    fn larger_payloads_take_longer() {
        let time_for = |len: u64| {
            let mut sim = Sim::new(4);
            let (qa, _qb) = pair(&sim, QpMode::Rc);
            let h = sim.handle();
            sim.block_on(async move {
                qa.write(MemTarget::Pm(0), Payload::synthetic(len, 0))
                    .await
                    .unwrap();
                h.now()
            })
        };
        let t1 = time_for(64);
        let t2 = time_for(4096);
        let t3 = time_for(65536);
        assert!(t1 < t2 && t2 < t3, "{t1} {t2} {t3}");
        // 64KB at 40Gbps is ~13us of wire time alone.
        assert!(t3.as_nanos() > 13_000);
    }
}
