//! The paper's durable RPCs (Section 4.2, Fig. 4): `WFlush-RPC`,
//! `SFlush-RPC`, `W-RFlush-RPC`, and `S-RFlush-RPC`.
//!
//! All four share one structure: a `Put` appends a redo-log entry in the
//! server's PM and returns to the caller as soon as **persistence is
//! visible** — via the flush ACK (sender-initiated kinds) or via a
//! receiver persist-ACK (receiver-initiated kinds). RPC *processing*
//! (the paper injects up to 100 µs) happens in a server worker pool,
//! fully overlapped with the client's next requests. A crash after the
//! persistence point loses nothing: recovery replays the incomplete log
//! entries without any client re-transmission.
//!
//! | kind | transport in | durability signal |
//! |---|---|---|
//! | `WFlush`   | RDMA write | sender-issued `WFlush` ACK |
//! | `SFlush`   | RDMA send  | sender-issued `SFlush` ACK |
//! | `W-RFlush` | RDMA write | receiver CPU persists + ACK write |
//! | `S-RFlush` | RDMA send  | receiver CPU persists + ACK write |
//!
//! **One persist at a time per connection.** A connection carries one
//! persisting op — a put, a put batch or a transaction record — at a
//! time, and enforces it itself: every persisting op holds the client's
//! `persist_permit` across its whole retry loop, so a second op on the
//! connection queues behind it (FIFO). Every kind rests on this.
//! Receiver-initiated kinds keep one persist-ACK waiter per connection,
//! which a second op would take from the first. A sender-initiated flush
//! barrier consumes every aborted-DMA record of its QP (`rnic::nic`), so
//! a barrier covering another op's aborted entry would leave that op's
//! own barrier nothing to fail on. GETs touch neither and take no permit.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use prdma_node::{Cluster, FaultInjector, Node};
use prdma_rnic::{MemTarget, Payload, Qp, QpMode};
use prdma_simnet::fault::FaultKind;
use prdma_simnet::journal::ids::{self, Ids};
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::metrics::{Counter, Gauge, Key, Window};
use prdma_simnet::rng::SmallRng;
use prdma_simnet::trace::{Phase, Role};
use prdma_simnet::{channel, OneshotPool, OneshotSender, Receiver, Semaphore, Sender, SimDuration};

use crate::cache::LeaseState;
use crate::flush::{FlushImpl, FlushOps};
use crate::log::{
    entry_data_part, entry_index_from_image, tagged, untagged, LogCursor, LogEntry, LogLayout,
    OpCode, RedoLog, RemoteLogWriter, RpcOperator,
};
use crate::rpc::{
    Request, Response, RetryPolicy, RpcAppendFuture, RpcClient, RpcError, RpcFuture, RpcResult,
    ServerProfile,
};
use crate::store::ObjectStore;
use crate::txn::TxnState;

/// Which durable RPC variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableKind {
    /// One-sided write + sender-initiated flush.
    WFlush,
    /// Two-sided send + sender-initiated flush.
    SFlush,
    /// One-sided write + receiver-initiated flush.
    WRFlush,
    /// Two-sided send + receiver-initiated flush.
    SRFlush,
}

impl DurableKind {
    /// All four variants, in the paper's presentation order.
    pub const ALL: [DurableKind; 4] = [
        DurableKind::SRFlush,
        DurableKind::SFlush,
        DurableKind::WRFlush,
        DurableKind::WFlush,
    ];

    /// Whether entries travel by RDMA send (vs one-sided write).
    pub fn is_send_based(self) -> bool {
        matches!(self, DurableKind::SFlush | DurableKind::SRFlush)
    }

    /// Whether the receiver CPU acknowledges persistence.
    pub fn is_receiver_initiated(self) -> bool {
        matches!(self, DurableKind::WRFlush | DurableKind::SRFlush)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DurableKind::WFlush => "WFlush-RPC",
            DurableKind::SFlush => "SFlush-RPC",
            DurableKind::WRFlush => "W-RFlush-RPC",
            DurableKind::SRFlush => "S-RFlush-RPC",
        }
    }
}

/// Configuration for one durable RPC connection.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Variant.
    pub kind: DurableKind,
    /// Flush realization (the paper's emulation by default).
    pub flush_impl: FlushImpl,
    /// Server behaviour (processing time, worker threads).
    pub profile: ServerProfile,
    /// Log ring slots.
    pub log_slots: u64,
    /// Largest value a put carries. The log adds the causal tag's
    /// headroom to every slot, so a tagged put of this size fits too.
    pub slot_payload: u64,
    /// Object-store slot size.
    pub object_slot: u64,
    /// Object-store region size in PM.
    pub store_capacity: u64,
    /// Flow control: throttle when this many entries are outstanding.
    pub throttle_threshold: u64,
    /// Persist the log head once it is N entries past the last value
    /// persisted (1 = every completion). Each server handler marks
    /// entries through a copy of the log that has never persisted the
    /// head ([`RedoLog::mark_done`]), so a running server leaves the head
    /// unpersisted until it first reaches N and from then on persists it
    /// on every advance. A crash replays up to N − 1 done entries before
    /// that point and none after it.
    pub head_persist_interval: u64,
    /// Client-side per-request timeout and bounded retry, used to ride
    /// out packet loss and server crashes. The defaults never fire on a
    /// healthy run.
    pub retry: RetryPolicy,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            kind: DurableKind::WFlush,
            flush_impl: FlushImpl::Emulated,
            profile: ServerProfile::default(),
            log_slots: 256,
            slot_payload: 64 * 1024,
            object_slot: 64 * 1024,
            store_capacity: 32 * 1024 * 1024,
            throttle_threshold: 128,
            head_persist_interval: 16,
            retry: RetryPolicy::default(),
        }
    }
}

impl DurableConfig {
    /// A config for the given variant with defaults otherwise.
    pub fn for_kind(kind: DurableKind) -> Self {
        DurableConfig {
            kind,
            ..Default::default()
        }
    }
}

/// Work items flowing from arrival paths to the worker pool.
enum Work {
    /// A logged entry to process (and mark done).
    Entry { index: u64, data: Payload },
    /// A read request to serve.
    Get {
        obj: u64,
        len: u64,
        count: u32,
        reply: OneshotSender<Payload>,
    },
}

/// A write-based entry arrival (DMA landed in the log).
struct Arrival {
    /// Global log index the entry was written to (tokens can resolve out
    /// of order under batching, so the counter cannot be trusted).
    index: u64,
    data: Payload,
    durable: bool,
}

/// Client DRAM layout.
const ACK_ADDR: u64 = 0;
const RESP_ADDR: u64 = 64;
/// Server DRAM layout: per-lane GET descriptor slots.
const REQ_SLOT_BYTES: u64 = 256;
/// GET descriptor size on the wire.
const GET_DESC_BYTES: u64 = 24;

/// The connection's client↔server host state: the only fields both ends
/// touch. The client hands arrivals and GET work to the server through
/// the two channels, registers its persist-ACK waiter, and reads how many
/// entries the server has logged to know which ACK is the last of a batch.
struct Shared {
    work_tx: Sender<Work>,
    arrival_tx: Sender<Arrival>,
    /// Persist-ACK waiter of the `DurableClient::persist_permit` holder (receiver-initiated kinds).
    ack_waiter: RefCell<Option<OneshotSender<()>>>,
    /// The waiter fires once `puts_logged` reaches this index (lets a
    /// batched Put wait for its *last* entry's persist-ACK).
    ack_after: Cell<u64>,
    puts_logged: Cell<u64>,
}

/// The client endpoint of a durable RPC connection.
pub struct DurableClient {
    kind: DurableKind,
    writer: RemoteLogWriter,
    /// Separate QP for GET descriptors under send-based kinds (so GET
    /// sends don't consume log-slot recv buffers).
    get_qp: Qp,
    shared: Rc<Shared>,
    client_node: Node,
    lane: usize,
    retry: RetryPolicy,
    /// Shard lease table (see [`build_connection`]); bumped on the put
    /// path before the flush wait when present.
    lease: Option<LeaseState>,
    /// Per-connection jitter stream for retry backoff: seeded from the
    /// connection identity, advanced only when a retry actually sleeps —
    /// a healthy run draws nothing, keeping its schedule byte-identical.
    retry_rng: RefCell<SmallRng>,
    /// Pre-resolved fleet-metric handles.
    metrics: ClientMetrics,
    /// Per-connection recycler for the persist-ack waiter oneshot minted
    /// on every receiver-initiated put: the channel resolves within the
    /// RPC, so steady state reuses one heap cell instead of allocating
    /// per operation.
    ack_pool: OneshotPool<()>,
    /// Per-connection recycler for the GET reply oneshot (same lifetime
    /// argument as `ack_pool`, payload-typed).
    reply_pool: OneshotPool<Payload>,
    /// This connection's batched-put ids ([`ids::batched_puts`]).
    batch_ids: Ids,
    /// Next per-op causal id for batched puts: allocated once per
    /// logical op *before* the retry loop, so a whole-batch retry
    /// re-appends the same ids and apply-time dedup makes the batch
    /// exactly-once.
    next_batch_id: Cell<u64>,
    /// One permit, held by the one persisting op the connection carries
    /// (module docs, "One persist at a time per connection").
    persist_permit: Semaphore,
}

/// One redo-log entry on its way through [`DurableClient::persist`].
struct Entry {
    op: RpcOperator,
    data: Payload,
    /// Object whose lease epoch the append bumps (puts; `None` for
    /// transaction records, whose commit path revokes leases itself).
    lease_obj: Option<u64>,
    /// Causal root to `ReplLink` this entry's rpc id to (replicated puts).
    link: Option<u64>,
    /// Journal rpc id (a log id, [`ids::log_lane`]), set once appended.
    rpc_id: Cell<u64>,
}

impl Entry {
    fn new(
        opcode: OpCode,
        obj_id: u64,
        data: Payload,
        lease_obj: Option<u64>,
        link: Option<u64>,
    ) -> Self {
        Entry {
            op: RpcOperator { opcode, obj_id },
            data,
            lease_obj,
            link,
            rpc_id: Cell::new(NO_ID),
        }
    }

    /// A put logged as [`OpCode::RPut`]: tagged with causal id `id` for
    /// apply-time dedup.
    fn rput(obj: u64, data: Payload, id: u64, link: Option<u64>) -> Self {
        Entry::new(OpCode::RPut, obj, tagged(id, data), Some(obj), link)
    }
}

/// The response to every durable put.
const DURABLE: Response = Response {
    payload: None,
    durable: true,
};

/// Per-connection metric handles, resolved once at build time so the
/// hot path never performs a key lookup. Series are labeled with the
/// server's node index (`shard`) and the durable kind.
struct ClientMetrics {
    puts: Counter,
    put_bytes: Counter,
    gets: Counter,
    rpc_ok: Counter,
    rpc_failed: Counter,
    rpc_retries: Counter,
    rpc_timeouts: Counter,
    inflight: Gauge,
    latency: Window,
}

/// The server endpoint of a durable RPC connection. It serves from
/// construction: [`build_durable`] spawns its arrival loop(s) and worker
/// pool, which keep the connection served if this handle is dropped.
pub struct DurableServer {
    ctx: Rc<ServerCtx>,
    /// Node-crash recovery flushes and re-arms its recv ring.
    log_qp_server: Qp,
}

/// What every server task (arrival loops, worker pool) works against.
struct ServerCtx {
    shared: Rc<Shared>,
    kind: DurableKind,
    node: Node,
    log: RedoLog,
    store: ObjectStore,
    resp_qp: Qp,
    profile: ServerProfile,
    puts_processed: Cell<u64>,
    /// Replicated-put retry duplicates skipped at apply time (the entry
    /// was appended again by a retry, but its causal put id had already
    /// been applied).
    puts_deduped: Cell<u64>,
    /// Next log index the send-based recv ring will arm a WQE for. Kept
    /// here so node-crash recovery can flush and re-arm the ring from the
    /// recovered tail (see `recover_and_requeue`).
    next_recv_index: Cell<u64>,
    /// Shard transaction table (see [`build_connection`]).
    txn: Option<TxnState>,
    /// Pre-resolved server-node metric handles.
    m_puts_logged: Counter,
    m_puts_processed: Counter,
}

/// Build a durable RPC connection between `client_idx` and `server_idx`
/// (server owns the log and the object store). `lane` distinguishes
/// concurrent client connections to one server. The server serves from
/// construction.
pub fn build_durable(
    cluster: &Cluster,
    client_idx: usize,
    server_idx: usize,
    lane: usize,
    cfg: DurableConfig,
) -> (DurableClient, DurableServer) {
    build_connection(
        cluster,
        client_idx,
        server_idx,
        lane,
        cfg,
        ShardTables::PLAIN,
    )
}

/// What a connection shares with the other connections to its shard:
/// wiring that [`build_connection`]'s callers pass, not settings.
#[derive(Clone)]
pub(crate) struct ShardTables<'a> {
    /// PM region name of the object store. Connections sharing a name
    /// on one node share the store; fleet shards name theirs
    /// `objects-s<shard>`, so a node hosting shard k's primary and shard
    /// k−1's backup keeps their object spaces apart.
    pub store_region: &'a str,
    /// The shard's lease table: every put bumps its key's epoch *before*
    /// the flush wait, revoking outstanding cached reads ahead of the
    /// durability ACK (auditor invariant I5).
    pub lease: Option<LeaseState>,
    /// The shard's transaction table: the server processes `TxnPrepare`
    /// / `TxnDecide` / `TxnCommit` / `TxnAbort` log entries against it
    /// (staging, in-doubt resolution, apply).
    pub txn: Option<TxnState>,
}

impl ShardTables<'_> {
    /// A lone connection's: the `objects` store and no tables, so the
    /// put path — and every pinned journal fingerprint — is the plain
    /// one.
    pub const PLAIN: ShardTables<'static> = ShardTables {
        store_region: "objects",
        lease: None,
        txn: None,
    };
}

/// [`build_durable`] with a shard's tables wired in.
pub(crate) fn build_connection(
    cluster: &Cluster,
    client_idx: usize,
    server_idx: usize,
    lane: usize,
    cfg: DurableConfig,
    tables: ShardTables,
) -> (DurableClient, DurableServer) {
    let server = cluster.node(server_idx).clone();
    let client = cluster.node(client_idx).clone();
    // Latency breakdown: software time on the client node is sender-side,
    // on the server node receiver-side.
    client.tracer().set_role(Role::Sender);
    server.tracer().set_role(Role::Receiver);

    // Log region: one ring per connection (paper: per-connection log with
    // connection info in the header), sized for tagged values.
    let log_name = format!("log-{lane}");
    let layout = LogLayout::alloc(&server.alloc, &log_name, cfg.log_slots, cfg.slot_payload);

    // Object store: one region per name, shared across lanes.
    let store = ObjectStore::open(
        &server,
        tables.store_region,
        cfg.store_capacity,
        cfg.object_slot,
    );

    let log_ids = ids::log_lane(server_idx, lane);
    let cursor = LogCursor::new();
    let log = RedoLog::new(
        server.pm.clone(),
        layout,
        cursor.clone(),
        log_ids,
        cfg.head_persist_interval,
    );

    let (log_qp_client, log_qp_server) = cluster.connect(client_idx, server_idx, QpMode::Rc);
    let (get_qp_client, get_qp_server) = cluster.connect(client_idx, server_idx, QpMode::Rc);
    let (resp_qp, _resp_qp_client) = cluster.connect(server_idx, client_idx, QpMode::Rc);

    let flush = FlushOps::new(log_qp_client.clone(), cfg.flush_impl);
    let writer = RemoteLogWriter::new(
        log_qp_client,
        flush,
        layout,
        cursor.clone(),
        cfg.throttle_threshold,
        log_ids,
    );

    // Fleet metrics: sample this connection's log depth and flow-control
    // stalls at every snapshot tick. Keys are labeled with the server's
    // node index (the shard the dashboard groups by); if one client opens
    // several lanes to the same server, the last-registered lane's
    // provider wins for that key.
    let m = &client.metrics;
    let shard = server_idx as u32;
    let c = cursor;
    m.register_provider(Key::new("log_outstanding").shard(shard), move || {
        c.outstanding() as i64
    });
    let stalls = writer.stall_cell();
    m.register_provider(Key::new("log_stalls").shard(shard), move || {
        stalls.get() as i64
    });

    let (work_tx, work_rx) = channel();
    let (arrival_tx, arrival_rx) = channel();
    let shared = Rc::new(Shared {
        work_tx,
        arrival_tx,
        ack_waiter: RefCell::new(None),
        ack_after: Cell::new(0),
        puts_logged: Cell::new(0),
    });

    let k = |name: &'static str| {
        Key::new(name)
            .shard(server_idx as u32)
            .kind(cfg.kind.name())
    };
    let metrics = ClientMetrics {
        puts: m.counter_handle(k("puts")),
        put_bytes: m.counter_handle(k("put_bytes")),
        gets: m.counter_handle(k("gets")),
        rpc_ok: m.counter_handle(k("rpc_ok")),
        rpc_failed: m.counter_handle(k("rpc_failed")),
        rpc_retries: m.counter_handle(k("rpc_retries")),
        rpc_timeouts: m.counter_handle(k("rpc_timeouts")),
        inflight: m.gauge_handle(k("rpc_inflight")),
        latency: m.window_handle(k("rpc_latency_ns")),
    };
    let client_ep = DurableClient {
        kind: cfg.kind,
        writer,
        get_qp: get_qp_client,
        shared: Rc::clone(&shared),
        metrics,
        retry_rng: RefCell::new(RetryPolicy::jitter_rng(client.id.0 as u64, lane as u64)),
        batch_ids: ids::batched_puts(client.id.0, lane),
        client_node: client,
        lane,
        retry: cfg.retry,
        lease: tables.lease,
        ack_pool: OneshotPool::new(),
        reply_pool: OneshotPool::new(),
        next_batch_id: Cell::new(0),
        persist_permit: Semaphore::new(1),
    };
    let ctx = Rc::new(ServerCtx {
        shared,
        kind: cfg.kind,
        log,
        store,
        resp_qp,
        profile: cfg.profile,
        puts_processed: Cell::new(0),
        puts_deduped: Cell::new(0),
        next_recv_index: Cell::new(0),
        txn: tables.txn,
        m_puts_logged: server.metrics.counter_handle(Key::new("puts_logged")),
        m_puts_processed: server.metrics.counter_handle(Key::new("puts_processed")),
        node: server,
    });
    serve(
        Rc::clone(&ctx),
        log_qp_server.clone(),
        get_qp_server,
        work_rx,
        arrival_rx,
    );
    let server_ep = DurableServer { ctx, log_qp_server };
    (client_ep, server_ep)
}

/// Handler tasks a server runs at once (its worker pool's size).
const WORKER_THREADS: usize = 8;

/// Spawn the server's loops: the arrival listener(s) and the worker-pool
/// dispatcher. Runs once, as the last step of [`build_connection`].
fn serve(
    ctx: Rc<ServerCtx>,
    log_qp: Qp,
    get_qp: Qp,
    mut work_rx: Receiver<Work>,
    mut arrival_rx: Receiver<Arrival>,
) {
    let h = log_qp.local().handle().clone();

    if ctx.kind.is_send_based() {
        // Recv loop over the log QP, pre-posting recv buffers at
        // upcoming slots (models the SFlush RNIC resolving the
        // destination address from the packet itself).
        let layout = *ctx.log.layout();
        ctx.arm_recv_ring(&log_qp, 0);
        let ctx = Rc::clone(&ctx);
        h.spawn(async move {
            loop {
                let c = log_qp.recv().await;
                let next = ctx.next_recv_index.get();
                log_qp.post_recv(MemTarget::Pm(layout.slot_addr(next)));
                ctx.next_recv_index.set(next + 1);
                // The packet identifies its own entry (the SFlush
                // RNIC resolves the destination from the message).
                // Counting completions instead would desynchronise
                // across a node crash: a send in flight at the crash
                // consumes a recv WQE that never completes.
                let Some(index) = entry_index_from_image(&c.payload) else {
                    continue;
                };
                ctx.on_arrival(index, c.payload, c.durable).await;
            }
        });

        // GET descriptor recv loop.
        for i in 0..16u64 {
            get_qp.post_recv(MemTarget::Dram(i % 16 * REQ_SLOT_BYTES));
        }
        let mut slot = 16u64;
        h.spawn(async move {
            loop {
                let _c = get_qp.recv().await;
                get_qp.post_recv(MemTarget::Dram(slot % 16 * REQ_SLOT_BYTES));
                slot += 1;
                // No CPU charge here: the matching Work::Get was
                // enqueued by the client stub (descriptor bytes only
                // model the wire), and detection + dispatch is charged
                // once, in serve_get — same as the write-based path.
            }
        });
    } else {
        // Write-based kinds: the server polls the log tail; the
        // arrival channel fires when an entry's DMA lands.
        let ctx = Rc::clone(&ctx);
        h.spawn(async move {
            while let Some(a) = arrival_rx.recv().await {
                ctx.on_arrival(a.index, a.data, a.durable).await;
            }
        });
    }

    // Worker pool: a dispatcher spawns one handler task per RPC (the
    // paper: "a thread is created to handle the RPC requests"), with
    // concurrency bounded by a semaphore of `WORKER_THREADS`.
    let pool = Semaphore::new(WORKER_THREADS);
    // Every handler marks entries done through its own copy of this
    // copy of the log handle — the arrangement every pinned journal was
    // captured under. `RedoLog` keeps its persisted-head bookkeeping per
    // copy and this copy never flushes, so every handler's copy counts
    // from 0: once the head reaches `head_persist_interval`, every
    // advance flushes it. Sharing one handle would change journals and
    // PM write counts, which is a change of its own (ROADMAP item
    // 3(a)).
    // It is a trade, not a free win: sized with the cell shared, four
    // perfbench workloads keep their virtual metrics but
    // `crash_replay` goes from `op_mean_us` 12.68 to 18.55 and
    // `virt_kops` 78.9 to 53.9, because up to 16 done entries whose
    // head advance was never flushed replay after each crash.
    let log = ctx.log.clone();
    h.clone().spawn(async move {
        while let Some(work) = work_rx.recv().await {
            ctx.node.wait_service_up().await;
            let permit = pool.acquire().await;
            let ctx = Rc::clone(&ctx);
            let log = log.clone();
            h.spawn(async move {
                let _permit = permit;
                match work {
                    Work::Entry { index, data } => {
                        // Processing is decoupled from the durability
                        // ACK under every kind — off the critical path.
                        let processing = ctx.process_entry(&log, index, data);
                        ctx.node.tracer().offpath_scope(processing).await;
                        ctx.puts_processed.set(ctx.puts_processed.get() + 1);
                        ctx.m_puts_processed.incr(1);
                    }
                    Work::Get {
                        obj,
                        len,
                        count,
                        reply,
                    } => ctx.serve_get(obj, len, count, reply).await,
                }
            });
        }
    });
}

impl DurableServer {
    /// The redo log (tests, recovery drills).
    pub fn log(&self) -> &RedoLog {
        &self.ctx.log
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.ctx.store
    }

    /// The server node.
    pub fn node(&self) -> &Node {
        &self.ctx.node
    }

    /// Puts processed (applied + marked done) so far.
    pub fn puts_processed(&self) -> u64 {
        self.ctx.puts_processed.get()
    }

    /// Entries logged (arrived durable-or-staged) so far.
    pub fn puts_logged(&self) -> u64 {
        self.ctx.shared.puts_logged.get()
    }

    /// Replicated-put retry duplicates skipped at apply time.
    pub fn puts_deduped(&self) -> u64 {
        self.ctx.puts_deduped.get()
    }

    /// Does nothing: the server serves from construction. Kept for
    /// `examples/perfbench` only.
    pub fn start(&self) {}

    /// Hand logged entries to the worker pool.
    fn requeue(&self, entries: impl IntoIterator<Item = LogEntry>) {
        for e in entries {
            let _ = self.ctx.shared.work_tx.send(Work::Entry {
                index: e.index,
                data: Payload::from_bytes(e.payload),
            });
        }
    }

    /// The `NodeCrash` primitive behind [`recover`](DurableServer::recover):
    /// scan the log for incomplete entries and re-enqueue them for
    /// processing (no client re-transmission — the paper's headline
    /// recovery property). Returns what was recovered.
    pub fn recover_and_requeue(&self) -> Vec<LogEntry> {
        let ctx = &self.ctx;
        let pending = ctx.log.recover();
        let tail = ctx.log.cursor().tail();
        ctx.shared.puts_logged.set(tail);
        ctx.node
            .metrics
            .incr(Key::new("log_replayed"), pending.len() as u64);
        if ctx.kind.is_send_based() {
            // Re-arm the recv ring. A send in flight at the crash
            // consumed a recv WQE that can never complete (the NIC that
            // would have written its CQE lost power), so the surviving
            // pre-posted ring is offset from the recovered log tail:
            // every later entry would DMA into the wrong slot and be
            // dropped as invalid, wedging the connection for good.
            // Flush the ring — QP-error semantics — and re-post a full
            // window starting at the slot the client will append next.
            self.log_qp_server.flush_recvs();
            ctx.arm_recv_ring(&self.log_qp_server, tail);
        }
        self.requeue(pending.iter().cloned());
        pending
    }

    /// The one mapping from a fault to the replay that follows it: what
    /// every `wire_recovery` hook runs, and what a caller that crashed the
    /// node by hand calls after restarting it. Returns the entries
    /// re-enqueued. Exhaustive on purpose: a new [`FaultKind`] does not
    /// compile until its recovery is decided here.
    pub fn recover(&self, kind: FaultKind) -> usize {
        match kind {
            FaultKind::NodeCrash { .. } => self.recover_and_requeue().len(),
            // NIC, PM and the shared cursor survived and clients kept
            // appending one-sided entries while the service was away, so
            // rewinding the tail as above would reissue indices already
            // used: requeue the un-done suffix and leave the cursor alone.
            // An entry a queued arrival also delivers is applied once —
            // processing skips done entries.
            FaultKind::ServiceCrash { .. } => {
                let pending = self.ctx.log.scan_pending();
                let n = pending.len();
                self.requeue(pending);
                n
            }
            // Nothing at rest is lost and the service never stopped; the
            // appends the NIC reset aborted were never ACKed and come back
            // through the client's retry.
            FaultKind::SramLoss => 0,
            // RC retransmits and the client's retry ride these out.
            FaultKind::LossBurst { .. } | FaultKind::LinkDegrade { .. } => 0,
        }
    }

    /// Run [`recover`](DurableServer::recover) at every recovery point the
    /// injector reports for this server's node.
    pub fn wire_recovery(self: &Rc<Self>, inj: &FaultInjector) {
        let server = Rc::clone(self);
        inj.on_recovery(move |node, kind| {
            if node == server.ctx.node.id.0 {
                server.recover(kind);
            }
        });
    }
}

impl ServerCtx {
    /// Post a full window of recv WQEs on `log_qp` at the log slots from
    /// index `from` on, and point the recv loop's re-arm cursor past it.
    fn arm_recv_ring(&self, log_qp: &Qp, from: u64) {
        let layout = self.log.layout();
        let window = (layout.slots / 2).max(1);
        for i in from..from + window {
            log_qp.post_recv(MemTarget::Pm(layout.slot_addr(i)));
        }
        self.next_recv_index.set(from + window);
    }

    /// The tail both arrival loops share. The NIC-side absorption (recv
    /// into PM slots, one-sided appends) lands regardless of software
    /// liveness — that is the log-absorption property; *noticing* an
    /// entry needs a live service.
    async fn on_arrival(&self, index: u64, image: Payload, durable_on_arrival: bool) {
        self.node.wait_service_up().await;
        let arrival = self.handle_arrival(index, image, durable_on_arrival);
        if self.kind.is_receiver_initiated() {
            // RFlush: the client waits for the persist-ACK this path
            // produces — it is on the critical path.
            arrival.await;
        } else {
            // SFlush / WFlush: the client returned at the flush ACK;
            // arrival handling is decoupled.
            self.node.tracer().offpath_scope(arrival).await;
        }
    }

    /// Handle an arrived log entry: receiver-initiated kinds persist and
    /// ACK; all kinds enqueue processing work.
    async fn handle_arrival(&self, index: u64, image: Payload, durable_on_arrival: bool) {
        let shared = &self.shared;
        // An arrival whose slot never became a valid committed entry (its DMA
        // was aborted by a crash) or that was already applied (a stale
        // notification after a recovery replay) must not be counted, ACKed,
        // or processed — recovery accounts for it instead.
        match self.log.read_header(index) {
            Some(e) if !e.done => {}
            _ => return,
        }
        shared.puts_logged.set(shared.puts_logged.get() + 1);
        self.m_puts_logged.incr(1);
        let data = entry_data_part(&image);

        // The receiver CPU notices the message by polling.
        self.node.cpu.poll_dispatch().await;

        if self.kind.is_receiver_initiated() {
            // RFlush: ensure durability, then ACK persistence immediately.
            if !durable_on_arrival {
                // DDIO routed it into the LLC: flush the entry range.
                let (addr, len) = self.log.layout().entry_extent(index, data.len());
                if self.node.pm.is_persisted(addr, len) {
                    // Synthetic payload path: charge the flush time.
                    self.node.pm.simulate_clflush_time(len).await;
                } else {
                    let _ = self.node.pm.clflush(addr, len).await;
                }
            }
            // Persist-ACK: small write into the client's ack slot. The client
            // waiter fires only on the entry it is waiting for (the last of a
            // batch).
            if let Ok(tok) = self
                .resp_qp
                .write(MemTarget::Dram(ACK_ADDR), Payload::synthetic(8, index))
                .await
            {
                let waiter = if shared.puts_logged.get() >= shared.ack_after.get() {
                    shared.ack_waiter.borrow_mut().take()
                } else {
                    None
                };
                let h = self.resp_qp.local().handle().clone();
                h.spawn(async move {
                    tok.wait().await;
                    if let Some(w) = waiter {
                        w.send(());
                    }
                });
            }
        }

        let _ = shared.work_tx.send(Work::Entry { index, data });
    }

    /// Charge the injected RPC processing time (the paper: up to 100 µs).
    async fn inject_processing(&self) {
        if self.profile.processing_time > SimDuration::ZERO {
            self.node.cpu.compute(self.profile.processing_time).await;
        }
    }

    /// Process one logged entry: thread dispatch, the injected RPC
    /// processing time, apply to the object store, and durable completion
    /// marking.
    async fn process_entry(&self, log: &RedoLog, index: u64, data: Payload) {
        // Idempotence guard: a service-restart replay can race an
        // already-queued arrival (or a retried client append) for the same
        // entry; only the first processing applies it.
        let Some(header) = log.read_header(index) else {
            return;
        };
        if header.done {
            return;
        }
        self.node.cpu.dispatch_thread().await;
        // Apply: the operator comes from the log entry, a put's data
        // travelled with the work item; only the operators that decode
        // their logged payload copy it out of PM.
        let body = match header.op.opcode {
            OpCode::Put => data,
            OpCode::RPut => {
                // Tagged put: the causal tag is the only part read back
                // from PM. A retry after a partial replication failure
                // re-appends the same tag; only the first apply hits the
                // store (exactly-once apply under at-least-once append).
                if !log.note_applied(log.tag_of(index)) {
                    self.puts_deduped.set(self.puts_deduped.get() + 1);
                    let _ = log.mark_done(index).await;
                    return;
                }
                untagged(&data)
            }
            OpCode::TxnPrepare | OpCode::TxnDecide | OpCode::TxnCommit | OpCode::TxnAbort => {
                let entry = header.with_payload(log.read_payload(&header));
                let txn = self.txn.as_ref();
                crate::txn::process_txn_entry(&self.node, log, &self.store, txn, &entry).await;
                return;
            }
        };
        self.inject_processing().await;
        let _ = self.store.put(header.op.obj_id, &body).await;
        let _ = log.mark_done(index).await;
    }

    /// Serve a Get/Scan: processing time, media reads, response write.
    async fn serve_get(&self, obj: u64, len: u64, count: u32, reply: OneshotSender<Payload>) {
        // Read-only requests are served run-to-completion on the polling core
        // (FaRM/HERD-style); only logged updates take the handler-pool hop.
        self.node.cpu.poll_dispatch().await;
        self.inject_processing().await;
        let payload = self.store.read_range(obj, count, len).await;
        if let Ok(tok) = self
            .resp_qp
            .write(MemTarget::Dram(RESP_ADDR), payload.clone())
            .await
        {
            let h = self.resp_qp.local().handle().clone();
            h.spawn(async move {
                tok.wait().await;
                reply.send(payload);
            });
        } else {
            // Server->client path failed (client down?): the dropped reply
            // resolves the caller's oneshot to None and surfaces an error.
            drop(reply);
        }
    }
}

impl DurableClient {
    /// The variant this client speaks.
    pub fn kind(&self) -> DurableKind {
        self.kind
    }

    /// Journal an RPC lifecycle event on the client node. Puts reuse the
    /// log-append id ([`ids::log_lane`]) so the auditor can order the
    /// completion against its redo-log append; reads allocate fresh ids.
    fn jot_rpc(&self, kind: EventKind, rpc_id: u64, bytes: u64) {
        let j = &self.client_node.journal;
        j.record(Subsystem::Rpc, kind, rpc_id, NO_ID, bytes);
    }

    /// The one durable persist path (paper Fig. 4), shared by single,
    /// tagged and batched puts and transaction records. For `entries`
    /// (never empty), in order: register the persist-ACK waiter, append
    /// every entry to the remote redo log, journal its dispatch (and
    /// `ReplLink`), bump its lease, hand its arrival to the server, wait
    /// for this kind's durability signal once, journal the completions and
    /// count puts (transaction records go uncounted). Each entry's
    /// `rpc_id` is filled in as it is appended. Runs only under
    /// [`persist_op`](DurableClient::persist_op)'s permit, so the waiter
    /// it registers is the connection's only one.
    ///
    /// `batched` entries come from `call_batch`: write-based kinds post
    /// them with one doorbell (even a batch of one) and journal dispatch
    /// bytes as 0 — the `LogAppend` records already count the payloads.
    /// Send-based kinds cannot coalesce doorbells the same way; they
    /// pipeline the sends and still flush / await the ACK once.
    async fn persist(&self, entries: &[Entry], batched: bool) -> RpcResult<()> {
        let send_based = self.kind.is_send_based();
        // Receiver-initiated kinds: register the persist-ack waiter before
        // anything can arrive; it fires on the last entry's persist-ACK.
        let ack_rx = self.kind.is_receiver_initiated().then(|| {
            let (tx, rx) = self.ack_pool.oneshot();
            *self.shared.ack_waiter.borrow_mut() = Some(tx);
            self.shared
                .ack_after
                .set(self.shared.puts_logged.get() + entries.len() as u64);
            rx
        });

        // Composite span: the whole log-append + persistence-wait leg.
        let _persist = self.client_node.tracer().span(Phase::LogPersist);

        // Doorbell-batched entries are all posted here; every other entry
        // is appended in the loop below, one verb each.
        let doorbell = batched && !send_based;
        let accounted = |e: &Entry| if doorbell { 0 } else { e.data.len() };
        let mut posted = if doorbell {
            let items = entries.iter().map(|e| (e.op, &e.data));
            self.writer.append_write_batch(items).await?
        } else {
            Vec::new()
        }
        .into_iter();
        let mut probe = None;
        for e in entries {
            let appended = match posted.next() {
                Some(a) => a,
                None if send_based => self.writer.append_send(e.op, &e.data).await?,
                None => self.writer.append_write(e.op, &e.data).await?,
            };
            let bytes = accounted(e);
            let rpc_id = self.writer.journal_id(appended.index);
            e.rpc_id.set(rpc_id);
            self.jot_rpc(EventKind::RpcDispatch, rpc_id, bytes);
            // Span-tree edge from a replicated put's causal root to this
            // replica's fan-out leg.
            if let Some(root) = e.link {
                let j = &self.client_node.journal;
                j.record(Subsystem::Rpc, EventKind::ReplLink, root, rpc_id, bytes);
            }
            // Revoke outstanding leases between the log append and the
            // flush wait, so the journaled invalidation always precedes
            // the put's completion (invariant I5a) and no cached read can
            // outlive the data it covers.
            if let (Some(obj), Some(lease)) = (e.lease_obj, &self.lease) {
                lease.bump(obj, rpc_id, &self.client_node.journal);
            }
            probe = Some(appended.probe);
            if !send_based {
                // Arrival notification: when the entry's DMA lands, the
                // server polling thread picks it up (handle_arrival).
                let shared = Rc::clone(&self.shared);
                let (index, token, data) = (appended.index, appended.token, e.data.clone());
                let h = self.get_qp.local().handle().clone();
                h.spawn(async move {
                    let durable = token.wait().await;
                    let _ = shared.arrival_tx.send(Arrival {
                        index,
                        data,
                        durable,
                    });
                });
            }
        }

        let probe = probe.expect("persist needs at least one entry");
        match self.kind {
            DurableKind::SFlush => self.writer.flush().sflush(probe).await?,
            DurableKind::WFlush => self.writer.flush().wflush(probe).await?,
            DurableKind::SRFlush | DurableKind::WRFlush => {
                let wait = self.client_node.tracer().span(Phase::FlushWait);
                if ack_rx.expect("registered").await.is_none() {
                    return Err(RpcError::ServerDown);
                }
                wait.end();
                self.client_node.cpu.poll_dispatch().await;
            }
        }
        for e in entries {
            self.jot_rpc(EventKind::RpcComplete, e.rpc_id.get(), accounted(e));
        }
        if matches!(entries[0].op.opcode, OpCode::Put | OpCode::RPut) {
            self.metrics.puts.incr(entries.len() as u64);
            // `put_bytes` has only ever counted unbatched puts.
            if !batched {
                self.metrics
                    .put_bytes
                    .incr(entries.iter().map(|e| e.data.len()).sum());
            }
        }
        Ok(())
    }

    /// A put carrying a causal replication id: logged as [`OpCode::RPut`]
    /// with the id prefixed to the payload, deduplicated at apply time so
    /// a retry after a partial replication failure never double-applies
    /// on a replica that already ACKed. Runs under this client's
    /// [`RetryPolicy`] like [`RpcClient::call`].
    pub async fn put_tagged(&self, obj: u64, data: Payload, put_id: u64) -> RpcResult<Response> {
        let entry = Entry::rput(obj, data, put_id, Some(put_id));
        self.persist_op(std::slice::from_ref(&entry), false).await?;
        Ok(DURABLE)
    }

    async fn do_get(&self, obj: u64, len: u64, count: u32) -> RpcResult<Response> {
        let rpc_id = self.client_node.journal.next_rpc_id();
        self.jot_rpc(EventKind::RpcDispatch, rpc_id, GET_DESC_BYTES);
        let (reply, rx) = self.reply_pool.oneshot();
        let work = Work::Get {
            obj,
            len,
            count,
            reply,
        };
        let desc = Payload::synthetic(GET_DESC_BYTES, obj);
        if self.kind.is_send_based() {
            self.get_qp.send(desc).await?;
            let _ = self.shared.work_tx.send(work);
        } else {
            // One-sided descriptor write into the server's request slot,
            // detected by the server's polling thread when the DMA lands.
            let req_slot = MemTarget::Dram(self.lane as u64 * REQ_SLOT_BYTES);
            let token = self.get_qp.write(req_slot, desc).await?;
            let shared = Rc::clone(&self.shared);
            let h = self.get_qp.local().handle().clone();
            h.spawn(async move {
                let _ = token.wait().await;
                let _ = shared.work_tx.send(work);
            });
        }
        let payload = rx.await.ok_or(RpcError::ServerDown)?;
        self.client_node.cpu.poll_dispatch().await;
        self.jot_rpc(EventKind::RpcComplete, rpc_id, payload.len());
        self.metrics.gets.incr(1);
        Ok(Response {
            payload: Some(payload),
            durable: true,
        })
    }

    /// Allocate the next per-op causal id for a batched put. Allocated
    /// once per logical op in `call_batch` *before* its retry loop, so a
    /// whole-batch retry after a mid-batch crash re-appends the same ids
    /// and the server's `note_applied` dedup makes each op exactly-once.
    fn alloc_batch_id(&self) -> u64 {
        let n = self.next_batch_id.get();
        self.next_batch_id.set(n + 1);
        self.batch_ids.id(n)
    }
}

impl DurableClient {
    /// One persisting op: [`persist`](DurableClient::persist) under the
    /// retry policy, holding the connection's `persist_permit` across the
    /// whole retry loop. Every put, put batch and transaction record goes
    /// through here.
    async fn persist_op(&self, entries: &[Entry], batched: bool) -> RpcResult<()> {
        let _permit = self.persist_permit.acquire().await;
        self.retry_loop(|| self.persist(entries, batched)).await
    }

    /// Run `attempt` under the configured [`RetryPolicy`]: each attempt
    /// gets `request_timeout` of budget; retryable failures (transport
    /// errors, server outages, timeouts) back off and re-send. Durable-RPC
    /// retries are idempotent: a retried put re-appends a fresh log entry
    /// and the second application of the same object write is a no-op.
    async fn retry_loop<T, Fut, F>(&self, mut attempt: F) -> RpcResult<T>
    where
        Fut: std::future::Future<Output = RpcResult<T>>,
        F: FnMut() -> Fut,
    {
        let h = self.get_qp.local().handle().clone();
        let start = h.now();
        self.metrics.inflight.add(1);
        let mut retries = 0u32;
        let result = loop {
            let err = match prdma_simnet::timeout(&h, self.retry.request_timeout, attempt()).await {
                Ok(Ok(resp)) => break Ok(resp),
                Ok(Err(e)) if !e.is_retryable() => break Err(e),
                Ok(Err(e)) => {
                    self.metrics.rpc_retries.incr(1);
                    e
                }
                Err(_elapsed) => {
                    self.metrics.rpc_timeouts.incr(1);
                    RpcError::TimedOut
                }
            };
            if !self.retry.back_off(&h, &mut retries, &self.retry_rng).await {
                break Err(err);
            }
        };
        self.metrics.inflight.add(-1);
        self.metrics.latency.observe_duration(h.now() - start);
        if result.is_ok() {
            self.metrics.rpc_ok.incr(1);
        } else {
            self.metrics.rpc_failed.incr(1);
        }
        result
    }
}

impl RpcClient for DurableClient {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        match req {
            Request::Put { obj, data } => {
                let entry = Entry::new(OpCode::Put, obj, data, Some(obj), None);
                Box::pin(async move {
                    self.persist_op(std::slice::from_ref(&entry), false).await?;
                    Ok(DURABLE)
                })
            }
            Request::Get { obj, len } => {
                Box::pin(self.retry_loop(move || self.do_get(obj, len, 1)))
            }
            Request::Scan { start, count, len } => {
                Box::pin(self.retry_loop(move || self.do_get(start, len, count)))
            }
        }
    }

    fn call_batch(&self, reqs: Vec<Request>) -> crate::rpc::RpcBatchFuture<'_> {
        Box::pin(async move {
            // Batched puts (paper Fig. 19 / Section 4.3): contiguous puts
            // share one doorbell and one coalesced flush or final
            // persist-ACK; other requests run individually. Every put is
            // logged as [`OpCode::RPut`] under a causal id fixed here,
            // outside the retry loop, so a whole-batch re-send after a
            // mid-batch crash deduplicates at apply time (exactly-once
            // per logical op).
            let mut out = Vec::with_capacity(reqs.len());
            let mut puts: Vec<Entry> = Vec::new();
            for req in reqs.into_iter().map(Some).chain([None]) {
                if let Some(Request::Put { obj, data }) = req {
                    puts.push(Entry::rput(obj, data, self.alloc_batch_id(), None));
                    continue;
                }
                if !puts.is_empty() {
                    self.persist_op(&puts, true).await?;
                    out.extend(puts.drain(..).map(|_| DURABLE));
                }
                if let Some(other) = req {
                    out.push(self.call(other).await?);
                }
            }
            Ok(out)
        })
    }

    /// The record waits for this connection's persistence signal — the
    /// flush ACK or the receiver persist-ACK, per the durable kind — and
    /// is *not* applied here: the server's worker pool interprets it (see
    /// `process_txn_entry`). Runs under the connection's [`RetryPolicy`],
    /// so appends are at-least-once; interpreters must tolerate duplicate
    /// records for one txn id.
    fn append_record(&self, opcode: OpCode, obj_id: u64, data: Payload) -> RpcAppendFuture<'_> {
        Box::pin(async move {
            let entry = Entry::new(opcode, obj_id, data, None, None);
            self.persist_op(std::slice::from_ref(&entry), false).await?;
            Ok(entry.rpc_id.get())
        })
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_node::ClusterConfig;
    use prdma_simnet::Sim;

    fn setup(
        sim: &Sim,
        kind: DurableKind,
        profile: ServerProfile,
    ) -> (DurableClient, DurableServer, Cluster) {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind,
            profile,
            slot_payload: 4096,
            object_slot: 4096,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let (c, s) = build_durable(&cluster, 1, 0, 0, cfg);
        (c, s, cluster)
    }

    #[test]
    fn put_round_trips_for_every_kind() {
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(11);
            let (client, server, _cluster) = setup(&sim, kind, ServerProfile::light());
            let store = server.store().clone();
            sim.block_on(async move {
                let resp = client
                    .call(Request::Put {
                        obj: 3,
                        data: Payload::from_bytes(b"durable bytes".to_vec()),
                    })
                    .await
                    .unwrap();
                assert!(resp.durable, "{kind:?}");
            });
            // Drain remaining processing.
            sim.run();
            assert_eq!(
                store.persistent_bytes(3, 13),
                b"durable bytes",
                "{kind:?} must apply the put"
            );
        }
    }

    /// A value of exactly `slot_payload` bytes still fits its slot once
    /// tagged: a batch of such puts, each logged as an `RPut` under its
    /// batch tag, ACKs and lands byte-exact under every kind.
    #[test]
    fn batched_puts_of_the_largest_value_fit_their_slots() {
        const SLOT_PAYLOAD: usize = 4096; // `setup`'s
        let value = |obj: u64| vec![0x50 + obj as u8; SLOT_PAYLOAD];
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(19);
            let (client, server, _cluster) = setup(&sim, kind, ServerProfile::light());
            let store = server.store().clone();
            sim.block_on(async move {
                let put = |obj| Request::Put {
                    obj,
                    data: Payload::from_bytes(value(obj)),
                };
                let resps = client.call_batch((0..3).map(put).collect()).await.unwrap();
                assert!(resps.iter().all(|r| r.durable), "{kind:?}");
            });
            sim.run();
            for obj in 0..3 {
                let got = store.persistent_bytes(obj, SLOT_PAYLOAD as u64);
                assert_eq!(got, value(obj), "{kind:?} obj {obj}");
            }
        }
    }

    #[test]
    fn get_returns_requested_length() {
        for kind in [DurableKind::WFlush, DurableKind::SFlush] {
            let mut sim = Sim::new(7);
            let (client, _server, _cluster) = setup(&sim, kind, ServerProfile::light());
            let got = sim.block_on(async move {
                client
                    .call(Request::Put {
                        obj: 9,
                        data: Payload::synthetic(1024, 9),
                    })
                    .await
                    .unwrap();
                client
                    .call(Request::Get { obj: 9, len: 1024 })
                    .await
                    .unwrap()
            });
            assert_eq!(got.payload.unwrap().len(), 1024, "{kind:?}");
        }
    }

    #[test]
    fn scan_aggregates_objects() {
        let mut sim = Sim::new(7);
        let (client, _server, _cluster) = setup(&sim, DurableKind::WFlush, ServerProfile::light());
        let got = sim.block_on(async move {
            client
                .call(Request::Scan {
                    start: 0,
                    count: 8,
                    len: 100,
                })
                .await
                .unwrap()
        });
        assert_eq!(got.payload.unwrap().len(), 800);
    }

    #[test]
    fn heavy_load_put_returns_before_processing_completes() {
        // The decoupling property: with 100us processing, the durable put
        // must resolve in far less than 100us.
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(3);
            let (client, server, _cluster) = setup(&sim, kind, ServerProfile::heavy());
            let h = sim.handle();
            let t = sim.block_on(async move {
                client
                    .call(Request::Put {
                        obj: 0,
                        data: Payload::synthetic(1024, 0),
                    })
                    .await
                    .unwrap();
                h.now()
            });
            assert!(
                t.as_nanos() < 60_000,
                "{kind:?} put took {t}, not decoupled from processing"
            );
            assert_eq!(server.puts_processed(), 0, "{kind:?} processed too early");
            sim.run();
            assert_eq!(
                server.puts_processed(),
                1,
                "{kind:?} must finish eventually"
            );
        }
    }

    #[test]
    fn crash_after_put_recovers_from_log_without_resend() {
        for kind in [DurableKind::WFlush, DurableKind::SRFlush] {
            let mut sim = Sim::new(5);
            // Heavy processing so the entry is still unprocessed at crash.
            let (client, server, cluster) = setup(&sim, kind, ServerProfile::heavy());
            let node = cluster.node(0).clone();
            let store = server.store().clone();
            let log = server.log().clone();
            sim.block_on(async move {
                client
                    .call(Request::Put {
                        obj: 5,
                        data: Payload::from_bytes(vec![0x5A; 256]),
                    })
                    .await
                    .unwrap();
                // Persistence was ACKed; crash before processing finishes.
                node.crash();
                node.restart();
            });
            // Old tasks are stale; recover directly from the log.
            let pending = log.recover();
            assert_eq!(pending.len(), 1, "{kind:?}");
            assert_eq!(pending[0].op.obj_id, 5);
            assert_eq!(pending[0].payload, vec![0x5A; 256]);
            // Replay applies the put with no client involvement.
            let sim2_store = store;
            let replayed = pending[0].clone();
            let mut sim = sim; // reuse the same sim to apply
            sim.block_on(async move {
                sim2_store
                    .put(replayed.op.obj_id, &Payload::from_bytes(replayed.payload))
                    .await
                    .unwrap();
            });
        }
    }

    #[test]
    fn server_persists_every_head_advance_once_past_the_interval() {
        // What a running server does with the default interval of 16:
        // its handlers mark entries through copies of a log that never
        // persisted the head, so the persistent head stays 0 until the
        // head first reaches 16 and then follows every advance.
        for (puts, persisted) in [(10, 0), (17, 17), (20, 20), (23, 23), (40, 40)] {
            let mut sim = Sim::new(1);
            let (client, _server, cluster) =
                setup(&sim, DurableKind::WFlush, ServerProfile::light());
            sim.block_on(async move {
                for obj in 0..puts {
                    let data = Payload::synthetic(64, obj);
                    client.call(Request::Put { obj, data }).await.unwrap();
                }
            });
            sim.run();
            let server = cluster.node(0);
            let log = server.alloc.lookup("log-0").unwrap();
            let head = server.pm.read_persistent_view(log.offset, 8);
            let head = u64::from_le_bytes(head.try_into().unwrap());
            assert_eq!(head, persisted, "persistent head after {puts} puts");
        }
    }

    #[test]
    fn wflush_is_not_slower_than_wrflush_under_idle_network() {
        // Paper: sender- and receiver-initiated variants perform similarly.
        let time_for = |kind| {
            let mut sim = Sim::new(9);
            let (client, _s, _c) = setup(&sim, kind, ServerProfile::light());
            let h = sim.handle();
            sim.block_on(async move {
                for _ in 0..10 {
                    client
                        .call(Request::Put {
                            obj: 1,
                            data: Payload::synthetic(1024, 1),
                        })
                        .await
                        .unwrap();
                }
                h.now()
            })
        };
        let t_w = time_for(DurableKind::WFlush);
        let t_wr = time_for(DurableKind::WRFlush);
        let ratio = t_w.as_nanos() as f64 / t_wr.as_nanos() as f64;
        assert!((0.5..2.0).contains(&ratio), "w {t_w} vs wr {t_wr}");
    }

    /// One WFlush connection whose store holds `OBJECTS` 4 KiB objects
    /// (ids wrap past that) and whose log head is never flushed, so the
    /// server PM's `bytes_persisted` moves only with appends and applies.
    fn rput_setup(sim: &Sim) -> (DurableClient, DurableServer, Cluster) {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::light(),
            slot_payload: 4096,
            object_slot: 4096,
            store_capacity: OBJECTS * 4096,
            log_slots: 64,
            head_persist_interval: 1 << 20,
            ..Default::default()
        };
        let (c, s) = build_durable(&cluster, 1, 0, 0, cfg);
        (c, s, cluster)
    }

    const OBJECTS: u64 = 64;

    #[test]
    fn synthetic_rput_is_timing_only_like_a_plain_put() {
        // Object 5 + OBJECTS wraps onto object 5's slot. A synthetic put
        // to object 5 must leave the slot unclaimed (so the inline put to
        // the wrapped id lands) and must not touch object 3's bytes;
        // tagged or not, the outcome is the same.
        let run = |tagged: bool| {
            let mut sim = Sim::new(31);
            let (client, server, cluster) = rput_setup(&sim);
            let pm = cluster.node(0).pm.clone();
            let (store, h) = (server.store().clone(), sim.handle());
            let (wrapped, fresh) = sim.block_on(async move {
                // A put, then time for its decoupled apply to finish.
                let synthetic = |obj: u64, id: u64| {
                    let (client, h) = (&client, &h);
                    async move {
                        let data = Payload::synthetic(16, obj);
                        if tagged {
                            client.put_tagged(obj, data, id).await.unwrap();
                        } else {
                            let put = Request::Put { obj, data };
                            client.call(put).await.unwrap();
                        }
                        h.sleep(SimDuration::from_micros(200)).await;
                    }
                };
                let inline = |obj: u64, byte: u8| {
                    let data = Payload::from_bytes(vec![byte; 16]);
                    client.call(Request::Put { obj, data })
                };
                inline(3, 0x11).await.unwrap();
                synthetic(3, 1 << 60 | 1).await;
                synthetic(5, 1 << 60 | 2).await;
                inline(5 + OBJECTS, 0x22).await.unwrap();
                // A synthetic apply onto a slot another live object owns
                // pays its media time like any other: it is not refused.
                let before = pm.bytes_persisted();
                synthetic(3 + OBJECTS, 1 << 60 | 3).await;
                let wrapped = pm.bytes_persisted() - before;
                let before = pm.bytes_persisted();
                synthetic(9, 1 << 60 | 4).await;
                (wrapped, pm.bytes_persisted() - before)
            });
            sim.run();
            assert_eq!(wrapped, fresh, "tagged {tagged}: wrapped apply refused");
            (
                store.persistent_bytes(3, 16),
                store.persistent_bytes(5, 16),
                server.puts_processed(),
            )
        };
        for tagged in [false, true] {
            let (three, five, processed) = run(tagged);
            assert_eq!(three, [0x11; 16], "tagged {tagged}: object 3 untouched");
            assert_eq!(five, [0x22; 16], "tagged {tagged}: slot 5 left unclaimed");
            assert_eq!(processed, 6, "tagged {tagged}");
        }
    }

    #[test]
    fn inline_rput_lands_exactly_and_a_duplicate_id_is_skipped() {
        let mut sim = Sim::new(32);
        let (client, server, _cluster) = rput_setup(&sim);
        let store = server.store().clone();
        let id = 1 << 60 | 7;
        sim.block_on(async move {
            let bytes = Payload::from_bytes(b"replicated bytes".to_vec());
            client.put_tagged(7, bytes, id).await.unwrap();
            // A retry under the same id with other bytes: logged, skipped.
            let stale = Payload::from_bytes(vec![0xEE; 16]);
            client.put_tagged(7, stale, id).await.unwrap();
        });
        sim.run();
        assert_eq!(store.persistent_bytes(7, 16), b"replicated bytes");
        assert_eq!(server.puts_deduped(), 1);
        assert_eq!(server.puts_processed(), 2);
    }

    #[test]
    fn rput_requeued_after_node_crash_applies_the_logged_bytes() {
        // The service is down when the put arrives, so nothing processes
        // it before the crash. The log slot's body is seeded with bytes
        // the synthetic put does not carry: only a replay from the log
        // can put them in the store.
        let mut sim = Sim::new(33);
        let (client, server, cluster) = rput_setup(&sim);
        let node = cluster.node(0).clone();
        let body = server.log().layout().value_addr(0, OpCode::RPut);
        node.pm.commit_persistent(body, b"logged bytes").unwrap();
        let (store, server) = (server.store().clone(), Rc::new(server));
        let srv = Rc::clone(&server);
        sim.block_on(async move {
            node.crash_service();
            let data = Payload::synthetic(12, 4);
            client.put_tagged(4, data, 1 << 60 | 9).await.unwrap();
            node.crash();
            node.restart();
            let down_for = SimDuration::ZERO;
            assert_eq!(srv.recover(FaultKind::NodeCrash { down_for }), 1);
        });
        sim.run();
        assert_eq!(store.persistent_bytes(4, 12), b"logged bytes");
        // The arrival the restart released comes second and is skipped.
        assert_eq!(server.puts_deduped(), 1);
    }

    /// The counter stops at the end of its 24 bits instead of running
    /// into the lane bits, where put `2^24 + k` would reuse put `k`'s id.
    #[test]
    #[should_panic(expected = "batch id counter exceeded the id namespace")]
    fn batch_id_counter_panics_past_its_bits() {
        let sim = Sim::new(1);
        let (client, _server, _cluster) = setup(&sim, DurableKind::WFlush, ServerProfile::light());
        client.next_batch_id.set((1 << 24) - 1);
        let last = client.alloc_batch_id();
        assert_eq!(last, ids::batched_puts(1, 0).id((1 << 24) - 1));
        client.alloc_batch_id();
    }

    #[test]
    fn a_dropped_server_handle_keeps_serving() {
        // The server's loops run from construction and own what they
        // need: a put and a get complete with no call on the server.
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(17);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
            let (client, server) = build_durable(&cluster, 1, 0, 0, DurableConfig::for_kind(kind));
            drop(server);
            let got = sim.block_on(async move {
                let data = Payload::synthetic(256, 2);
                client.call(Request::Put { obj: 2, data }).await.unwrap();
                client
                    .call(Request::Get { obj: 2, len: 256 })
                    .await
                    .unwrap()
            });
            assert_eq!(got.payload.unwrap().len(), 256, "{kind:?}");
        }
    }

    #[test]
    fn pipelined_puts_overlap_processing() {
        // 10 heavy puts: total time must be far less than 10 * 100us.
        let mut sim = Sim::new(13);
        let (client, server, _cluster) = setup(&sim, DurableKind::WFlush, ServerProfile::heavy());
        let h = sim.handle();
        let t = sim.block_on(async move {
            for i in 0..10 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::synthetic(1024, i),
                    })
                    .await
                    .unwrap();
            }
            h.now()
        });
        assert!(
            t.as_nanos() < 500_000,
            "puts did not pipeline with processing: {t}"
        );
        sim.run();
        assert_eq!(server.puts_processed(), 10);
    }
}
