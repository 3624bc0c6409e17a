//! The one client every baseline RPC system (paper Table 1, Fig. 2) is
//! an instance of, and the machinery its per-system legs share.
//!
//! Every baseline couples remote persistence to RPC completion: the client
//! gets no signal until the server has parsed the request, copied and
//! persisted the data, run the (possibly 100 µs) RPC processing, and sent
//! a reply. Because the client blocks for the full round trip, a
//! baseline's `call()` models the entire exchange inline — server-side
//! costs are charged against the *server's* CPU/PM/NIC resources, so
//! contention across concurrent clients is still captured.
//!
//! The nine systems share all of that. They differ in what Fig. 2 draws:
//! which verb carries the request in, how the server notices it, and
//! which verb carries the reply out. `BaselineClient` holds the shared
//! part — endpoints, the server-side put/get handling ([`ServerCtx::serve`]),
//! journaling, naming — and dispatches on its [`SystemKind`] to the
//! per-system module for the two legs.

use std::cell::Cell;
use std::rc::Rc;

use prdma::{
    ObjectStore, Request, Response, RpcBatchFuture, RpcClient, RpcFuture, RpcResult, ServerProfile,
};
use prdma_node::{Cluster, Node};
use prdma_rnic::{MemTarget, Payload, Qp, QpMode};
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::SimDuration;

use crate::registry::{SystemKind, SystemOpts};
use crate::{darpc, farm, fasst, herd, l5, octopus, rfp, scalerpc};

/// Wire header bytes on every baseline request/response.
pub const MSG_HEADER: u64 = 32;

/// Per-lane message slot pitch in the server's DRAM ring (fits a 64 KB
/// object plus headers).
pub const SLOT_PITCH: u64 = 144 * 1024;

/// Client-side DRAM offsets.
pub const CLIENT_RESP_ADDR: u64 = 0;

/// Server-side endpoints and cost model shared by baseline
/// implementations.
pub struct ServerCtx {
    /// The server node (CPU, PM, DRAM).
    pub node: Node,
    /// The shared object store in the server's PM.
    pub store: ObjectStore,
    /// Load profile (processing time).
    pub profile: ServerProfile,
    /// This connection's lane (message-slot selector).
    pub lane: usize,
}

impl ServerCtx {
    /// Build (or join) the server context: allocates the shared object
    /// store region on first use.
    pub fn new(cluster: &Cluster, server_idx: usize, lane: usize, opts: &SystemOpts) -> Self {
        let node = cluster.node(server_idx).clone();
        let store = ObjectStore::open(&node, "objects", opts.store_capacity, opts.object_slot);
        ServerCtx {
            node,
            store,
            profile: opts.profile.clone(),
            lane,
        }
    }

    /// DRAM address of this lane's request message slot.
    pub fn req_slot(&self) -> u64 {
        self.lane as u64 * SLOT_PITCH
    }

    /// Server-side handling of one request, the same in every baseline.
    /// A `Put` is copied out of the message buffer and persisted into the
    /// PM store — durable before any reply, which is what makes every
    /// baseline a *durable* RPC — then processed; a `Get`/`Scan` is
    /// processed, then read from the media. Returns the reply payload
    /// (none for a put) and the reply's data length.
    pub async fn serve(&self, req: &Request) -> (Option<Payload>, u64) {
        let (obj, len, count) = match req {
            Request::Put { obj, data } => {
                self.node.cpu.memcpy(data.len()).await;
                let _ = self.store.put(*obj, data).await;
                self.process().await;
                return (None, 8);
            }
            Request::Get { obj, len } => (*obj, *len, 1),
            Request::Scan { start, count, len } => (*start, *len, *count),
        };
        self.process().await;
        let payload = self.store.read_range(obj, count, len).await;
        let total = payload.len();
        (Some(payload), total)
    }

    /// The injected RPC processing time (100 µs under the heavy profile).
    async fn process(&self) {
        if self.profile.processing_time > SimDuration::ZERO {
            self.node.cpu.compute(self.profile.processing_time).await;
        }
    }
}

/// The wire image of a request: a real-time header plus the data.
pub fn request_image(req: &Request) -> Payload {
    match req {
        Request::Put { data, .. } => {
            Payload::composite_of([Payload::synthetic(MSG_HEADER, 0), data.clone()])
        }
        _ => Payload::synthetic(MSG_HEADER, 0),
    }
}

/// The QP bundle of a baseline connection: a client→server QP and a
/// server→client QP (the latter posts through the *server's* CPU).
pub struct QpPair {
    /// Client-side endpoint of the forward QP.
    pub fwd: Qp,
    /// Server-side endpoint of the forward QP (for `post_recv`/`recv`).
    pub fwd_server: Qp,
    /// Server-side endpoint of the reverse QP (server posts replies here).
    pub rev: Qp,
    /// Client-side endpoint of the reverse QP.
    pub rev_client: Qp,
}

/// What Fig. 2 fixes for `kind` before any message flows: the transport
/// of the client→server and server→client QPs, and the per-side kernel
/// overhead (LITE runs Octopus's write-imm flow in the kernel, paying a
/// syscall plus permission checks on each side).
fn wiring(kind: SystemKind) -> (QpMode, QpMode, SimDuration) {
    match kind {
        SystemKind::Fasst => (QpMode::Ud, QpMode::Ud, SimDuration::ZERO),
        SystemKind::Herd => (QpMode::Uc, QpMode::Ud, SimDuration::ZERO),
        SystemKind::Lite => (QpMode::Rc, QpMode::Rc, SimDuration::from_nanos(1_200)),
        _ => (QpMode::Rc, QpMode::Rc, SimDuration::ZERO),
    }
}

/// The client endpoint of any baseline system (the server side is modeled
/// inline, see the module docs).
pub(crate) struct BaselineClient {
    pub(crate) kind: SystemKind,
    /// Shared with the server-side task RFP spawns per call.
    pub(crate) ctx: Rc<ServerCtx>,
    pub(crate) qp: QpPair,
    pub(crate) client_node: Node,
    /// Calls issued so far (ScaleRPC's warm-up schedule).
    pub(crate) calls: Cell<u64>,
}

/// Build a `kind` connection: the (shared) server context first, then the
/// forward and the reverse QP.
pub(crate) fn build_baseline(
    cluster: &Cluster,
    kind: SystemKind,
    client_idx: usize,
    server_idx: usize,
    lane: usize,
    opts: &SystemOpts,
) -> BaselineClient {
    let ctx = Rc::new(ServerCtx::new(cluster, server_idx, lane, opts));
    let (fwd_mode, rev_mode, _) = wiring(kind);
    let (fwd, fwd_server) = cluster.connect(client_idx, server_idx, fwd_mode);
    let (rev, rev_client) = cluster.connect(server_idx, client_idx, rev_mode);
    BaselineClient {
        kind,
        ctx,
        qp: QpPair {
            fwd,
            fwd_server,
            rev,
            rev_client,
        },
        client_node: cluster.node(client_idx).clone(),
        calls: Cell::new(0),
    }
}

impl BaselineClient {
    /// One request in, served, one reply out — the legs are `kind`'s.
    pub(crate) async fn roundtrip(&self, req: Request) -> RpcResult<Response> {
        let payload = match self.kind {
            SystemKind::L5 => l5::roundtrip(self, &req).await,
            SystemKind::Rfp => rfp::roundtrip(self, req).await,
            SystemKind::Fasst => fasst::roundtrip(self, &req).await,
            SystemKind::Octopus | SystemKind::Lite => {
                let (_, _, kernel_overhead) = wiring(self.kind);
                octopus::roundtrip(self, &req, kernel_overhead).await
            }
            SystemKind::Farm => farm::roundtrip(self, &req).await,
            SystemKind::ScaleRpc => scalerpc::roundtrip(self, &req).await,
            SystemKind::Darpc => darpc::roundtrip(self, &req).await,
            SystemKind::Herd => herd::roundtrip(self, &req).await,
            _ => unreachable!("{:?} is not a baseline", self.kind),
        }?;
        Ok(Response {
            payload,
            durable: true,
        })
    }

    /// A "batch" of at most one request: a plain roundtrip, not journaled
    /// (what DaRPC's and ScaleRPC's `call_batch` do below two requests).
    pub(crate) async fn unbatched(&self, reqs: Vec<Request>) -> RpcResult<Vec<Response>> {
        let mut out = Vec::new();
        for r in reqs {
            out.push(self.roundtrip(r).await?);
        }
        Ok(out)
    }

    /// Deliver a reply of `len` bytes by RDMA write into the client's
    /// response buffer and wait until its DMA lands (the client polls its
    /// memory).
    pub(crate) async fn reply_by_write(&self, len: u64) -> RpcResult<()> {
        let tok = self
            .qp
            .rev
            .write(
                MemTarget::Dram(CLIENT_RESP_ADDR),
                Payload::synthetic(MSG_HEADER + len, 0),
            )
            .await?;
        tok.wait().await;
        self.client_node.cpu.poll_dispatch().await;
        Ok(())
    }

    /// Deliver a reply via two-sided send (the client posts a recv and
    /// blocks on the completion). Returns whether the reply was actually
    /// delivered — `false` only on lossy unreliable transports, where the
    /// caller should retry the operation.
    pub(crate) async fn reply_by_send(&self, len: u64) -> RpcResult<bool> {
        self.qp
            .rev_client
            .post_recv(MemTarget::Dram(CLIENT_RESP_ADDR));
        let tok = self
            .qp
            .rev
            .send(Payload::synthetic(MSG_HEADER + len, 0))
            .await?;
        let outcome = tok.wait_outcome().await;
        let _ = self.qp.rev_client.try_recv();
        if !outcome.delivered {
            return Ok(false);
        }
        // The client's recv path pays full two-sided dispatch, not a poll.
        self.client_node.cpu.parse_request().await;
        Ok(true)
    }
}

impl RpcClient for BaselineClient {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        let bytes = request_image(&req).len();
        Box::pin(journaled_call(
            &self.client_node,
            bytes,
            self.roundtrip(req),
        ))
    }

    fn call_batch(&self, reqs: Vec<Request>) -> RpcBatchFuture<'_> {
        match self.kind {
            SystemKind::Darpc => Box::pin(darpc::call_batch(self, reqs)),
            SystemKind::ScaleRpc => Box::pin(scalerpc::call_batch(self, reqs)),
            // The trait's default (one `call` per request), which an impl
            // that overrides the method cannot name.
            _ => Box::pin(async move {
                let mut out = Vec::with_capacity(reqs.len());
                for req in reqs {
                    out.push(self.call(req).await?);
                }
                Ok(out)
            }),
        }
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }
}

/// Journal the start of one baseline RPC on the client node: allocates an
/// rpc id and emits `RpcDispatch`. Returns [`NO_ID`] (and records nothing)
/// when journaling is disabled.
pub fn rpc_begin(client_node: &Node, bytes: u64) -> u64 {
    let j = &client_node.journal;
    let id = j.next_rpc_id();
    j.record(Subsystem::Rpc, EventKind::RpcDispatch, id, NO_ID, bytes);
    id
}

/// Journal the completion of a baseline RPC begun with [`rpc_begin`].
pub fn rpc_end(client_node: &Node, rpc_id: u64, bytes: u64) {
    let j = &client_node.journal;
    j.record(Subsystem::Rpc, EventKind::RpcComplete, rpc_id, NO_ID, bytes);
}

/// Run one baseline roundtrip bracketed by [`rpc_begin`]/[`rpc_end`]
/// records (a no-op when journaling is disabled).
pub async fn journaled_call<F>(
    client_node: &Node,
    req_bytes: u64,
    roundtrip: F,
) -> RpcResult<Response>
where
    F: std::future::Future<Output = RpcResult<Response>>,
{
    let id = rpc_begin(client_node, req_bytes);
    let r = roundtrip.await;
    if let Ok(resp) = &r {
        rpc_end(
            client_node,
            id,
            resp.payload.as_ref().map_or(0, Payload::len),
        );
    }
    r
}
