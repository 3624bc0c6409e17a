//! DaRPC [Stuedi et al., SoCC '14] — classic two-sided RPC over RC
//! send/recv (paper Fig. 2a).
//!
//! The client sends a message (data + metadata); the server's CPU is
//! interrupted to parse it, copies the data to the target memory, persists
//! it, runs the RPC, and replies with another send. Persistence is
//! implied by the RPC completion — and therefore arrives late.

use prdma::{Request, Response, RpcResult};
use prdma_rnic::{MemTarget, Payload};

use crate::common::{request_image, BaselineClient};

pub(crate) async fn roundtrip(c: &BaselineClient, req: &Request) -> RpcResult<Option<Payload>> {
    let image = request_image(req);

    // Two-sided in: server posts a recv into its message buffer.
    // Two-sided send: stage the message into a registered send buffer.
    c.client_node.cpu.memcpy(image.len()).await;
    c.qp.fwd_server.post_recv(MemTarget::Dram(c.ctx.req_slot()));
    c.qp.fwd.send(image).await?;
    let _c = c.qp.fwd_server.recv().await;

    // Server software: parse, copy, persist, process.
    c.ctx.node.cpu.parse_request().await;
    let (payload, resp_len) = c.ctx.serve(req).await;

    // Two-sided reply.
    let _delivered = c.reply_by_send(resp_len).await?;
    Ok(payload)
}

/// Batched calls (Fig. 19 / paper Section 4.3): multiple RDMA
/// requests are combined into **one RPC** — a single send carrying
/// all payloads, one parse/persist pass at the server, one reply.
/// The send-side staging memcpy still scales with the batched bytes,
/// which is why the paper finds DaRPC's batching gains modest.
pub(crate) async fn call_batch(c: &BaselineClient, reqs: Vec<Request>) -> RpcResult<Vec<Response>> {
    if reqs.len() <= 1 {
        return c.unbatched(reqs).await;
    }
    // Stage every message, doorbell-post the sends (coalesced ACK),
    // then the server consumes them one by one: each message still
    // pays its recv-WQE fetch, CQ dispatch, and parse — the send-side
    // software costs the paper identifies as limiting DaRPC's gains.
    let images: Vec<Payload> = reqs.iter().map(request_image).collect();
    let total: u64 = images.iter().map(Payload::len).sum();
    c.client_node.cpu.memcpy(total).await;
    for _ in 0..images.len() {
        c.qp.fwd_server.post_recv(MemTarget::Dram(c.ctx.req_slot()));
    }
    c.qp.fwd.send_batch(images).await?;
    let mut out = Vec::with_capacity(reqs.len());
    for req in &reqs {
        let _c = c.qp.fwd_server.recv().await;
        c.ctx.node.cpu.parse_request().await;
        let (payload, resp_len) = c.ctx.serve(req).await;
        // Persistence is coupled to RPC completion here, so every
        // request still needs its own completion reply — unlike the
        // durable RPCs, whose single flush covers the whole batch.
        let _ = c.reply_by_send(resp_len).await?;
        out.push(Response {
            payload,
            durable: true,
        });
    }
    Ok(out)
}
