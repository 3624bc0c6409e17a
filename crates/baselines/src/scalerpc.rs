//! ScaleRPC [Chen et al., EuroSys '19] — connection grouping with a
//! warm-up phase: the client first sends only the *address* of its data;
//! the server fetches it with an RDMA read, then the connection enters the
//! process phase where data flows like FaRM (paper Fig. 2g). The paper
//! interleaves one warm-up with every 100 process-phase calls.

use prdma::{Request, Response, RpcResult};
use prdma_rnic::{MemTarget, Payload};

use crate::common::{request_image, BaselineClient, MSG_HEADER};

/// Process-phase calls between warm-ups (paper Section 5.1).
const WARMUP_PERIOD: u64 = 100;

/// Client-side staging area the server reads from during warm-up.
const CLIENT_DATA_ADDR: u64 = 4096;

pub(crate) async fn roundtrip(c: &BaselineClient, req: &Request) -> RpcResult<Option<Payload>> {
    let n = c.calls.get();
    c.calls.set(n + 1);
    let slot = c.ctx.req_slot();

    // Warm-up: write only the local address of the data; the server
    // pulls the payload with a one-sided read. Process phase: FaRM-style
    // direct write.
    let warmup = n.is_multiple_of(WARMUP_PERIOD);
    let image = if warmup {
        Payload::synthetic(MSG_HEADER, 0)
    } else {
        request_image(req)
    };
    let tok = c.qp.fwd.write(MemTarget::Dram(slot), image).await?;
    tok.wait().await;
    c.ctx.node.cpu.poll_dispatch().await;
    if warmup {
        c.qp.rev
            .read_synthetic(
                MemTarget::Dram(CLIENT_DATA_ADDR),
                MSG_HEADER + req.transfer_len().min(1 << 20),
            )
            .await?;
    }

    let (payload, resp_len) = c.ctx.serve(req).await;

    c.reply_by_write(resp_len).await?;
    Ok(payload)
}

/// Batched calls (Fig. 19 / paper Section 4.3): multiple requests
/// combined into one RPC — a single RDMA write carrying all payloads
/// into the message ring, one poll, one persist pass, one reply.
pub(crate) async fn call_batch(c: &BaselineClient, reqs: Vec<Request>) -> RpcResult<Vec<Response>> {
    if reqs.len() <= 1 {
        return c.unbatched(reqs).await;
    }
    c.calls.set(c.calls.get() + reqs.len() as u64);
    // Doorbell-batched writes into the message ring; the server polls
    // each message, and — persistence being coupled to completion —
    // still replies per request.
    let items = reqs
        .iter()
        .map(|r| (MemTarget::Dram(c.ctx.req_slot()), request_image(r)))
        .collect();
    let tokens = c.qp.fwd.write_batch(items).await?;
    let mut out = Vec::with_capacity(reqs.len());
    for (req, tok) in reqs.iter().zip(tokens) {
        tok.wait().await;
        c.ctx.node.cpu.poll_dispatch().await;
        let (payload, resp_len) = c.ctx.serve(req).await;
        c.reply_by_write(resp_len).await?;
        out.push(Response {
            payload,
            durable: true,
        });
    }
    Ok(out)
}
