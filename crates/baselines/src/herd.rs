//! Herd [Kalia et al., SIGCOMM '14] — requests by UC write into a polled
//! region, replies by UD send (Table 1; not part of the paper's
//! evaluation figures, provided for completeness). Replies larger than
//! the UD MTU are fragmented.

use prdma::{Request, RpcError, RpcResult};
use prdma_rnic::{MemTarget, Payload, UD_MTU};

use crate::common::{request_image, BaselineClient, CLIENT_RESP_ADDR, MSG_HEADER};

pub(crate) async fn roundtrip(c: &BaselineClient, req: &Request) -> RpcResult<Option<Payload>> {
    // UC write into the server's polled request region. UC gives no
    // delivery guarantee: a dropped request is detected by response
    // timeout and re-written (modeled as an immediate bounded retry).
    let mut attempts = 0;
    loop {
        attempts += 1;
        if attempts > 8 {
            return Err(RpcError::TimedOut);
        }
        let tok =
            c.qp.fwd
                .write(MemTarget::Dram(c.ctx.req_slot()), request_image(req))
                .await?;
        if tok.wait_outcome().await.delivered {
            break;
        }
    }
    c.ctx.node.cpu.poll_dispatch().await;

    let (payload, resp_len) = c.ctx.serve(req).await;

    // UD reply, fragmented at the MTU; dropped fragments re-sent, but
    // only so many times — an unbounded loop would spin forever under
    // a total loss burst (the client has long since timed out).
    let mut remaining = MSG_HEADER + resp_len;
    let mut frag_attempts = 0;
    while remaining > 0 {
        frag_attempts += 1;
        if frag_attempts > 8 {
            return Err(RpcError::TimedOut);
        }
        let frag = remaining.min(UD_MTU);
        c.qp.rev_client.post_recv(MemTarget::Dram(CLIENT_RESP_ADDR));
        let tok = c.qp.rev.send(Payload::synthetic(frag, 0)).await?;
        let delivered = tok.wait_outcome().await.delivered;
        let _ = c.qp.rev_client.try_recv();
        if delivered {
            remaining -= frag;
            frag_attempts = 0;
        }
    }
    c.client_node.cpu.poll_dispatch().await;
    Ok(payload)
}
