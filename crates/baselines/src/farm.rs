//! FaRM [Dragojević et al., NSDI '14] — one-sided RC writes into a
//! polled message ring, reply by RC write (paper Fig. 2b).

use prdma::{Request, RpcError, RpcResult};
use prdma_rnic::{MemTarget, Payload, RdmaError};

use crate::common::{request_image, BaselineClient};

pub(crate) async fn roundtrip(c: &BaselineClient, req: &Request) -> RpcResult<Option<Payload>> {
    let h = c.qp.fwd.local().handle().clone();
    let retransfer = c.qp.fwd.local().config().retransfer_interval;

    // A traditional RPC has no redo log: a request in flight when the
    // server dies is simply lost. The client times out, waits for the
    // service to come back *plus* the RDMA connection re-transfer
    // interval (queue-pair re-establishment), and re-sends — the
    // recovery path Fig. 12 charges the traditional scheme for.
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        if attempts > 64 {
            return Err(RpcError::TimedOut);
        }
        if !c.ctx.node.service_is_up() {
            c.ctx.node.wait_service_up().await;
            h.sleep(retransfer).await;
        }

        // One-sided write into the server's message ring; the server's
        // polling thread notices it once the DMA lands.
        let tok = match c
            .qp
            .fwd
            .write(MemTarget::Dram(c.ctx.req_slot()), request_image(req))
            .await
        {
            Ok(tok) => tok,
            // NIC down (full node crash): wait out the outage and
            // re-establish, like a real RC QP error path.
            Err(RdmaError::Disconnected) => continue,
            Err(e) => return Err(e.into()),
        };
        tok.wait().await;
        if !c.ctx.node.service_is_up() {
            continue; // died before the poller saw the request
        }
        c.ctx.node.cpu.poll_dispatch().await;

        let (payload, resp_len) = c.ctx.serve(req).await;
        if !c.ctx.node.service_is_up() {
            continue; // died mid-processing: no reply is coming
        }

        match c.reply_by_write(resp_len).await {
            Ok(()) => return Ok(payload),
            Err(RpcError::ServerDown) => continue,
            Err(e) => return Err(e),
        }
    }
}
