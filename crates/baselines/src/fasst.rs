//! FaSST [Kalia et al., OSDI '16] — two-sided RPC over unreliable
//! datagrams (paper Fig. 2d). The UD transport caps messages at one 4 KB
//! MTU, which is why the paper only reports FaSST for objects < 4 KB.

use prdma::{Request, RpcError, RpcResult};
use prdma_rnic::{MemTarget, Payload, RdmaError, UD_MTU};
use prdma_simnet::SimDuration;

use crate::common::{request_image, BaselineClient, MSG_HEADER};

/// Client-side loss-detection timeout (ConnectX-class UD RPC stacks use
/// small-millisecond timers).
const RETRY_TIMEOUT: SimDuration = SimDuration::from_micros(100);
/// Give up after this many attempts.
const MAX_RETRIES: u32 = 8;

pub(crate) async fn roundtrip(c: &BaselineClient, req: &Request) -> RpcResult<Option<Payload>> {
    if req.transfer_len() + MSG_HEADER > UD_MTU {
        return Err(RpcError::Unsupported(
            "FaSST UD transport is limited to one 4 KB MTU",
        ));
    }

    // UD is unreliable: FaSST recovers losses with client-side
    // timeouts and re-sends (at-least-once; puts are idempotent).
    // A dropped request leaves its pre-posted recv buffer unconsumed;
    // the next attempt posts another, and the stale targets are
    // reclaimed when later sends land (UD recv queues over-provision).
    let h = c.qp.fwd.local().handle().clone();
    let mut attempts = 0;
    loop {
        attempts += 1;
        if attempts > MAX_RETRIES {
            return Err(RpcError::TimedOut);
        }
        let image = request_image(req);
        // Two-sided send: stage the message into a send buffer.
        c.client_node.cpu.memcpy(image.len()).await;
        c.qp.fwd_server.post_recv(MemTarget::Dram(c.ctx.req_slot()));
        match c.qp.fwd.send(image).await {
            Ok(_) => {}
            Err(RdmaError::MtuExceeded { .. }) => {
                return Err(RpcError::Unsupported("FaSST UD MTU"))
            }
            Err(e) => return Err(e.into()),
        }
        // Request may have been dropped: bounded wait for delivery.
        match prdma_simnet::timeout(&h, RETRY_TIMEOUT, c.qp.fwd_server.recv()).await {
            Ok(_c) => {}
            Err(_) => continue, // lost on the wire: re-send
        }
        c.ctx.node.cpu.parse_request().await;

        let (payload, resp_len) = c.ctx.serve(req).await;

        if c.reply_by_send(resp_len).await? {
            return Ok(payload);
        }
        // Reply lost: the client times out and re-sends.
    }
}
