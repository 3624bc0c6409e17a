//! L5 [Fent et al., ICDE '20] — two RC writes (data, then a validity
//! flag) into a polled buffer; the server returns the result with another
//! write (paper Fig. 2e).

use prdma::{Request, RpcResult};
use prdma_rnic::{MemTarget, Payload};

use crate::common::{request_image, BaselineClient, SLOT_PITCH};

/// Offset of the validity flag within the lane's message slot.
const FLAG_OFF: u64 = SLOT_PITCH - 8;

pub(crate) async fn roundtrip(c: &BaselineClient, req: &Request) -> RpcResult<Option<Payload>> {
    let slot = c.ctx.req_slot();

    // Write #1: the data. Write #2: the validity flag the server polls.
    let tok_data =
        c.qp.fwd
            .write(MemTarget::Dram(slot), request_image(req))
            .await?;
    let tok_flag =
        c.qp.fwd
            .write(MemTarget::Dram(slot + FLAG_OFF), Payload::synthetic(8, 1))
            .await?;
    // The server acts when it sees the flag — and the data must have
    // landed too (RC ordering is approximated by awaiting both DMAs).
    tok_data.wait().await;
    tok_flag.wait().await;
    c.ctx.node.cpu.poll_dispatch().await;

    let (payload, resp_len) = c.ctx.serve(req).await;

    c.reply_by_write(resp_len).await?;
    Ok(payload)
}
