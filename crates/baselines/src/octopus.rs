//! Octopus [Lu et al., ATC '17] — RPC built on RDMA write-with-immediate:
//! the immediate value interrupts the receiver's CPU for processing; the
//! reply returns the same way (paper Fig. 2h). LITE [Tsai & Zhang,
//! SOSP '17] is the same flow executed in the kernel (Table 1 only).

use prdma::{Request, RpcResult};
use prdma_rnic::{MemTarget, Payload};
use prdma_simnet::SimDuration;

use crate::common::{request_image, BaselineClient, CLIENT_RESP_ADDR, MSG_HEADER};

/// `kernel_overhead` > 0 is LITE: a syscall plus permission checks on
/// each side.
pub(crate) async fn roundtrip(
    c: &BaselineClient,
    req: &Request,
    kernel_overhead: SimDuration,
) -> RpcResult<Option<Payload>> {
    let h = c.qp.fwd.local().handle().clone();
    let (Request::Put { obj, .. } | Request::Get { obj, .. } | Request::Scan { start: obj, .. }) =
        req;
    let imm = *obj as u32;

    // LITE: trap into the kernel before posting.
    if kernel_overhead > SimDuration::ZERO {
        h.sleep(kernel_overhead).await;
    }

    // Request in: write-with-immediate raises a CQ event at the server
    // once the data is placed.
    c.qp.fwd
        .write_imm(MemTarget::Dram(c.ctx.req_slot()), request_image(req), imm)
        .await?;
    let _c = c.qp.fwd_server.recv().await;
    if kernel_overhead > SimDuration::ZERO {
        h.sleep(kernel_overhead).await;
    }
    c.ctx.node.cpu.poll_dispatch().await;

    let (payload, resp_len) = c.ctx.serve(req).await;

    // Reply by write-imm back to the client.
    c.qp.rev
        .write_imm(
            MemTarget::Dram(CLIENT_RESP_ADDR),
            Payload::synthetic(MSG_HEADER + resp_len, 0),
            imm,
        )
        .await?;
    let _c = c.qp.rev_client.recv().await;
    c.client_node.cpu.poll_dispatch().await;
    Ok(payload)
}
