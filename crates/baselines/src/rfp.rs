//! RFP [Su et al., EuroSys '17] — "remote fetching paradigm": the client
//! writes the request with RDMA write, the server processes it, and the
//! client *fetches* the result by repeatedly issuing one-sided RDMA reads
//! until it observes the result flag (paper Fig. 2f).

use std::cell::RefCell;
use std::rc::Rc;

use prdma::{Request, RpcResult};
use prdma_rnic::{MemTarget, Payload};
use prdma_simnet::SimDuration;

use crate::common::{request_image, BaselineClient, SLOT_PITCH};

/// Offset of the result buffer within the lane's slot.
const RESULT_OFF: u64 = SLOT_PITCH / 2;

/// Interval between the client's polling reads.
const POLL_INTERVAL: SimDuration = SimDuration::from_micros(1);

pub(crate) async fn roundtrip(c: &BaselineClient, req: Request) -> RpcResult<Option<Payload>> {
    let slot = c.ctx.req_slot();
    let h = c.qp.fwd.local().handle().clone();

    // Request in by RDMA write.
    let tok =
        c.qp.fwd
            .write(MemTarget::Dram(slot), request_image(&req))
            .await?;

    // Server-side work runs concurrently with the client's fetch loop.
    // The server publishes the result in its own memory; the local store
    // is instantaneous (DRAM).
    let result = Rc::new(RefCell::new(None));
    {
        let ctx = Rc::clone(&c.ctx);
        let result = Rc::clone(&result);
        h.spawn(async move {
            tok.wait().await;
            ctx.node.cpu.poll_dispatch().await;
            let served = ctx.serve(&req).await;
            *result.borrow_mut() = Some(served);
        });
    }

    // Fetch loop: poll the result flag with one-sided reads. A read
    // can only observe the flag as of when it was *issued* — a flag
    // set while the read is in flight needs one more read to be seen.
    loop {
        let observable = result.borrow().is_some();
        c.qp.fwd
            .read_synthetic(MemTarget::Dram(slot + RESULT_OFF), 8)
            .await?;
        if observable {
            break;
        }
        h.sleep(POLL_INTERVAL).await;
    }
    let (payload, resp_len) = result.take().expect("observed above");
    // One more read to fetch the payload itself.
    if resp_len > 8 {
        c.qp.fwd
            .read_synthetic(MemTarget::Dram(slot + RESULT_OFF), resp_len)
            .await?;
    }
    // Parse the fetched result.
    c.client_node.cpu.poll_dispatch().await;
    Ok(payload)
}
