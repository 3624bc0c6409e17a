//! The application-level RPC interface shared by the durable RPCs and all
//! nine baseline systems, so experiments can sweep systems uniformly.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;

use prdma_rnic::{Payload, RdmaError};
use prdma_simnet::rng::SmallRng;
use prdma_simnet::{SimDuration, SimHandle};

use crate::log::OpCode;

/// An application request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Durably store `data` under `obj`.
    Put {
        /// Object id.
        obj: u64,
        /// Object contents.
        data: Payload,
    },
    /// Fetch `len` bytes of `obj`.
    Get {
        /// Object id.
        obj: u64,
        /// Bytes to fetch.
        len: u64,
    },
    /// Range query: `count` objects starting at `start` (YCSB workload E).
    Scan {
        /// First object id.
        start: u64,
        /// Number of objects.
        count: u32,
        /// Bytes per object.
        len: u64,
    },
}

impl Request {
    /// Whether this request mutates state (and thus needs durability).
    pub fn is_write(&self) -> bool {
        matches!(self, Request::Put { .. })
    }

    /// Payload bytes moved by this request.
    pub fn transfer_len(&self) -> u64 {
        match self {
            Request::Put { data, .. } => data.len(),
            Request::Get { len, .. } => *len,
            Request::Scan { count, len, .. } => *count as u64 * *len,
        }
    }
}

/// An application response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Returned payload (Get/Scan).
    pub payload: Option<Payload>,
    /// True iff the request's effects were durable in the remote PM at the
    /// moment this response became visible to the caller. For the durable
    /// RPCs this is the whole point: it is true even though RPC
    /// *processing* may still be in flight.
    pub durable: bool,
}

/// RPC-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Transport failure.
    Rdma(RdmaError),
    /// The server is down.
    ServerDown,
    /// The request (including any per-system retries) exceeded its time
    /// budget — distinct from [`RpcError::Unsupported`] so workload
    /// harnesses count it as a *failed* op, not an unsupported shape.
    TimedOut,
    /// Request shape not supported by this system (e.g. FaSST 4 KB MTU).
    Unsupported(&'static str),
}

impl RpcError {
    /// Whether a retry of the same request could plausibly succeed later
    /// (transport loss, server outage, timeout) — [`RpcError::Unsupported`]
    /// never will.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, RpcError::Unsupported(_))
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Rdma(e) => write!(f, "rdma: {e}"),
            RpcError::ServerDown => write!(f, "server down"),
            RpcError::TimedOut => write!(f, "timed out"),
            RpcError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

/// Client-side fault tolerance: per-request timeout plus bounded retry
/// with capped exponential backoff and seeded jitter. The defaults are
/// generous enough that a healthy run never trips them (the paper's
/// durable RPCs complete in tens of microseconds) while still riding out
/// a few-hundred-millisecond server restart.
///
/// A flat delay re-synchronizes every client that observed the same
/// fault: at open-loop scale, thousands of retries land on the
/// recovering server in lock-step waves (a retry storm). Attempt `k`
/// instead waits `backoff << k` (capped at `backoff_cap`), scaled by a
/// uniform factor in `[1 - jitter_pct/100, 1]` drawn from the *caller's
/// own* seeded [`SmallRng`] stream — never the shared simulation stream,
/// so a healthy run's schedule (which draws no jitter) is byte-identical
/// with and without the machinery, and a faulty run is reproducible per
/// seed while distinct clients decorrelate.
///
/// Setting `backoff_cap == backoff` and `jitter_pct == 0` recovers the
/// old flat schedule exactly (the pinned fault experiments do this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Budget for a single attempt; an attempt still in flight at the
    /// deadline is abandoned (its request may or may not have reached the
    /// server — durable-RPC retries are idempotent re-appends).
    pub request_timeout: SimDuration,
    /// Attempts after the first before giving up with
    /// [`RpcError::TimedOut`].
    pub max_retries: u32,
    /// Delay before the first retry; doubles per attempt.
    pub backoff: SimDuration,
    /// Ceiling for the exponential schedule.
    pub backoff_cap: SimDuration,
    /// Jitter as a percentage in `0..=100`: each delay is scaled by a
    /// factor drawn uniformly from `[1 - jitter_pct/100, 1]`.
    pub jitter_pct: u8,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            request_timeout: SimDuration::from_millis(10),
            max_retries: 64,
            backoff: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(16),
            jitter_pct: 50,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based), jittered from
    /// the caller's own deterministic stream.
    pub fn delay(&self, attempt: u32, rng: &mut SmallRng) -> SimDuration {
        let base = self.backoff.as_nanos().max(1);
        let cap = self.backoff_cap.as_nanos().max(base);
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        let pct = u64::from(self.jitter_pct.min(100));
        if pct == 0 {
            return SimDuration::from_nanos(exp);
        }
        let lo = exp - exp * pct / 100;
        SimDuration::from_nanos(rng.gen_range(lo..=exp).max(1))
    }

    /// The one retry step every retry loop shares: `false` once `retries`
    /// has used up `max_retries` (the caller gives up with its last
    /// error); otherwise count the retry, draw its jittered delay from
    /// `rng` and sleep it. The stream is touched only when a retry
    /// actually sleeps, so a healthy run draws nothing.
    pub async fn back_off(
        &self,
        h: &SimHandle,
        retries: &mut u32,
        rng: &RefCell<SmallRng>,
    ) -> bool {
        if *retries >= self.max_retries {
            return false;
        }
        let delay = self.delay(*retries, &mut rng.borrow_mut());
        *retries += 1;
        h.sleep(delay).await;
        true
    }

    /// A deterministic per-connection jitter stream: seeded from stable
    /// connection identity (client node, lane), independent of the shared
    /// simulation stream so healthy schedules stay byte-identical.
    pub fn jitter_rng(client_node: u64, lane: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            0x9e3779b97f4a7c15u64 ^ client_node.rotate_left(32) ^ lane.wrapping_mul(0xd1342543),
        )
    }
}

impl std::error::Error for RpcError {}

impl From<RdmaError> for RpcError {
    fn from(e: RdmaError) -> Self {
        match e {
            RdmaError::Disconnected => RpcError::ServerDown,
            other => RpcError::Rdma(other),
        }
    }
}

/// Result alias for RPC calls.
pub type RpcResult<T> = Result<T, RpcError>;

/// Boxed future for object-safe async calls (single-threaded executor, so
/// no `Send` bound).
pub type RpcFuture<'a> = Pin<Box<dyn Future<Output = RpcResult<Response>> + 'a>>;

/// Boxed future for batched calls.
pub type RpcBatchFuture<'a> = Pin<Box<dyn Future<Output = RpcResult<Vec<Response>>> + 'a>>;

/// Boxed future for a log-record append: the record's journal rpc id.
pub type RpcAppendFuture<'a> = Pin<Box<dyn Future<Output = RpcResult<u64>> + 'a>>;

/// A client endpoint of some RPC system. Object-safe so the experiment
/// harness can sweep heterogeneous systems.
pub trait RpcClient {
    /// Issue one request and await the response the way this system's
    /// completion semantics define it (for the paper's durable RPCs, a
    /// `Put` resolves at *persistence visibility*, not at processing
    /// completion).
    fn call(&self, req: Request) -> RpcFuture<'_>;

    /// Issue a batch of requests (paper Fig. 19). The default runs them
    /// sequentially; systems with doorbell batching (DaRPC, ScaleRPC, the
    /// durable RPCs) override this to amortize post costs and coalesce
    /// flushes/ACKs.
    fn call_batch(&self, reqs: Vec<Request>) -> RpcBatchFuture<'_> {
        Box::pin(async move {
            let mut out = Vec::with_capacity(reqs.len());
            for req in reqs {
                out.push(self.call(req).await?);
            }
            Ok(out)
        })
    }

    /// Durably append a raw redo-log record (a transaction's prepare /
    /// decide / commit / abort) and resolve with its journal rpc id once
    /// the connection's persistence signal covers it. Only an endpoint
    /// with one redo log behind it can; the default refuses.
    fn append_record(&self, _opcode: OpCode, _obj_id: u64, _data: Payload) -> RpcAppendFuture<'_> {
        Box::pin(std::future::ready(Err(RpcError::Unsupported(
            "log-record append",
        ))))
    }

    /// Human-readable system name (tables, plots).
    fn name(&self) -> &'static str;
}

/// Server-side behaviour knobs shared by every system.
#[derive(Debug, Clone, Default)]
pub struct ServerProfile {
    /// Extra per-RPC processing time at the receiver (the paper injects
    /// 100 µs to model "heavy load" real-world RPC work; 0 = light load).
    pub processing_time: SimDuration,
}

impl ServerProfile {
    /// The paper's heavy-load profile: +100 µs processing per RPC.
    pub fn heavy() -> Self {
        ServerProfile {
            processing_time: SimDuration::from_micros(100),
        }
    }

    /// The paper's light-load profile: pure read/write serving.
    pub fn light() -> Self {
        ServerProfile::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_classification() {
        assert!(Request::Put {
            obj: 0,
            data: Payload::synthetic(10, 0)
        }
        .is_write());
        assert!(!Request::Get { obj: 0, len: 10 }.is_write());
        assert_eq!(
            Request::Scan {
                start: 0,
                count: 4,
                len: 100
            }
            .transfer_len(),
            400
        );
    }

    #[test]
    fn profiles_match_paper() {
        assert_eq!(
            ServerProfile::heavy().processing_time,
            SimDuration::from_micros(100)
        );
        assert_eq!(ServerProfile::light().processing_time, SimDuration::ZERO);
    }

    #[test]
    fn back_off_sleeps_the_policy_delays_until_the_budget_is_spent() {
        let mut sim = prdma_simnet::Sim::new(1);
        let h = sim.handle();
        let policy = RetryPolicy {
            max_retries: 2,
            backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_micros(1600),
            jitter_pct: 50,
            ..Default::default()
        };
        let rng = RefCell::new(RetryPolicy::jitter_rng(3, 4));
        let mut reference = RetryPolicy::jitter_rng(3, 4);
        let expected = policy.delay(0, &mut reference) + policy.delay(1, &mut reference);
        let (elapsed, rng) = sim.block_on(async move {
            let mut retries = 0;
            assert!(policy.back_off(&h, &mut retries, &rng).await);
            assert!(policy.back_off(&h, &mut retries, &rng).await);
            assert!(!policy.back_off(&h, &mut retries, &rng).await);
            assert_eq!(retries, 2);
            (h.now(), rng)
        });
        assert_eq!(elapsed.as_nanos(), expected.as_nanos());
        // The refused step drew nothing: the streams are still in step.
        assert_eq!(rng.borrow_mut().next_u64(), reference.next_u64());
    }

    #[test]
    fn error_conversion_maps_disconnect() {
        assert_eq!(
            RpcError::from(RdmaError::Disconnected),
            RpcError::ServerDown
        );
    }
}
