//! # prdma-simnet
//!
//! A deterministic discrete-event simulation engine with a virtual-time
//! async executor, built as the substrate for the PRDMA-RS reproduction of
//! *Hardware-Supported Remote Persistence for Distributed Persistent Memory*
//! (SC '21).
//!
//! The engine provides:
//!
//! * [`Sim`] / [`SimHandle`] — a single-threaded executor whose clock is
//!   virtual: awaiting [`SimHandle::sleep`] advances simulated time, not
//!   wall time, so second-scale experiments run in milliseconds.
//! * [`channel`] / [`oneshot`] — simulation-aware message passing.
//! * [`Semaphore`] / [`Notify`] — FIFO-fair synchronization.
//! * [`FifoResource`] / [`SharedLink`] — queueing-theoretic building blocks
//!   for CPUs, DMA engines, and network wires.
//! * [`Histogram`] — HDR-style log-linear latency recording.
//! * [`Tracer`] / [`Span`] — zero-cost per-phase latency tracing against
//!   the virtual clock (the paper's Fig. 20 breakdown layer).
//! * [`Journal`] — bounded per-node rings of typed event records with
//!   causal IDs, with Perfetto export, utilization gauges, and a
//!   journal-driven durability auditor (see [`journal`]).
//! * [`Metrics`] — always-on per-node counters, gauges, and windowed
//!   histograms with virtual-time snapshot ticks and deterministic JSONL
//!   export (see [`metrics`]).
//! * [`FaultPlan`] — deterministic schedules of crash / loss /
//!   degradation events, scripted or seeded-stochastic (see [`fault`]).
//!
//! Everything is deterministic: a [`Sim`] seeded identically replays the
//! exact same event ordering, which the test suites rely on.
//!
//! ```
//! use prdma_simnet::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(7);
//! let h = sim.handle();
//! let (tx, mut rx) = prdma_simnet::channel::<u32>();
//! sim.spawn({
//!     let h = h.clone();
//!     async move {
//!         h.sleep(SimDuration::from_micros(3)).await;
//!         tx.send(42).unwrap();
//!     }
//! });
//! let got = sim.block_on(async move { rx.recv().await });
//! assert_eq!(got, Some(42));
//! ```

#![warn(missing_docs)]

mod channel;
mod combinator;
mod executor;
pub mod fault;
pub mod journal;
pub mod metrics;
mod resource;
pub mod rng;
mod stats;
mod sync;
mod time;
pub mod trace;

pub use channel::{
    channel, oneshot, OneshotPool, OneshotReceiver, OneshotSender, Receiver, Recv, RecvAll,
    SendError, Sender,
};
pub use combinator::{timeout, Elapsed, Timeout};
pub use executor::{JoinHandle, Sim, SimHandle, Sleep, YieldNow};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use journal::{EventKind, Journal, Record, Subsystem};
pub use metrics::{Key as MetricKey, Metrics, Snapshot as MetricsSnapshot};
pub use resource::{FifoResource, SharedLink};
pub use stats::{Histogram, Summary};
pub use sync::{Acquire, Notified, Notify, SemPermit, Semaphore};
pub use time::{transfer_time, SimDuration, SimTime};
pub use trace::{Phase, Role, Span, TraceReport, Tracer};
