//! # prdma-workloads
//!
//! Workload generators and experiment drivers for PRDMA-RS, matching the
//! paper's evaluation (Section 5):
//!
//! * [`micro`] — the micro-benchmark: 50 K objects, 300 K zipfian
//!   read/write ops, configurable object size and load profile.
//! * [`ycsb`] — native YCSB A–F drivers (8 B keys, 4 KB values).
//! * [`graph`] / [`pagerank`] — synthetic power-law graphs with the
//!   paper's dataset shapes, and PageRank fetching graph data over RPC.
//! * [`faults`] — the failure-recovery experiment: availability sweeps,
//!   unikernel restart latency, and the redo-log-vs-re-send comparison.
//! * [`openloop`] — open-loop load generation: Poisson/bursty arrival
//!   schedules over a 10⁴–10⁶ logical-client pool multiplexed onto
//!   bounded endpoint futures, latency from scheduled arrival.
//! * [`txn_mix`] — YCSB-T-style transactional mix over the durable 2PC
//!   transaction layer (commit latency + abort rate under skew).
//! * [`dist`] — zipfian / latest / uniform key distributions.

#![warn(missing_docs)]

pub mod dist;
pub mod faults;
pub mod graph;
pub mod kv;
pub mod micro;
pub mod openloop;
pub mod pagerank;
pub mod txn_mix;
pub mod ycsb;

pub use dist::{KeyDist, Zipfian};
pub use faults::{run_faulty, FaultConfig, FaultResult, MeasuredCosts, Scheme};
pub use graph::{generate, generate_power_law, Graph, GraphDataset};
pub use kv::KvIndex;
pub use micro::{run_micro, run_micro_split, MicroConfig, RunResult, SplitResult};
pub use openloop::{
    detect_knee, gen_schedule, run_openloop, Arrival, OpenLoopConfig, OpenLoopResult, RateShape,
    SkewShift,
};
pub use pagerank::{run_pagerank, PageRankConfig, PageRankResult};
pub use txn_mix::{run_txn_mix, TxnMixConfig, TxnMixResult};
pub use ycsb::{run_ycsb, YcsbConfig, YcsbWorkload};
