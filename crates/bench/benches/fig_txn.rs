//! Durable multi-shard 2PC transactions: commit latency + abort rate
//! vs shard count and zipfian skew.
//! Run: cargo bench --bench fig_txn
//! Flags after `--`: `--journal` runs every point under the durability
//! auditor (invariant I6). The sanity bounds (every point commits;
//! abort rate tracks skew) are asserted on every run.
use prdma_bench::{emit_all, exp, Scale};

fn main() {
    let scale = Scale::from_env();
    emit_all(exp::fig_txn(scale));
}
