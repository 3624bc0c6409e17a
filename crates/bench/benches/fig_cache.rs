//! Hot-key lease cache + one-sided READ fast path vs durable RPC and HERD.
//! Run: cargo bench --bench fig_cache
//! Flags after `--`: `--journal` runs every point under the durability
//! auditor (invariant I5). The crossover and write-noise acceptance
//! bounds are asserted on every run.
use prdma_bench::{emit_all, exp, Scale};

fn main() {
    let scale = Scale::from_env();
    emit_all(exp::fig_cache(scale));
}
