//! Observability dashboard + tail attribution.
//! Run: cargo bench --bench fig_obs
//! Flags after `--`: `--dashboard` for full per-tick resolution.
use prdma_bench::{emit_all, exp, Scale};

fn main() {
    let scale = Scale::from_env();
    emit_all(exp::fig_obs(scale));
}
