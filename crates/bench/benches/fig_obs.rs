//! Observability dashboard + tail attribution.
//! Run: cargo bench --bench fig_obs
use prdma_bench::{emit_all, exp, Scale};

fn main() {
    let scale = Scale::from_env();
    emit_all(exp::fig_obs(scale));
}
