//! # prdma-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the SC '21 paper's evaluation section on the PRDMA-RS simulation.
//!
//! Each `cargo bench` target under `benches/` prints the corresponding
//! figure's series and saves a CSV under `target/paper_results/`
//! (override with `PRDMA_OUT`). Experiment sizes follow `PRDMA_SCALE`
//! (`paper` / `bench` / `smoke`; default `bench` — same shapes as the
//! paper at ~20x fewer operations).
//!
//! | target | reproduces |
//! |---|---|
//! | `fig08_throughput` | Fig. 8 (heavy/light load throughput) |
//! | `fig09_tail_latency` | Fig. 9 (95th/99th/avg latency) |
//! | `fig10_pagerank` | Fig. 10 (PageRank, 3 datasets) |
//! | `fig11_ycsb` | Fig. 11 (YCSB A–F) |
//! | `fig12_failure_recovery` | Fig. 12 (availability sweep) |
//! | `fig13_object_size` | Fig. 13 (64 B–16 KB sweep) |
//! | `fig14_network_load` | Fig. 14 (busy link) |
//! | `fig15_receiver_cpu` | Fig. 15 (busy receiver CPU) |
//! | `fig16_sender_cpu` | Fig. 16 (busy sender CPU) |
//! | `fig17_concurrent_senders` | Fig. 17 (10–50 senders) |
//! | `fig18_access_pattern` | Fig. 18 (r/w mixes) |
//! | `fig19_batching` | Fig. 19 (batch sizes 1/4/8) |
//! | `fig20_breakdown` | Fig. 20 (sender SW / RTT / receiver SW) |
//! | `fig_scaleout` | beyond the paper: throughput/p99 vs. 1–8 shards |
//! | `fig_obs` | fleet metrics dashboard, tail critical-path attribution, overhead gate |
//! | `fig_txn` | durable 2PC transactions: commit p50/p99 + abort rate vs shards × skew |
//! | `table2_summary` | Table 2 (qualitative summary, measured) |
//! | `ablations` | DESIGN.md ablations (flush impl, DDIO, threshold) |
//! | `sim_core` | microbenches of the simulator itself + `BENCH_simcore.json` |
//!
//! Independent sweep points run in parallel across cores (results are
//! collected in input order, so every table, CSV, and journal artifact
//! is byte-identical to a serial run). `PRDMA_PAR=<n>` caps the worker
//! count; `PRDMA_PAR=1` restores the serial runner, and journaled runs
//! are always serial. The switches `--journal`, `--no-metrics` and
//! `--dashboard` go after `--` on the bench command line.

#![warn(missing_docs)]

pub mod exp;
pub mod report;
pub mod runner;

pub use report::Table;
pub use runner::{
    journal_enabled, metrics_enabled, micro_run, micro_run_concurrent, par_level, par_map,
    scaleout_run, set_metrics_override, ycsb_run, EnvResult, ExpEnv, Scale,
};

/// Emit (print + CSV) a set of tables.
pub fn emit_all(tables: Vec<Table>) {
    for t in tables {
        t.emit();
    }
}
