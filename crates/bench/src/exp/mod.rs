//! Experiment implementations, one function per paper figure/table.

pub mod cache_fig;
pub mod fault_insim;
pub mod macro_figs;
pub mod micro_figs;
pub mod obs;
pub mod openloop;
pub mod scaleout;
pub mod summary;
pub mod teardown;
pub mod txn_fig;

pub use cache_fig::fig_cache;
pub use fault_insim::{fig12_in_sim, insim_cell, measure_clean, CleanCosts, InSimCell};
pub use macro_figs::{fig10, fig11, fig12, fig20};
pub use micro_figs::{fig08, fig09, fig13, fig14_15_16, fig17, fig18, fig19};
pub use obs::fig_obs;
pub use openloop::{fig_openloop, openloop_curve, openloop_point};
pub use scaleout::{fig_scaleout, scaleout_point, ScaleoutPoint};
pub use summary::{
    abl_ddio, abl_flush_impl, abl_log_threshold, abl_replication, case_fig7a, table2,
};
pub use teardown::{build_run_drop, proc_status_kib};
pub use txn_fig::fig_txn;
