//! # prdma-suite
//!
//! Umbrella crate for the PRDMA-RS workspace: re-exports every subsystem
//! so the runnable examples and cross-crate integration tests have a
//! single import surface. See the workspace `README.md` for the map.

pub use prdma as core;
pub use prdma_baselines as baselines;
pub use prdma_node as node;
pub use prdma_pmem as pmem;
pub use prdma_rnic as rnic;
pub use prdma_simnet as simnet;
pub use prdma_workloads as workloads;

pub mod fingerprint;
pub mod sweep;
