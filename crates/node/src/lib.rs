//! # prdma-node
//!
//! Server-node assembly for PRDMA-RS: a [`CpuModel`] (core pool with
//! polling/memcpy/dispatch costs and background-load injection), and a
//! [`Cluster`] builder that wires CPUs, DRAM, PM devices, and RNICs onto
//! one fabric. Experiments construct a cluster, connect QPs, and run RPC
//! systems over it.

#![warn(missing_docs)]

mod cluster;
mod cpu;
mod fault;

pub use cluster::{Cluster, ClusterConfig, Node};
pub use cpu::CpuModel;
pub use fault::{FaultInjector, FaultStats};
