//! The many-`Sim`s-per-process shape (crash-point sweeps, figure sweeps,
//! the test suite): build a world, run it through a crash, drop it.
//! `tests/teardown_rss.rs` asserts the resident set stays flat across
//! cycles; `sim_core`'s `sim/build_run_drop_x20` row times them.

use prdma::{build_fleet, DurableConfig, DurableKind, FleetSpec, Request, RpcClient, ShardMap};
use prdma_node::{Cluster, ClusterConfig};
use prdma_rnic::Payload;
use prdma_simnet::fault::{FaultKind, FaultPlan};
use prdma_simnet::{Sim, SimDuration, SimTime};

use super::fault_insim::FAULT_RETRY;

const PUTS: u64 = 2_000;
const VALUE: usize = 4096;
const OBJECTS: u64 = 256;

/// One cycle: two server nodes (one shard each) and a client node, 2 000
/// 4 KB WFlush puts with real bytes striped over both shards, and server 0
/// crashing 3 ms in, mid-stream — so the run covers DRAM loss, log replay
/// and the retry path. Everything is dropped on return.
pub fn build_run_drop(seed: u64) {
    let mut sim = Sim::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
    let cfg = DurableConfig {
        slot_payload: VALUE as u64,
        object_slot: VALUE as u64,
        retry: FAULT_RETRY,
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: None,
    };
    let fleet = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
    let plan = FaultPlan::new().at(
        SimTime::from_nanos(3_000_000),
        0,
        FaultKind::NodeCrash {
            down_for: SimDuration::from_micros(500),
        },
    );
    let inj = cluster.inject_faults(plan);
    fleet.wire_recovery(&inj);
    let client = fleet.clients.into_iter().next().expect("one client");
    let h = sim.handle();
    sim.block_on(async move {
        for i in 0..PUTS {
            let put = Request::Put {
                obj: i % OBJECTS,
                data: Payload::from_bytes(vec![i as u8; VALUE]),
            };
            client.call(put).await.expect("put rides out the crash");
        }
        // Let decoupled processing and the replay drain.
        h.sleep(SimDuration::from_millis(2)).await;
    });
    let stats = inj.stats();
    assert_eq!(stats.restarts, 1, "the scripted crash never recovered");
    assert_eq!(stats.node_crashes, 1);
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in KiB; `None`
/// where the kernel does not report it.
pub fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
