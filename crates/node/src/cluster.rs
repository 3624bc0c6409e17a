//! Node assembly and cluster construction.

use std::cell::Cell;
use std::rc::Rc;

use prdma_pmem::{DaxAllocator, PmDevice, VolatileMemory};
use prdma_rnic::{Fabric, NodeId, Qp, QpMode, Rnic, RnicConfig};
use prdma_simnet::journal::{self, AuditReport, Journal, Record};
use prdma_simnet::metrics::{self, Key, Metrics, Snapshot};
use prdma_simnet::trace::{TraceReport, Tracer};
use prdma_simnet::{Notify, SimDuration, SimHandle};

use crate::cpu::CpuModel;

/// PM capacity of a server node: plenty for the experiments.
const SERVER_PM_CAPACITY: u64 = 256 * 1024 * 1024;
/// PM capacity of a client node (index >= `servers`). Clients only need a
/// scratch region; keeping this small lets experiments with dozens of
/// senders stay light on host memory.
const CLIENT_PM_CAPACITY: u64 = 2 * 1024 * 1024;
/// DRAM capacity per node.
const DRAM_CAPACITY: u64 = 64 * 1024 * 1024;

/// Configuration for a whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (nodes `0..servers` are servers, the rest clients).
    pub nodes: usize,
    /// How many of the first nodes are *servers* — each with a
    /// full-capacity PM device for its own redo logs and object store.
    /// A sharded service uses one server node per shard; everything
    /// single-server keeps the historical `servers: 1` (node 0).
    pub servers: usize,
    /// RNIC parameters shared by all nodes.
    pub rnic: RnicConfig,
    /// Give every node a recording event [`Journal`]. Off by default:
    /// each node then has an off journal, which allocates nothing and
    /// records nothing.
    pub journal: bool,
    /// Virtual-time interval between the snapshot ticks of every node's
    /// [`Metrics`] registry.
    pub metrics_interval: SimDuration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            servers: 1,
            rnic: RnicConfig::default(),
            journal: false,
            metrics_interval: SimDuration::from_millis(1),
        }
    }
}

impl ClusterConfig {
    /// A cluster of `nodes` nodes with default hardware (node 0 is the
    /// single server).
    pub fn with_nodes(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            ..Default::default()
        }
    }

    /// A sharded cluster: `servers` server nodes (indices `0..servers`)
    /// plus `clients` client nodes, default hardware.
    pub fn with_servers(servers: usize, clients: usize) -> Self {
        ClusterConfig {
            nodes: servers + clients,
            servers,
            ..Default::default()
        }
    }
}

/// One server: CPU + DRAM + PM + RNIC, with a DAX allocator over the PM.
#[derive(Clone)]
pub struct Node {
    /// Fabric identity.
    pub id: NodeId,
    /// Persistent memory device.
    pub pm: PmDevice,
    /// DRAM (message buffers, application memory).
    pub dram: VolatileMemory,
    /// Core pool.
    pub cpu: CpuModel,
    /// DAX region allocator over `pm`.
    pub alloc: DaxAllocator,
    /// Metrics registry. Recording consumes no simulated time and no
    /// randomness, so it leaves virtual time and RNG streams unchanged.
    pub metrics: Metrics,
    /// Event journal, shared with the node's PM device and RNIC; off
    /// unless [`ClusterConfig::journal`] was set. Recording consumes no
    /// simulated time and no randomness either.
    pub journal: Journal,
    rnic: Rnic,
    /// Software liveness: false while the node's RPC service is down.
    /// Distinct from the NIC's hardware liveness — a *service* crash (the
    /// paper's unikernel restart) leaves the NIC and PM operating, so
    /// one-sided log appends keep landing while the service is away.
    service_up: Rc<Cell<bool>>,
    service_changed: Notify,
}

impl Node {
    /// The node's RNIC.
    pub fn rnic(&self) -> &Rnic {
        &self.rnic
    }

    /// The node's latency-breakdown tracer, shared by its CPU, PM device,
    /// and RNIC. System builders assign its role (sender/receiver).
    pub fn tracer(&self) -> &Tracer {
        self.pm.tracer()
    }

    /// The node's event journal, `Some` only if [`ClusterConfig::journal`]
    /// was set. Kept for `examples/perfbench` only, which matches on the
    /// `Option`; code in the workspace reads the `journal` field.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.is_on().then_some(&self.journal)
    }

    /// The node's metrics registry, always `Some`. Kept for
    /// `examples/perfbench` only, which matches on the `Option`; code in
    /// the workspace reads the `metrics` field.
    pub fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    /// Crash this node: RNIC SRAM, DRAM, and dirty LLC lines are lost;
    /// persisted PM survives. The service goes down with the hardware.
    /// The node stays down until [`restart`].
    ///
    /// [`restart`]: Node::restart
    pub fn crash(&self) {
        self.rnic.crash();
        self.set_service_up(false);
    }

    /// Bring the node (hardware and service) back up.
    pub fn restart(&self) {
        self.rnic.restart();
        self.set_service_up(true);
    }

    /// Whether the node is up.
    pub fn is_up(&self) -> bool {
        self.rnic.is_up()
    }

    /// Whether the node's RPC service is up (false during a service
    /// crash *or* a full node crash).
    pub fn service_is_up(&self) -> bool {
        self.service_up.get()
    }

    /// Take only the RPC service down (NIC + PM keep running; one-sided
    /// appends are still absorbed). Stays down until
    /// [`restart_service`](Node::restart_service) or [`restart`](Node::restart).
    pub fn crash_service(&self) {
        self.set_service_up(false);
    }

    /// Bring the RPC service back up after a service crash.
    pub fn restart_service(&self) {
        self.set_service_up(true);
    }

    fn set_service_up(&self, up: bool) {
        self.service_up.set(up);
        self.service_changed.notify_all();
    }

    /// Wait until the service is up (resolves immediately if it is).
    /// Server loops park here during a service outage.
    pub async fn wait_service_up(&self) {
        while !self.service_up.get() {
            self.service_changed.notified().await;
        }
    }
}

/// A set of nodes on one fabric.
pub struct Cluster {
    handle: SimHandle,
    fabric: Fabric,
    nodes: Vec<Node>,
    servers: usize,
}

impl Cluster {
    /// Build a cluster per `cfg`.
    pub fn new(handle: SimHandle, cfg: ClusterConfig) -> Self {
        let fabric = Fabric::new(handle.clone(), cfg.rnic.clone());
        let servers = cfg.servers.max(1);
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let pm_capacity = if i < servers {
                SERVER_PM_CAPACITY
            } else {
                CLIENT_PM_CAPACITY
            };
            // One tracer per node, shared by every component so the
            // latency breakdown sees the whole node's activity; one journal
            // per node, likewise shared, and off unless asked for, so
            // untraced runs pay nothing. The RNIC records into its PM
            // device's pair.
            let tracer = Tracer::new(handle.clone());
            let journal = if cfg.journal {
                Journal::new(handle.clone(), i as u32)
            } else {
                Journal::off()
            };
            let pm = PmDevice::new(handle.clone(), pm_capacity, tracer.clone(), journal.clone());
            let dram = VolatileMemory::new(DRAM_CAPACITY);
            let id = fabric.add_node(pm.clone(), dram.clone());
            let cpu = CpuModel::new(handle.clone(), tracer);
            let alloc = DaxAllocator::new(&pm);
            let rnic = fabric.rnic(id);
            // One metrics registry per node; gauge providers expose the
            // NIC's staging-SRAM occupancy, DMA depth and the PM's media
            // busy time live, so the dashboard sees utilization without
            // journaling.
            let metrics = Metrics::new(handle.clone(), i as u32, cfg.metrics_interval);
            let nic = rnic.clone();
            metrics.register_provider(Key::new("nic_sram_bytes"), move || nic.sram_bytes() as i64);
            let nic = rnic.clone();
            metrics.register_provider(Key::new("nic_dma_inflight"), move || {
                nic.dma_inflight() as i64
            });
            let nic = rnic.clone();
            metrics.register_provider(Key::new("nic_msgs_processed"), move || {
                nic.msgs_processed() as i64
            });
            let nic = rnic.clone();
            metrics.register_provider(Key::new("nic_retransmits"), move || {
                nic.retransmits() as i64
            });
            let dev = pm.clone();
            metrics.register_provider(Key::new("pm_media_busy_us"), move || {
                dev.media_busy_time().as_micros_f64() as i64
            });
            nodes.push(Node {
                id,
                pm,
                dram,
                cpu,
                alloc,
                rnic,
                metrics,
                journal,
                service_up: Rc::new(Cell::new(true)),
                service_changed: Notify::new(),
            });
        }
        Cluster {
            handle,
            fabric,
            nodes,
            servers,
        }
    }

    /// The simulation handle.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// The underlying fabric (links, background traffic).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Node `i`.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of server nodes (indices `0..servers()`); the rest are
    /// clients.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Merge every node's trace into one cluster-wide breakdown report.
    pub fn trace_report(&self) -> TraceReport {
        let mut report = TraceReport::new();
        for node in &self.nodes {
            report.merge(&node.tracer().report());
        }
        report
    }

    /// Merge every node's journal into one globally ordered record stream
    /// (empty when journaling is disabled).
    pub fn journal_records(&self) -> Vec<Record> {
        journal::merge(self.nodes.iter().map(|n| &n.journal))
    }

    /// Run the durability auditor over the merged journal.
    pub fn audit_journal(&self) -> AuditReport {
        journal::audit(&self.journal_records())
    }

    /// Capture a final snapshot on every node and return the merged
    /// fleet stream ordered by `(ts_ns, node)`. Idle nodes that never
    /// recorded anything contribute only their final forced snapshot.
    pub fn metrics_snapshots(&self) -> Vec<Snapshot> {
        let per_node: Vec<Vec<Snapshot>> = self
            .nodes
            .iter()
            .map(|n| {
                n.metrics.force_snapshot();
                n.metrics.snapshots()
            })
            .collect();
        metrics::merge_snapshots(per_node)
    }

    /// The fleet metrics time series as deterministic JSONL.
    pub fn metrics_jsonl(&self) -> String {
        metrics::to_jsonl(&self.metrics_snapshots())
    }

    /// Connect nodes `a` and `b` with a QP pair; the client-side QP (first
    /// element) posts through node `a`'s core pool so sender CPU load
    /// affects verb-post latency.
    pub fn connect(&self, a: usize, b: usize, mode: QpMode) -> (Qp, Qp) {
        let (na, nb) = (&self.nodes[a], &self.nodes[b]);
        let cpu = na.cpu.cores().clone();
        self.fabric.connect(na.id, nb.id, mode, Some(cpu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_rnic::{MemTarget, Payload};
    use prdma_simnet::Sim;

    #[test]
    fn cluster_builds_and_connects() {
        let mut sim = Sim::new(1);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(3));
        assert_eq!(cluster.len(), 3);
        let (qc, _qs) = cluster.connect(1, 0, QpMode::Rc);
        let server_pm = cluster.node(0).pm.clone();
        sim.block_on(async move {
            let tok = qc
                .write(MemTarget::Pm(0), Payload::from_bytes(vec![7; 32]))
                .await
                .unwrap();
            assert!(tok.wait().await);
        });
        assert_eq!(server_pm.read_persistent_view(0, 32), vec![7; 32]);
    }

    #[test]
    fn multi_server_cluster_gives_each_server_full_pm() {
        let sim = Sim::new(1);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(4, 3));
        assert_eq!(cluster.servers(), 4);
        assert_eq!(cluster.len(), 7);
        for i in 0..4 {
            let capacity = cluster.node(i).pm.capacity();
            assert_eq!(capacity, SERVER_PM_CAPACITY, "server {i}");
        }
        for i in 4..7 {
            let capacity = cluster.node(i).pm.capacity();
            assert_eq!(capacity, CLIENT_PM_CAPACITY, "client {i}");
        }
    }

    #[test]
    fn node_crash_and_restart_cycle() {
        let sim = Sim::new(1);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::default());
        let n = cluster.node(0);
        assert!(n.is_up());
        n.crash();
        assert!(!n.is_up());
        n.restart();
        assert!(n.is_up());
    }

    #[test]
    fn sender_cpu_contention_delays_posts() {
        // Saturate node `busy`'s cores (if any), connect node 1 to node 0,
        // and time ten writes posted on the connecting QP or, with
        // `accepting`, on node 0's end of the pair.
        let run = |busy: Option<usize>, accepting: bool| {
            let mut sim = Sim::new(3);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
            if let Some(n) = busy {
                cluster.node(n).cpu.make_busy();
                // saturate the last core too with periodic work
                let cpu = cluster.node(n).cpu.clone();
                let h = sim.handle();
                sim.spawn(async move {
                    loop {
                        cpu.compute(prdma_simnet::SimDuration::from_micros(40))
                            .await;
                        h.sleep(prdma_simnet::SimDuration::from_micros(2)).await;
                    }
                });
            }
            let (qc, qs) = cluster.connect(1, 0, QpMode::Rc);
            let qp = if accepting { qs } else { qc };
            let h = sim.handle();
            sim.block_on(async move {
                h.sleep(prdma_simnet::SimDuration::from_micros(5)).await;
                let t0 = h.now();
                for _ in 0..10 {
                    qp.write(MemTarget::Pm(0), Payload::synthetic(1024, 0))
                        .await
                        .unwrap();
                }
                h.now() - t0
            })
        };
        let idle = run(None, false);
        let busy = run(Some(1), false);
        assert!(busy > idle, "busy {busy} vs idle {idle}");
        // The accepting side sleeps its post cost instead of queueing on
        // its node's cores, so a saturated node 0 does not delay it.
        let accept_idle = run(None, true);
        let accept_busy = run(Some(0), true);
        assert_eq!(accept_busy, accept_idle);
    }
}
