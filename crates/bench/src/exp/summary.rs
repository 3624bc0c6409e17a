//! Table 2 (qualitative summary) and the ablation benches DESIGN.md calls
//! out: flush implementation, DDIO, and flow-control threshold.

use prdma::{
    build_durable, DurableConfig, DurableKind, FlushImpl, Request, RpcClient, ServerProfile,
};
use prdma_baselines::SystemKind;
use prdma_node::{Cluster, ClusterConfig};
use prdma_rnic::Payload;
use prdma_simnet::{Sim, SimDuration};
use prdma_workloads::micro::MicroConfig;

use crate::report::{us, us_or_dash, Table};
use crate::runner::{micro_run, micro_run_concurrent, par_map, ExpEnv, Scale};

/// Table 2: summary of RPC properties, derived from measurements rather
/// than assertion — network-load sensitivity (busy/idle ratio), receiver
/// CPU requirement (µs of server CPU per op), tail behaviour (p99/avg),
/// scalability (latency growth from 10 to 50 senders), and the trace
/// layer's critical-path software share (Fig. 20's headline number).
/// Each cell is the measured number without a class label: EXPERIMENTS.md
/// compares each column's order with the paper's classes.
pub fn table2(scale: Scale) -> Vec<Table> {
    let systems = [
        SystemKind::SRFlush,
        SystemKind::SFlush,
        SystemKind::WRFlush,
        SystemKind::WFlush,
        SystemKind::Farm,
        SystemKind::Darpc,
    ];
    let mut t = Table::new(
        "table2_summary",
        "Summary of RPCs (measured)",
        &[
            "system",
            "net_sensitivity(busy/idle)",
            "recv_cpu(us/op)",
            "p50_us",
            "p99_us",
            "p99.9_us",
            "max_us",
            "tail(p99/avg)",
            "scalability(50s/10s)",
            "sw_share",
        ],
    );
    let rows = par_map(systems.to_vec(), |kind| {
        let cfg = MicroConfig {
            objects: scale.objects,
            ops: scale.micro_ops / 8,
            object_size: 4096,
            ..Default::default()
        };
        // Network sensitivity.
        let idle = micro_run(
            kind,
            &ExpEnv::sized(4096, ServerProfile::light()),
            cfg.clone(),
        );
        let busy_env = ExpEnv {
            network_busy: true,
            ..ExpEnv::sized(4096, ServerProfile::light())
        };
        let busy = micro_run(kind, &busy_env, cfg.clone());
        let net_ratio = busy.run.latency.mean_ns / idle.run.latency.mean_ns.max(1.0);
        // Receiver CPU requirement.
        let recv_cpu = idle.server_cpu_us_per_op;
        // Critical-path software share, from the trace layer.
        let sw_share = idle.trace.software_share();
        // Tail behaviour.
        let tail = idle.run.latency.p99_ns as f64 / idle.run.latency.mean_ns.max(1.0);
        // Scalability.
        let ccfg = MicroConfig {
            ops: scale.concurrent_ops,
            ..cfg
        };
        let env = ExpEnv::sized(4096, ServerProfile::light());
        let l10 = micro_run_concurrent(kind, &env, ccfg.clone(), 10);
        let l50 = micro_run_concurrent(kind, &env, ccfg, 50);
        let scal = l50.latency.mean_ns / l10.latency.mean_ns.max(1.0);
        vec![
            kind.name().into(),
            format!("{net_ratio:.2}"),
            format!("{recv_cpu:.2}"),
            us_or_dash(idle.run.ops, idle.run.latency.p50_us()),
            us_or_dash(idle.run.ops, idle.run.latency.p99_us()),
            us_or_dash(idle.run.ops, idle.run.latency.p999_us()),
            us_or_dash(idle.run.ops, idle.run.latency.max_us()),
            format!("{tail:.2}"),
            format!("{scal:.2}"),
            format!("{:.1}%", sw_share * 100.0),
        ]
    });
    for row in rows {
        t.row(row);
    }
    vec![t]
}

/// Ablation: the paper's emulated Flush primitives vs the proposed
/// native-RNIC implementation, per durable RPC kind.
pub fn abl_flush_impl(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "abl_flush_impl",
        "Durable put latency (us): emulated vs native RNIC flush",
        &["kind", "emulated", "native", "speedup"],
    );
    let kinds = [
        SystemKind::SRFlush,
        SystemKind::SFlush,
        SystemKind::WRFlush,
        SystemKind::WFlush,
    ];
    let mut points = Vec::new();
    for kind in kinds {
        for imp in [FlushImpl::Emulated, FlushImpl::HardwareNative] {
            points.push((kind, imp));
        }
    }
    let means = par_map(points, |(kind, imp)| {
        let env = ExpEnv {
            flush_impl: imp,
            ..ExpEnv::sized(1024, ServerProfile::light())
        };
        let cfg = MicroConfig {
            objects: scale.objects.min(5_000),
            ops: scale.micro_ops / 8,
            object_size: 1024,
            read_ratio: 0.0,
            ..Default::default()
        };
        micro_run(kind, &env, cfg).run.latency.mean_us()
    });
    for (i, kind) in kinds.into_iter().enumerate() {
        let (emulated, native) = (means[2 * i], means[2 * i + 1]);
        t.row(vec![
            kind.name().into(),
            us(emulated),
            us(native),
            format!("{:.2}x", emulated / native.max(1e-9)),
        ]);
    }
    vec![t]
}

/// Ablation: DDIO on/off. With DDIO on, the emulated read-after-write
/// `WFlush` becomes *incorrect* — the read hits the LLC and reports
/// success while the data is still volatile (paper Section 2.4). The
/// receiver-initiated kinds stay correct because the receiver CPU
/// flushes. We count actual persistence violations via the PM model.
pub fn abl_ddio(_scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "abl_ddio",
        "DDIO vs persistence: put latency and violations (20 inline puts)",
        &["kind", "ddio", "latency_us", "violations"],
    );
    let mut points = Vec::new();
    for kind in [DurableKind::WFlush, DurableKind::WRFlush] {
        for ddio in [false, true] {
            points.push((kind, ddio));
        }
    }
    let rows = par_map(points, |(kind, ddio)| {
        let mut sim = Sim::new(33);
        let mut ccfg = ClusterConfig::with_nodes(2);
        ccfg.rnic.ddio = ddio;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = DurableConfig {
            kind,
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            ..Default::default()
        };
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        let log = server.log().clone();
        let pm = cluster.node(0).pm.clone();
        let h = sim.handle();
        let (mean_us, violations) = sim.block_on(async move {
            let mut total = SimDuration::ZERO;
            let mut violations = 0u64;
            for i in 0..20u64 {
                let t0 = h.now();
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::from_bytes(vec![i as u8 + 1; 512]),
                    })
                    .await
                    .unwrap();
                total += h.now() - t0;
                // The client believes the data durable NOW. Read the
                // persistence domain: would these bytes survive a
                // power failure at this instant?
                let data_addr = log.layout().value_addr(i, prdma::OpCode::Put);
                if pm.read_persistent_view(data_addr, 512) != vec![i as u8 + 1; 512] {
                    violations += 1;
                }
            }
            (total.as_micros_f64() / 20.0, violations)
        });
        vec![
            kind.name().into(),
            ddio.to_string(),
            us(mean_us),
            violations.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    vec![t]
}

/// Case study (paper Section 4.4.1, Fig. 7a): retrofitting Octopus with
/// the WFlush primitive. Octopus first obtains the destination address
/// with a write-imm RPC, then writes the data one-sided — *without* any
/// persistence guarantee. Appending a WFlush makes the write durable for
/// one extra flush trip; the table compares the non-durable write, the
/// WFlush-durable write, and Octopus's own CPU-coupled durable path.
pub fn case_fig7a(scale: Scale) -> Vec<Table> {
    use prdma::{FlushImpl, FlushOps};
    use prdma_rnic::{MemTarget, QpMode};

    let mut t = Table::new(
        "case_fig7a_octopus_wflush",
        "Octopus + WFlush case study: 4KB put paths (us)",
        &["path", "avg_us", "durable"],
    );
    let ops = (scale.micro_ops / 16).max(100);

    // Path timings measured over the raw substrate.
    let measure = |mode: &str| -> (f64, bool) {
        let mut sim = Sim::new(66);
        let cluster =
            prdma_node::Cluster::new(sim.handle(), prdma_node::ClusterConfig::with_nodes(2));
        let server = cluster.node(0).clone();
        let region = server.alloc.alloc("data", 1 << 22, 64).unwrap();
        let (qc, qs) = cluster.connect(1, 0, QpMode::Rc);
        let (qr, _qr_c) = cluster.connect(0, 1, QpMode::Rc);
        let flush = FlushOps::new(qc.clone(), FlushImpl::Emulated);
        let mode = mode.to_string();
        let durable = mode != "plain";
        let pm = server.pm.clone();
        let h = sim.handle();
        let mean = sim.block_on(async move {
            let mut total = prdma_simnet::SimDuration::ZERO;
            for i in 0..ops {
                let addr = region.offset + (i % 512) * 4096;
                let t0 = h.now();
                // Address-acquisition RPC: write-imm request, server CPU
                // replies with the destination address via write-imm.
                qc.write_imm(
                    MemTarget::Dram(0),
                    prdma_rnic::Payload::synthetic(32, i),
                    i as u32,
                )
                .await
                .unwrap();
                let _ = qs.recv().await;
                server.cpu.poll_dispatch().await;
                qr.write_imm(
                    MemTarget::Dram(64),
                    prdma_rnic::Payload::synthetic(32, i),
                    i as u32,
                )
                .await
                .unwrap();
                // One-sided data write to the returned PM address.
                let tok = qc
                    .write(MemTarget::Pm(addr), prdma_rnic::Payload::synthetic(4096, i))
                    .await
                    .unwrap();
                match mode.as_str() {
                    "plain" => { /* WC only: data may still be volatile */ }
                    "wflush" => {
                        flush.wflush(MemTarget::Pm(addr + 4095)).await.unwrap();
                    }
                    "cpu" => {
                        // Octopus's own durable path: the server CPU
                        // persists and confirms via another write-imm RPC.
                        tok.wait().await;
                        server.cpu.poll_dispatch().await;
                        pm.simulate_clflush_time(4096).await;
                        qr.write_imm(
                            MemTarget::Dram(64),
                            prdma_rnic::Payload::synthetic(32, i),
                            i as u32,
                        )
                        .await
                        .unwrap();
                    }
                    _ => unreachable!(),
                }
                total += h.now() - t0;
            }
            total.as_micros_f64() / ops as f64
        });
        (mean, durable)
    };

    let rows = par_map(
        vec![
            ("write only (WC != durable)", "plain"),
            ("write + WFlush", "wflush"),
            ("write + server-CPU persist RPC", "cpu"),
        ],
        |(label, mode)| {
            let (mean, durable) = measure(mode);
            vec![label.into(), us(mean), durable.to_string()]
        },
    );
    for row in rows {
        t.row(row);
    }
    vec![t]
}

/// Extension (paper Section 4.5): multi-replica remote persistence —
/// durable put latency vs replica count, with concurrent flush fan-out.
pub fn abl_replication(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "abl_replication",
        "Replicated durable put latency (us) vs replica count (WFlush, 1KB)",
        &["replicas", "avg_put_us", "p99_put_us"],
    );
    let rows = par_map(vec![1usize, 2, 3, 4], |n| {
        let mut sim = Sim::new(55);
        let cluster =
            prdma_node::Cluster::new(sim.handle(), prdma_node::ClusterConfig::with_nodes(n + 1));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 22,
            ..Default::default()
        };
        let (client, _servers) =
            prdma::build_replicated(&cluster, n, &(0..n).collect::<Vec<_>>(), cfg);
        let ops = (scale.micro_ops / 16).max(100);
        let h = sim.handle();
        let summary = sim.block_on(async move {
            let mut hist = prdma_simnet::Histogram::new();
            for i in 0..ops {
                let t0 = h.now();
                client
                    .call(Request::Put {
                        obj: i % 1000,
                        data: Payload::synthetic(1024, i),
                    })
                    .await
                    .unwrap();
                hist.record_duration(h.now() - t0);
            }
            hist.summary()
        });
        vec![n.to_string(), us(summary.mean_us()), us(summary.p99_us())]
    });
    for row in rows {
        t.row(row);
    }
    vec![t]
}

/// Ablation: flow-control threshold sweep under heavy load.
pub fn abl_log_threshold(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "abl_log_threshold",
        "WFlush-RPC heavy-load throughput (KOPS) vs flow-control threshold",
        &["threshold", "kops"],
    );
    let rows = par_map(vec![8u64, 32, 128, 512], |threshold| {
        let mut sim = Sim::new(44);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::heavy(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 22,
            log_slots: 1024,
            throttle_threshold: threshold,
            ..Default::default()
        };
        let (client, _) = build_durable(&cluster, 1, 0, 0, cfg);
        let ops = (scale.micro_ops / 8).max(100);
        let h = sim.handle();
        let elapsed = sim.block_on(async move {
            let t0 = h.now();
            for i in 0..ops {
                client
                    .call(Request::Put {
                        obj: i % 500,
                        data: Payload::synthetic(1024, i),
                    })
                    .await
                    .unwrap();
            }
            h.now() - t0
        });
        let kops = ops as f64 / elapsed.as_secs_f64() / 1e3;
        vec![threshold.to_string(), format!("{kops:.2}")]
    });
    for row in rows {
        t.row(row);
    }
    vec![t]
}

/// The `ablations` entry: flush implementation, DDIO, flow-control
/// threshold, replication, then the Fig. 7a case study, in that order.
pub fn ablations(scale: Scale) -> Vec<Table> {
    let parts: [fn(Scale) -> Vec<Table>; 5] = [
        abl_flush_impl,
        abl_ddio,
        abl_log_threshold,
        abl_replication,
        case_fig7a,
    ];
    parts.into_iter().flat_map(|f| f(scale)).collect()
}
