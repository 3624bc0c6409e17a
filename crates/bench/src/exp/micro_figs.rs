//! Micro-benchmark figures: throughput (Fig. 8), tail latency (Fig. 9),
//! object-size sweep (Fig. 13), load sensitivity (Figs. 14–16),
//! concurrency (Fig. 17), access patterns (Fig. 18), batching (Fig. 19).
//!
//! Figs. 8, 9, 13, 17, 18 and 19 each assert the paper's comparative
//! claim on their own sweep's unrounded results, right after the sweep,
//! so every run of the figure checks it.

use prdma::{Request, ServerProfile};
use prdma_baselines::{build_system, SystemKind};
use prdma_rnic::Payload;
use prdma_simnet::Sim;
use prdma_workloads::micro::MicroConfig;
use SystemKind::{Darpc, Farm, Octopus, SFlush, WFlush, WRFlush, L5};

use crate::report::{kops_or_dash, us, us_or_dash, Table};
use crate::runner::{micro_run, micro_run_concurrent, par_map, ExpEnv, Scale, SEED};

/// The result of sweep point `key`: `par_map` returns `results` in the
/// order of `points`.
fn at<'a, K: PartialEq, R>(points: &[K], results: &'a [R], key: K) -> &'a R {
    let i = points.iter().position(|p| *p == key);
    &results[i.expect("a sweep point")]
}

fn size_label(bytes: u64) -> String {
    if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// Fig. 8: throughput of all systems under heavy (+100 µs processing) and
/// light load, for 32 B / 1 KB / 64 KB objects.
pub fn fig08(scale: Scale) -> Vec<Table> {
    let sizes = [32u64, 1024, 65536];
    let loads = [
        ("heavy", ServerProfile::heavy()),
        ("light", ServerProfile::light()),
    ];
    // One independent sweep point per (load, system, size), fanned across
    // cores; results come back in input order so the tables are
    // identical to the serial run.
    let mut points = Vec::new();
    for load in 0..loads.len() {
        for kind in SystemKind::PAPER_EVAL {
            for &size in &sizes {
                points.push((load, kind, size));
            }
        }
    }
    let runs = par_map(points.clone(), |(load, kind, size)| {
        let env = ExpEnv::sized(size, loads[load].1.clone());
        let cfg = MicroConfig {
            objects: scale.objects,
            ops: scale.micro_ops,
            object_size: size,
            ..Default::default()
        };
        micro_run(kind, &env, cfg).run
    });
    let mut cells = runs.iter().map(|r| kops_or_dash(r.ops, r.kops));
    let mut tables = Vec::new();
    for (load, _) in &loads {
        let mut t = Table::new(
            format!("fig08_{load}"),
            format!("Throughput (KOPS), {load} load, 1:1 r/w, zipfian 0.99"),
            &["system", "32B", "1KB", "64KB"],
        );
        for kind in SystemKind::PAPER_EVAL {
            let mut row = vec![kind.name().to_string()];
            row.extend(cells.by_ref().take(sizes.len()));
            t.row(row);
        }
        tables.push(t);
    }

    // Fig. 8(a): under heavy load our RPCs beat every baseline of their
    // family on throughput, by a substantial factor.
    let heavy_1k = |kind| at(&points, &runs, (0, kind, 1024)).kops;
    let pairs = [
        (WFlush, Farm),
        (WFlush, L5),
        (WFlush, Octopus),
        (SFlush, Darpc),
    ];
    for (ours, base) in pairs {
        let gain = heavy_1k(ours) / heavy_1k(base);
        assert!(
            gain > 1.3,
            "fig08: heavy 1KB {ours:?} vs {base:?}: gain {gain:.2} below the paper's band"
        );
    }
    tables
}

/// Fig. 9: latency distribution (p50/p95/p99/p99.9/max/avg) for 1 KB
/// and 64 KB objects.
pub fn fig09(scale: Scale) -> Vec<Table> {
    let sizes = [1024u64, 65536];
    let mut points = Vec::new();
    for &size in &sizes {
        for kind in SystemKind::PAPER_EVAL {
            points.push((kind, size));
        }
    }
    let runs = par_map(points.clone(), |(kind, size)| {
        let env = ExpEnv::sized(size, ServerProfile::light());
        let cfg = MicroConfig {
            objects: scale.objects,
            ops: scale.micro_ops,
            object_size: size,
            ..Default::default()
        };
        micro_run(kind, &env, cfg).run
    });
    let mut runs_in_order = runs.iter();
    let mut tables = Vec::new();
    for size in sizes {
        let mut t = Table::new(
            format!("fig09_{}", size_label(size)),
            format!("Latency (us), {} objects", size_label(size)),
            &["system", "p50", "p95", "p99", "p99.9", "max", "avg"],
        );
        for kind in SystemKind::PAPER_EVAL {
            let r = runs_in_order.next().expect("run per sweep point");
            let (n, l) = (r.ops, &r.latency);
            t.row(vec![
                kind.name().into(),
                us_or_dash(n, l.p50_us()),
                us_or_dash(n, l.p95_us()),
                us_or_dash(n, l.p99_us()),
                us_or_dash(n, l.p999_us()),
                us_or_dash(n, l.max_us()),
                us_or_dash(n, l.mean_us()),
            ]);
        }
        tables.push(t);
    }

    // Fig. 9: our RPCs cut tail latency relative to their family; the
    // gap comes from the write path (persistence decoupled from
    // copy+process), so it shows at the paper's 64 KB default.
    let p99 = |kind| at(&points, &runs, (kind, 65536)).latency.p99_ns as f64;
    let (ours, farm) = (p99(WRFlush), p99(Farm));
    assert!(
        ours < farm * 0.9,
        "fig09: 64KB W-RFlush p99 {ours} ns not well under FaRM p99 {farm} ns"
    );
    tables
}

/// Fig. 13: average latency vs object size (64 B … 16 KB).
pub fn fig13(scale: Scale) -> Vec<Table> {
    let sizes = [64u64, 256, 1024, 4096, 16384];
    let mut t = Table::new(
        "fig13_object_size",
        "Average latency (us) vs object size",
        &["system", "64B", "256B", "1KB", "4KB", "16KB"],
    );
    let mut points = Vec::new();
    for kind in SystemKind::PAPER_EVAL {
        for &size in &sizes {
            points.push((kind, size));
        }
    }
    let runs = par_map(points.clone(), |(kind, size)| {
        let env = ExpEnv::sized(size, ServerProfile::light());
        let cfg = MicroConfig {
            objects: scale.objects,
            ops: scale.micro_ops / 2,
            object_size: size,
            ..Default::default()
        };
        micro_run(kind, &env, cfg).run
    });
    let mut cells = runs.iter().map(|r| us_or_dash(r.ops, r.latency.mean_us()));
    for kind in SystemKind::PAPER_EVAL {
        let mut row = vec![kind.name().to_string()];
        row.extend(cells.by_ref().take(sizes.len()));
        t.row(row);
    }

    // Fig. 13's lesson: send-based DaRPC is the most sensitive to object
    // size (its staging memcpys and recv dispatch scale with the
    // payload), in absolute microseconds added across the sweep.
    let added_us = |kind| {
        let mean = |size| at(&points, &runs, (kind, size)).latency.mean_ns;
        (mean(sizes[sizes.len() - 1]) - mean(sizes[0])) / 1e3
    };
    let (darpc, farm) = (added_us(Darpc), added_us(Farm));
    assert!(
        darpc > farm,
        "fig13: DaRPC adds {darpc:.2} us (64B->16KB), FaRM {farm:.2} us — expected DaRPC larger"
    );
    vec![t]
}

/// Figs. 14–16: latency under network / receiver-CPU / sender-CPU load.
pub fn fig14_15_16(scale: Scale) -> Vec<Table> {
    let mk_env = |which: &str, busy: bool| {
        let mut env = ExpEnv::sized(65536, ServerProfile::light());
        match which {
            "network" => env.network_busy = busy,
            "receiver_cpu" => env.receiver_busy = busy,
            "sender_cpu" => env.sender_busy = busy,
            _ => unreachable!(),
        }
        env
    };
    let figs = [
        ("fig14_network_load", "network"),
        ("fig15_receiver_cpu", "receiver_cpu"),
        ("fig16_sender_cpu", "sender_cpu"),
    ];
    let kinds: Vec<SystemKind> = SystemKind::PAPER_EVAL
        .into_iter()
        // 64 KB objects exceed the UD MTU (as in paper).
        .filter(|&k| k != SystemKind::Fasst)
        .collect();
    let mut points = Vec::new();
    for (_, which) in figs {
        for &kind in &kinds {
            for busy in [false, true] {
                points.push((which, kind, busy));
            }
        }
    }
    let cells = par_map(points, |(which, kind, busy)| {
        let cfg = MicroConfig {
            objects: scale.objects,
            ops: scale.micro_ops / 4,
            object_size: 65536,
            ..Default::default()
        };
        let r = micro_run(kind, &mk_env(which, busy), cfg);
        us(r.run.latency.mean_us())
    });
    let mut cells = cells.into_iter();
    let mut tables = Vec::new();
    for (fig, which) in figs {
        let mut t = Table::new(
            fig,
            format!("Average latency (us): idle vs busy {which}"),
            &["system", "idle", "busy"],
        );
        for &kind in &kinds {
            let mut row = vec![kind.name().to_string()];
            row.extend(cells.by_ref().take(2));
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

/// Fig. 17: average latency vs number of concurrent senders.
///
/// Uses 1 KB objects: at the paper's default 64 KB the shared server
/// ingress saturates and every system degrades identically; the paper's
/// differentiation (two-sided systems degrade, ours stay stable) is a
/// server-CPU effect that 1 KB objects expose (EXPERIMENTS.md).
pub fn fig17(scale: Scale) -> Vec<Table> {
    let sender_counts = [10usize, 20, 30, 40, 50];
    let mut t = Table::new(
        "fig17_concurrent_senders",
        "Average latency (us) vs concurrent senders (1KB objects)",
        &["system", "10", "20", "30", "40", "50"],
    );
    let mut points = Vec::new();
    for kind in SystemKind::PAPER_EVAL {
        for &n in &sender_counts {
            points.push((kind, n));
        }
    }
    let runs = par_map(points.clone(), |(kind, n)| {
        let env = ExpEnv::sized(1024, ServerProfile::light());
        let cfg = MicroConfig {
            objects: scale.objects,
            ops: scale.concurrent_ops,
            object_size: 1024,
            ..Default::default()
        };
        micro_run_concurrent(kind, &env, cfg, n)
    });
    let mut cells = runs.iter().map(|r| us(r.latency.mean_us()));
    for kind in SystemKind::PAPER_EVAL {
        let mut row = vec![kind.name().to_string()];
        row.extend(cells.by_ref().take(sender_counts.len()));
        t.row(row);
    }

    // Fig. 17: our durable RPCs scale with concurrent senders better than
    // two-sided baselines (less remote CPU on the persistence path):
    // strictly lower latency at the most senders, and growth no worse
    // than DaRPC's.
    let mean = |kind, n| at(&points, &runs, (kind, n)).latency.mean_ns;
    let (lo, hi) = (sender_counts[0], sender_counts[sender_counts.len() - 1]);
    let (ours_lo, ours_hi) = (mean(WFlush, lo), mean(WFlush, hi));
    let (darpc_lo, darpc_hi) = (mean(Darpc, lo), mean(Darpc, hi));
    assert!(
        ours_hi < darpc_hi,
        "fig17: at {hi} senders WFlush {ours_hi:.0} ns must undercut DaRPC {darpc_hi:.0} ns"
    );
    let (ours_growth, darpc_growth) = (ours_hi / ours_lo, darpc_hi / darpc_lo);
    assert!(
        ours_growth < darpc_growth * 1.25,
        "fig17: WFlush grows {ours_growth:.2}x vs DaRPC {darpc_growth:.2}x from {lo} to {hi} senders"
    );
    vec![t]
}

/// Fig. 18: average latency vs read/write mix.
pub fn fig18(scale: Scale) -> Vec<Table> {
    let mixes = [(0.05, "5%r+95%w"), (0.5, "50%r+50%w"), (0.95, "95%r+5%w")];
    let mut t = Table::new(
        "fig18_access_pattern",
        "Average latency (us) vs read/write ratio",
        &["system", "5%r+95%w", "50%r+50%w", "95%r+5%w"],
    );
    let kinds: Vec<SystemKind> = SystemKind::PAPER_EVAL
        .into_iter()
        .filter(|&k| k != SystemKind::Fasst)
        .collect();
    let mut points = Vec::new();
    for &kind in &kinds {
        for &(ratio, _) in &mixes {
            points.push((kind, ratio));
        }
    }
    let runs = par_map(points.clone(), |(kind, ratio)| {
        let env = ExpEnv::sized(65536, ServerProfile::light());
        let cfg = MicroConfig {
            objects: scale.objects,
            ops: scale.micro_ops / 4,
            object_size: 65536,
            read_ratio: ratio,
            ..Default::default()
        };
        micro_run(kind, &env, cfg).run
    });
    let mut cells = runs.iter().map(|r| us(r.latency.mean_us()));
    for &kind in &kinds {
        let mut row = vec![kind.name().to_string()];
        row.extend(cells.by_ref().take(mixes.len()));
        t.row(row);
    }

    // Fig. 18: for read-intensive mixes the systems converge; for
    // write-intensive mixes ours win clearly.
    let gain = |ratio| {
        let mean = |kind| at(&points, &runs, (kind, ratio)).latency.mean_ns;
        mean(Farm) / mean(WFlush)
    };
    let (write_gain, read_gain) = (gain(mixes[0].0), gain(mixes[mixes.len() - 1].0));
    assert!(
        write_gain > read_gain,
        "fig18: write-mix gain {write_gain:.2} must exceed read-mix gain {read_gain:.2}"
    );
    assert!(
        write_gain > 1.1,
        "fig18: write-mix gain {write_gain:.2} too small"
    );
    assert!(
        read_gain < 1.3,
        "fig18: read-intensive mixes should be near parity, got {read_gain:.2}"
    );
    vec![t]
}

/// Fig. 19: total execution time vs batch size for the batchable systems.
pub fn fig19(scale: Scale) -> Vec<Table> {
    let systems = [
        SystemKind::Darpc,
        SystemKind::ScaleRpc,
        SystemKind::SRFlush,
        SystemKind::SFlush,
        SystemKind::WRFlush,
        SystemKind::WFlush,
    ];
    let batch_sizes = [1usize, 4, 8];
    let ops = scale.micro_ops / 2;
    let mut t = Table::new(
        "fig19_batching",
        format!("Total time (ms, simulated) for {ops} batched 1KB puts"),
        &["system", "batch=1", "batch=4", "batch=8"],
    );
    let mut points = Vec::new();
    for kind in systems {
        for &k in &batch_sizes {
            points.push((kind, k));
        }
    }
    let elapsed = par_map(points.clone(), |(kind, k)| {
        let env = ExpEnv::sized(1024, ServerProfile::light());
        let mut sim = Sim::new(SEED);
        let cluster = {
            // Reuse runner plumbing by rebuilding inline.
            let mut ccfg = prdma_node::ClusterConfig::with_nodes(2);
            ccfg.rnic.ddio = false;
            prdma_node::Cluster::new(sim.handle(), ccfg)
        };
        let opts = prdma_baselines::SystemOpts::for_object_size(1024, env.profile.clone());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        sim.block_on(async move {
            let t0 = h.now();
            let mut i = 0u64;
            while i < ops {
                let batch: Vec<Request> = (0..k as u64)
                    .map(|j| Request::Put {
                        obj: (i + j) % 1000,
                        data: Payload::synthetic(1024, i + j),
                    })
                    .collect();
                client.call_batch(batch).await.unwrap();
                i += k as u64;
            }
            h.now() - t0
        })
    });
    let mut cells = elapsed
        .iter()
        .map(|e| format!("{:.2}", e.as_secs_f64() * 1e3));
    for kind in systems {
        let mut row = vec![kind.name().to_string()];
        row.extend(cells.by_ref().take(batch_sizes.len()));
        t.row(row);
    }

    // Fig. 19: batching helps the write-based durable RPCs substantially
    // (one flush covers a whole durable batch).
    let wflush = |k| at(&points, &elapsed, (WFlush, k)).as_nanos();
    let (t1, t8) = (wflush(1), wflush(8));
    assert!(
        (t8 as f64) < t1 as f64 * 0.6,
        "fig19: WFlush batch=8 ({t8} ns) should be well under batch=1 ({t1} ns)"
    );
    vec![t]
}
