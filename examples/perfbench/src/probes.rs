//! `probe_*` layer metrics: timed loops around one public entry point
//! each — the bodies of `crates/bench/benches/sim_core.rs`, re-implemented
//! here so the benchmark stays a package of its own. Each probe reports
//! the fastest of `iters` runs, per element: a probe measures what the
//! code costs, not what the sandbox was doing meanwhile.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use prdma::{
    build_sharded_durable_cached, encode_entry, CacheConfig, DurableConfig, DurableKind, OpCode,
    Request, RpcClient, RpcOperator, ServerProfile, ShardMap,
};
use prdma_node::{Cluster, ClusterConfig};
use prdma_rnic::Payload;
use prdma_simnet::journal::{EventKind, Journal, Subsystem};
use prdma_simnet::metrics::{Key, Metrics};
use prdma_simnet::{channel, timeout, Histogram, Sim, SimDuration};
use prdma_workloads::dist::{workload_rng, Zipfian};

/// A probe body: returns `(checksum, elements)`.
type Probe = fn() -> (u64, u64);

/// Fastest of `iters` runs of `f`, in nanoseconds per element.
fn fastest(iters: u32, f: Probe) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        let (sum, elems) = f();
        let ns = t.elapsed().as_nanos() as f64;
        black_box(sum);
        best = best.min(ns / elems.max(1) as f64);
    }
    best
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn spawn_sleep() -> (u64, u64) {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    for i in 0..10_000u64 {
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_nanos(i % 97)).await;
        });
    }
    sim.run();
    (sim.events_processed(), sim.events_processed())
}

fn timeout_cancel() -> (u64, u64) {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    for i in 0..10_000u64 {
        let h2 = h.clone();
        sim.spawn(async move {
            let inner = h2.sleep(SimDuration::from_nanos(i % 97));
            timeout(&h2, SimDuration::from_secs(3600), inner)
                .await
                .expect("inner sleep beats the 1h timeout");
        });
    }
    sim.run();
    (sim.events_processed(), 10_000)
}

fn send_recv() -> (u64, u64) {
    const MSGS: u64 = 100_000;
    const BURST: u64 = 1024;
    let mut sim = Sim::new(1);
    let (tx, mut rx) = channel::<u64>();
    let h = sim.handle();
    sim.spawn(async move {
        let mut i = 0u64;
        while i < MSGS {
            let end = (i + BURST).min(MSGS);
            tx.send_batch(i..end).expect("receiver alive");
            i = end;
            h.yield_now().await;
        }
    });
    let sum = sim.block_on(async move {
        let mut sum = 0u64;
        let mut buf = VecDeque::new();
        while rx.recv_all(&mut buf).await != 0 {
            sum = buf.drain(..).fold(sum, u64::wrapping_add);
        }
        sum
    });
    (sum, MSGS)
}

fn journal_record() -> (u64, u64) {
    const RECORDS: u64 = 100_000;
    let sim = Sim::new(1);
    let j = Journal::new(sim.handle(), 0);
    for i in 0..RECORDS {
        j.record(Subsystem::Rpc, EventKind::RpcDispatch, i, i, 64);
    }
    (j.len() as u64, RECORDS)
}

fn metrics_record() -> (u64, u64) {
    const PAIRS: u64 = 1_000_000;
    let mut sim = Sim::new(1);
    let m = Metrics::new(sim.handle(), 0, SimDuration::from_micros(100));
    let ops_key = Key::new("ops").shard(1).kind("put");
    let ops = m.counter_handle(ops_key);
    let lat = m.window_handle(Key::new("lat").shard(1).kind("put"));
    sim.spawn(async move {
        let mut x = 88172645463325252u64;
        for _ in 0..PAIRS {
            ops.incr(1);
            lat.observe(xorshift(&mut x) % 100_000);
        }
    });
    sim.run();
    (m.counter(ops_key), PAIRS)
}

fn hist_record() -> (u64, u64) {
    const SAMPLES: u64 = 1_000_000;
    let mut h = Histogram::new();
    let mut x = 88172645463325252u64;
    for _ in 0..SAMPLES {
        h.record(xorshift(&mut x) % 10_000_000);
    }
    (h.percentile(0.99), SAMPLES)
}

fn encode() -> (u64, u64) {
    const ENTRIES: u64 = 100_000;
    let op = RpcOperator {
        opcode: OpCode::Put,
        obj_id: 42,
    };
    let data = Payload::synthetic(4096, 1);
    let mut total = 0u64;
    for i in 0..ENTRIES {
        total += encode_entry(i, op, &data).len();
    }
    (total, ENTRIES)
}

fn zipf_sample() -> (u64, u64) {
    const DRAWS: u64 = 1_000_000;
    let zipf = Zipfian::new(2_000, 0.99);
    let mut rng = workload_rng(1);
    let mut sum = 0u64;
    for _ in 0..DRAWS {
        sum = sum.wrapping_add(zipf.sample(&mut rng));
    }
    (sum, DRAWS)
}

/// One warm key served from the client-side lease cache; only the hits
/// are timed.
fn get_hot(iters: u32) -> f64 {
    const HITS: u64 = 10_000;
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let mut sim = Sim::new(1);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(1, 1));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let cache = CacheConfig {
            hot_threshold: 1,
            mirror: false,
            ..Default::default()
        };
        let (svc, _leases) =
            build_sharded_durable_cached(&cluster, ShardMap::new(1), &[1], &cfg, &cache);
        let client = svc.clients.into_iter().next().expect("one client");
        let client = sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 1,
                    data: Payload::synthetic(1024, 1),
                })
                .await
                .expect("seed put");
            client
                .call(Request::Get { obj: 1, len: 1024 })
                .await
                .expect("filling get");
            client
        });
        let t = Instant::now();
        let sum = sim.block_on(async move {
            let mut sum = 0u64;
            for _ in 0..HITS {
                let r = client
                    .call(Request::Get { obj: 1, len: 1024 })
                    .await
                    .expect("cached get");
                sum = sum.wrapping_add(r.payload.map_or(0, |p| p.len()));
            }
            sum
        });
        let ns = t.elapsed().as_nanos() as f64;
        black_box(sum);
        best = best.min(ns / HITS as f64);
    }
    best
}

/// Run every probe; returns host nanoseconds per element by metric name.
pub fn run(iters: u32) -> BTreeMap<String, f64> {
    let probes: [(&str, Probe); 8] = [
        (
            "simnet.executor.probe_spawn_sleep_ns_per_event",
            spawn_sleep,
        ),
        (
            "simnet.executor.probe_timeout_cancel_ns_per_op",
            timeout_cancel,
        ),
        ("simnet.channel.probe_send_recv_ns_per_msg", send_recv),
        ("simnet.journal.probe_record_ns", journal_record),
        ("simnet.metrics.probe_metrics_record_ns", metrics_record),
        ("simnet.stats.probe_hist_record_ns", hist_record),
        ("core.log.probe_encode_entry_ns", encode),
        ("workloads.dist.probe_zipf_sample_ns", zipf_sample),
    ];
    let mut out: BTreeMap<String, f64> = probes
        .iter()
        .map(|&(name, f)| (name.to_string(), fastest(iters, f)))
        .collect();
    out.insert("core.cache.probe_get_hot_ns".to_string(), get_hot(iters));
    out
}
