//! Microbenches of the simulator's hot paths that the repo benchmark's
//! `probe_*` metrics do not measure — an RPC-shaped timer mix, the PM
//! dirty-line overlay, the evicting cached GET and whole-world
//! build/run/drop cycles — plus the two host-time gates, and the wall time
//! of every `exp::FIGURES` entry at smoke scale. These guard the harness's
//! own performance (a slow simulator means slow paper regeneration).
//!
//! Each number has one producer. Executor spawn/sleep, timer
//! cancellation, histogram and metrics recording and redo-log entry
//! encoding are perfbench's probes (`examples/perfbench`,
//! `simnet.executor.probe_spawn_sleep_ns_per_event`,
//! `simnet.executor.probe_timeout_cancel_ns_per_op`,
//! `simnet.stats.probe_hist_record_ns`,
//! `simnet.metrics.probe_metrics_record_ns`,
//! `core.log.probe_encode_entry_ns`), and the 2PC commit pipeline is its
//! `txn_2pc` workload (`host_ns_per_op`, `core.txn.host_us_per_txn`). The
//! channel and warm cached-GET rows repeat its `send_recv` and `get_hot`
//! probes because the two gates in `main` read them.
//!
//! Dependency-free harness (no criterion, so the workspace builds
//! offline): each bench runs a fixed number of iterations and reports
//! wall time, per-element throughput, and — for the DES paths —
//! simulator events/sec. Without the `--bench` flag `cargo bench`
//! passes (under `cargo test`, which passes a `harness = false` bench no
//! argument) it does one quick iteration as a smoke check and writes
//! nothing.
//!
//! Under `--bench`, besides the console lines, the run writes
//! `BENCH_simcore.json` into the output directory (`PRDMA_OUT`, default
//! `target/paper_results`): per-bench ns/iter + events/sec, the wall time
//! of every `exp::FIGURES` entry at smoke scale under the current
//! `PRDMA_PAR`, and the process's peak resident set. The root
//! `BENCH_simcore.json` is frozen history: a change quotes
//! `perfbench compare` and these rows instead of appending to it.

use prdma::{
    build_fleet, CacheConfig, DurableConfig, DurableKind, FleetSpec, Request, RpcClient,
    ServerProfile, ShardMap, ShardedClient,
};
use prdma_bench::exp;
use prdma_bench::report::output_dir;
use prdma_bench::Scale;
use prdma_node::{Cluster, ClusterConfig};
use prdma_pmem::PmDevice;
use prdma_rnic::Payload;
use prdma_simnet::{channel, timeout, Sim, SimDuration};
use std::time::Instant;

struct BenchResult {
    name: &'static str,
    ns_per_iter: f64,
    elems_per_sec: f64,
    /// Simulator events/sec (None for non-DES benches).
    events_per_sec: Option<f64>,
}

/// Run `f` `iters` times; `f` returns `(checksum, events)` where
/// `events` is the simulator events processed per run (0 for non-DES
/// benches). The checksum keeps the work observable.
///
/// An events/sec figure is only emitted when the bench is actually
/// executor-bound: at least one scheduling event per element. A bench
/// whose per-element work happens inside a single task poll (channel
/// drains) processes O(1) executor events per run;
/// dividing those few events by the iteration time yields a number that
/// describes nothing, so we refuse to report it rather than normalize a
/// figure we cannot attribute.
fn bench(
    name: &'static str,
    elements: u64,
    iters: u32,
    mut f: impl FnMut() -> (u64, u64),
) -> BenchResult {
    // Warm-up + checksum so the work can't be optimized away.
    let (mut sink, events) = f();
    let start = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(f().0);
    }
    let elapsed = start.elapsed();
    let per_iter = elapsed / iters;
    let rate = elements as f64 / per_iter.as_secs_f64() / 1e6;
    let events_per_sec = (events >= elements).then(|| events as f64 / per_iter.as_secs_f64());
    match events_per_sec {
        Some(eps) if eps >= 1e6 => println!(
            "{name:<28} {per_iter:>12.2?}/iter {rate:>10.2} Melem/s {:>8.2} Mevents/s (sink {sink:x})",
            eps / 1e6
        ),
        Some(eps) => println!(
            "{name:<28} {per_iter:>12.2?}/iter {rate:>10.2} Melem/s {eps:>8.0} events/s (sink {sink:x})"
        ),
        None => println!("{name:<28} {per_iter:>12.2?}/iter {rate:>10.2} Melem/s (sink {sink:x})"),
    }
    BenchResult {
        name,
        ns_per_iter: per_iter.as_nanos() as f64,
        elems_per_sec: rate * 1e6,
        events_per_sec,
    }
}

fn bench_rpc_shaped(iters: u32) -> BenchResult {
    // What perfbench's spawn/sleep and timeout-cancel probes are not: the
    // timer population of a durable RPC workload. They keep 10 000 timers
    // live or cancel 10 000 at one instant; `put_closed`, `txn_2pc` and
    // `openloop_fleet` keep 6, 44 and 61
    // (`simnet.executor.timer_slab_size`). Here 8 tasks each chain 12 500
    // sleeps of 50 ns - 5 us, every tenth under a 1 ms timeout that never
    // fires — a few live timers close to `now`, a trickle of far ones
    // cancelled young. This is the per-event floor the workloads actually
    // pay.
    bench("executor/rpc_shaped_100k", 100_000, iters, || {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        for task in 0..8u64 {
            let h = h.clone();
            sim.spawn(async move {
                let mut x = 88172645463325252u64 ^ task;
                for i in 0..12_500u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let nap = h.sleep(SimDuration::from_nanos(50 + x % 4_951));
                    if i % 10 == 0 {
                        timeout(&h, SimDuration::from_millis(1), nap)
                            .await
                            .expect("the sleep beats the 1 ms timeout");
                    } else {
                        nap.await;
                    }
                }
            });
        }
        sim.run();
        (sim.now().as_nanos(), sim.events_processed())
    })
}

fn bench_mark_done_overlay(iters: u32) -> BenchResult {
    // The PM overlay as a server's completion path leaves it: 4 096
    // standing dirty lines, one never-flushed done mark per finished log
    // slot at a 4 KiB stride. Each op is one lap of one slot: the next
    // entry's DMA placement (`commit_persistent`, which cleans the old
    // mark), the arrival path's `is_persisted` of the range just placed,
    // and the 8-byte `cache_write` of the new done mark. The row must not
    // grow with the number of standing lines.
    const STRIDE: u64 = 4096;
    const STANDING: u64 = 4096;
    // One device for every iteration (the cycle leaves the standing set
    // as it found it), so the media's lines are materialised by the
    // warm-up pass and the timed ones see the overlay, not the allocator.
    let sim = Sim::new(1);
    let tracer = prdma_simnet::Tracer::new(sim.handle());
    let pm = PmDevice::new(sim.handle(), 64 << 20, tracer, prdma_simnet::Journal::off());
    let done = 1u64.to_le_bytes();
    for slot in 0..STANDING {
        pm.cache_write(slot * STRIDE + 32, &done)
            .expect("in bounds");
    }
    let entry = [0x5Au8; 40 + 1024 + 8];
    bench("pmem/mark_done_overlay_10k", 10_000, iters, || {
        let mut clean = 0u64;
        for i in 0..10_000u64 {
            let addr = i % STANDING * STRIDE;
            pm.commit_persistent(addr, &entry).expect("in bounds");
            clean += pm.is_persisted(addr, entry.len() as u64) as u64;
            pm.cache_write(addr + 32, &done).expect("in bounds");
        }
        (clean, 0)
    })
}

fn bench_channels(iters: u32) -> BenchResult {
    // The rebuilt channel hot path: same-timestamp arrival bursts applied
    // as batched ring extends (`send_batch`) and drained into a reused
    // ring (`recv_all`), the shape the open-loop generator and the
    // durable servers' dispatch loops use under load.
    bench("channel/send_recv_100k", 100_000, iters, || {
        const BURST: u64 = 1024;
        let mut sim = Sim::new(1);
        let (tx, mut rx) = channel::<u64>();
        let h = sim.handle();
        sim.spawn(async move {
            let mut i = 0u64;
            while i < 100_000 {
                let end = (i + BURST).min(100_000);
                tx.send_batch(i..end).unwrap();
                i = end;
                // Each burst is its own scheduling round, so the receiver
                // drains between bursts and the ring stays cache-resident.
                h.yield_now().await;
            }
        });
        let sum = sim.block_on(async move {
            let mut sum = 0u64;
            let mut buf = std::collections::VecDeque::new();
            loop {
                if rx.recv_all(&mut buf).await == 0 {
                    break;
                }
                let (a, b) = buf.as_slices();
                for &v in a {
                    sum = sum.wrapping_add(v);
                }
                for &v in b {
                    sum = sum.wrapping_add(v);
                }
                buf.clear();
            }
            sum
        });
        (sum, sim.events_processed())
    })
}

/// A one-shard WFlush fleet with one client caching at the default
/// capacity from the first miss (`fig_cache` / perfbench `cached_read95`
/// shape, mirror tier off).
fn cached_client(sim: &Sim) -> ShardedClient {
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(1, 1));
    let cfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: 2 << 20,
        log_slots: 64,
        ..Default::default()
    };
    let cache = CacheConfig {
        hot_threshold: 1,
        mirror: false,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: Some(cache),
    };
    let svc = build_fleet(&cluster, ShardMap::new(1), &[1], &cfg, spec);
    svc.clients.into_iter().next().expect("one client")
}

fn bench_cached_get(iters: u32) -> BenchResult {
    // The GET hot path the lease cache added: one warm key served from
    // the client-side cache 10k times — one record lookup, lease-epoch
    // validation, an LRU relink and a CPU poll per hit, with no RPC and
    // no QP traffic. Guards the per-hit overhead of the cache machinery
    // itself.
    bench("cache/get_hot_path_10k", 10_000, iters, || {
        let mut sim = Sim::new(1);
        let client = cached_client(&sim);
        let sum = sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 1,
                    data: Payload::synthetic(1024, 1),
                })
                .await
                .expect("seed put");
            // First get fills the entry; the timed loop then runs the
            // pure hit path.
            let mut sum = 0u64;
            for _ in 0..10_000u64 {
                let r = client
                    .call(Request::Get { obj: 1, len: 1024 })
                    .await
                    .expect("cached get");
                sum = sum.wrapping_add(r.payload.map_or(0, |p| p.len()));
            }
            sum
        });
        (sum, sim.events_processed())
    })
}

fn bench_evicting_get(iters: u32) -> BenchResult {
    // What the hot-path row cannot see: a full cache. Round-robin over
    // twice the default capacity is LRU's worst case, so once the first
    // 1 024 gets have filled the cache every one of the 10k counted gets
    // misses, takes the durable RPC, fills and evicts. The row is the
    // RPC's host cost plus the cache's per-miss bookkeeping, and that
    // bookkeeping must not grow with the number of cached entries (an
    // eviction that scanned them made this row 2.7x slower:
    // BENCH_simcore.json `cache_metadata`).
    let capacity = CacheConfig::default().capacity as u64;
    bench("cache/get_evicting_10k", 10_000, iters, || {
        let mut sim = Sim::new(1);
        let client = cached_client(&sim);
        let sum = sim.block_on(async move {
            let mut sum = 0u64;
            for i in 0..capacity + 10_000 {
                let r = client
                    .call(Request::Get {
                        obj: i % (2 * capacity),
                        len: 1024,
                    })
                    .await
                    .expect("evicting get");
                sum = sum.wrapping_add(r.payload.map_or(0, |p| p.len()));
            }
            sum
        });
        (sum, sim.events_processed())
    })
}

fn bench_build_run_drop(iters: u32) -> BenchResult {
    // Twenty worlds built, crashed, recovered and dropped in a row, the
    // shape of a crash-point sweep: ns_per_iter / 20 is the wall time of
    // one cycle. Guards `Sim` teardown and the sparse PM/DRAM store — when
    // a dropped `Sim` kept its world and a crash zeroed 64 MiB of DRAM,
    // every cycle leaked and faulted in ~70 MiB (BENCH_simcore.json
    // `sim_teardown`; the process's `vm_hwm_kib` is the other half).
    bench("sim/build_run_drop_x20", 20, iters, || {
        (0..20).for_each(exp::build_run_drop);
        (20, 0)
    })
}

/// Time every entry of `exp::FIGURES` at smoke scale under the current
/// `PRDMA_PAR`.
fn time_figs() -> Vec<(&'static str, f64)> {
    exp::FIGURES
        .iter()
        .map(|&(name, run)| {
            let t0 = Instant::now();
            let tables = run(Scale::smoke()).len();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            println!("fig_smoke/{name:<24} {wall_ms:>10.1} ms ({tables} tables)");
            (name, wall_ms)
        })
        .collect()
}

fn write_json(micro: &[BenchResult], figs: &[(&'static str, f64)]) {
    use std::fmt::Write;
    let mut j = String::with_capacity(2048);
    j.push_str("{\n  \"schema\": \"prdma-simcore-bench-v1\",\n");
    let _ = writeln!(
        j,
        "  \"par\": {},\n  \"micro\": [",
        prdma_bench::runner::par_level()
    );
    for (i, b) in micro.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.0}, \"elems_per_sec\": {:.0}, \"events_per_sec\": {}}}{}",
            b.name,
            b.ns_per_iter,
            b.elems_per_sec,
            b.events_per_sec
                .map_or("null".to_string(), |e| format!("{e:.0}")),
            if i + 1 < micro.len() { "," } else { "" },
        );
    }
    j.push_str("  ],\n  \"figs_smoke_wall_ms\": [\n");
    for (i, (name, ms)) in figs.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{name}\", \"wall_ms\": {ms:.1}}}{}",
            if i + 1 < figs.len() { "," } else { "" },
        );
    }
    // Peak resident set of this whole process, micro rows and sweeps.
    let hwm = exp::proc_status_kib("VmHWM").map_or("null".to_string(), |k| k.to_string());
    let _ = writeln!(j, "  ],\n  \"vm_hwm_kib\": {hwm}\n}}");
    let dir = output_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_simcore.json");
    std::fs::write(&path, j).expect("write BENCH_simcore.json");
    println!("   (saved {})", path.display());
}

fn main() {
    // No `--bench` (`cargo test`): run one iteration each as a smoke
    // check and exit quickly (no fig sweeps, no ledger that would
    // overwrite a full run's, and no host-time gates).
    let smoke = !std::env::args().any(|a| a == "--bench");
    let iters = if smoke { 1 } else { 20 };
    let micro = vec![
        bench_rpc_shaped(iters),
        bench_mark_done_overlay(iters),
        bench_channels(iters),
        bench_cached_get(iters),
        bench_evicting_get(iters),
        bench_build_run_drop(iters),
    ];
    if smoke {
        return;
    }
    write_json(&micro, &time_figs());

    // Perf gates on every `--bench` run. The channel/arbitration rewrite
    // must hold at least 5x over the pinned pre-rewrite number in
    // BENCH_simcore.json (channel/send_recv_100k at 1_195_792 ns/iter),
    // with headroom left for shared-runner noise.
    const PINNED_PRE_REWRITE_NS: f64 = 1_195_792.0;
    const REQUIRED_SPEEDUP: f64 = 5.0;
    let ceiling = PINNED_PRE_REWRITE_NS / REQUIRED_SPEEDUP;
    let chan = micro
        .iter()
        .find(|b| b.name == "channel/send_recv_100k")
        .expect("channel bench ran");
    assert!(
        chan.ns_per_iter <= ceiling,
        "perf gate: channel/send_recv_100k at {:.0} ns/iter exceeds the \
         {REQUIRED_SPEEDUP}x gate ({ceiling:.0} ns/iter over the pinned \
         pre-rewrite {PINNED_PRE_REWRITE_NS:.0})",
        chan.ns_per_iter
    );
    println!(
        "perf gate OK: channel/send_recv_100k {:.0} ns/iter <= {ceiling:.0} \
         ({:.1}x over pinned pre-rewrite)",
        chan.ns_per_iter,
        PINNED_PRE_REWRITE_NS / chan.ns_per_iter
    );
    // The cache tentpole's GET hot path: 10k hits against one warm key
    // measure ~3 ms/iter (~300 ns/hit) at pinning time; the ceiling
    // leaves ~4x headroom for shared-runner noise while still catching
    // an accidental RPC (or QP round trip) sneaking back into the hit
    // path, which would cost 100x.
    const CACHED_GET_CEILING_NS: f64 = 12_000_000.0;
    let hit = micro
        .iter()
        .find(|b| b.name == "cache/get_hot_path_10k")
        .expect("cached GET bench ran");
    assert!(
        hit.ns_per_iter <= CACHED_GET_CEILING_NS,
        "perf gate: cache/get_hot_path_10k at {:.0} ns/iter exceeds the pinned \
         ceiling {CACHED_GET_CEILING_NS:.0} ns/iter",
        hit.ns_per_iter
    );
    println!(
        "perf gate OK: cache/get_hot_path_10k {:.0} ns/iter <= {CACHED_GET_CEILING_NS:.0} \
         ({:.0} ns/hit)",
        hit.ns_per_iter,
        hit.ns_per_iter / 10_000.0
    );
}
