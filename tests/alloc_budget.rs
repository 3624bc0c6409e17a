//! A host-cost guard a shared runner can hold: wall time on a busy
//! machine is noise, but how often and how much the simulator allocates
//! per operation is exact and repeats from run to run.
//!
//! Five shapes, the first four counted after a warm-up:
//!
//! * One client, one server, synthetic WFlush puts: 1 000 puts at 64 B and
//!   at 64 KB. A synthetic body carries a length and no bytes, so the host
//!   cost of a put must not depend on its size: nothing payload-sized may
//!   be allocated (reading a log entry used to copy the zero-filled body
//!   out of PM, twice per put), and the bytes requested per put must stay
//!   within 2x across a 1024x size range.
//! * One client of a 4-shard `build_fleet` fleet running 2R+2W
//!   transactions (two reads, two 64 B writes, commit) — the `txn_2pc`
//!   shape, which spawns a task per prepare and per commit record.
//! * One client of a 2-replica `build_replicated` group, synthetic 64 B
//!   WFlush puts: two durable legs per put, and the fan-out around them
//!   allocates nothing but the two leg tasks.
//! * One client of a 2-shard `build_fleet` fleet with the lease cache on,
//!   synthetic 64 B WFlush puts through `ShardedClient::call`: the router
//!   and the cache forward the durable connection's future and box
//!   nothing of their own.
//! * The `openloop_fleet` fleet: the bytes `build_fleet` allocates, where
//!   every connection's latency window starts without bucket storage,
//!   and the bytes one metrics tick stores per node.
//!
//! The counts are pinned with 10 % headroom; the printed lines are the
//! baseline for whoever lowers them next.
//!
//! Allocations are counted per thread, so the tests may run side by side;
//! this file is its own test binary so that no other test shares the
//! counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use prdma_suite::core::txn::TxnOutcome;
use prdma_suite::core::{
    build_durable, build_fleet, build_replicated, CacheConfig, DurableConfig, DurableKind,
    FleetSpec, Request, RpcClient, ServerProfile, ShardMap,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::Sim;

/// What this thread has asked of the allocator.
#[derive(Clone, Copy)]
struct Tally {
    calls: u64,
    bytes: u64,
    largest: u64,
}

thread_local! {
    // `Copy` contents: no destructor to register, so touching it from
    // inside the allocator never allocates.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            bytes: 0,
            largest: 0,
        })
    };
}

fn count(size: usize) {
    // `try_with`: a thread's last frees can run after its TLS is gone.
    let _ = TALLY.try_with(|t| {
        let mut tally = t.get();
        tally.calls += 1;
        tally.bytes += size as u64;
        tally.largest = tally.largest.max(size as u64);
        t.set(tally);
    });
}

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// `System`, counting what each thread asks of it.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was given; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's `ptr`, `layout` and `new_size`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `ptr` and `layout`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 200;
const PUTS: u64 = 1_000;
const OBJECTS: u64 = 64;

/// Allocator traffic of one measured run.
struct Cost {
    calls_per_op: f64,
    bytes_per_op: f64,
    largest: u64,
}

/// Start counting: this thread's tally so far, with `largest` reset.
fn start_counting() -> Tally {
    TALLY.with(|t| {
        t.set(Tally {
            largest: 0,
            ..t.get()
        });
        t.get()
    })
}

/// What `ops` operations cost since `before`.
fn cost_since(before: Tally, ops: u64) -> Cost {
    let after = tally();
    Cost {
        calls_per_op: (after.calls - before.calls) as f64 / ops as f64,
        bytes_per_op: (after.bytes - before.bytes) as f64 / ops as f64,
        largest: after.largest,
    }
}

/// `WARM_UP` uncounted puts of `size` synthetic bytes, then `PUTS` counted.
fn measure_puts(size: u64) -> Cost {
    let mut sim = Sim::new(21);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let cfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: size,
        object_slot: size,
        store_capacity: OBJECTS * size,
        ..Default::default()
    };
    let (client, _) = build_durable(&cluster, 1, 0, 0, cfg);
    count_puts(&mut sim, client, size)
}

/// `WARM_UP` uncounted puts of `size` synthetic bytes through `client`'s
/// `call`, then `PUTS` counted.
fn count_puts(sim: &mut Sim, client: impl RpcClient + 'static, size: u64) -> Cost {
    sim.block_on(async move {
        let put = |seq: u64| {
            client.call(Request::Put {
                obj: seq % OBJECTS,
                data: Payload::synthetic(size, seq),
            })
        };
        for seq in 0..WARM_UP {
            assert!(put(seq).await.expect("warm-up put").durable);
        }
        let before = start_counting();
        for seq in WARM_UP..WARM_UP + PUTS {
            assert!(put(seq).await.expect("counted put").durable);
        }
        cost_since(before, PUTS)
    })
}

/// Allocations per put at 64 B and at 64 KB (the 64 KB put crosses the
/// wire in more segments); debug and release count the same. They read
/// 9.05 / 9.32 before metric windows were reset in place, 17.05 / 18.32
/// before the one-allocation task cell and the stack-built log entry, and
/// 26.31 / 27.55 before the radix timer queue and the header-only log
/// read (138 285 bytes per 64 KB put then).
const PINNED_CALLS_PER_PUT: [f64; 2] = [9.04, 9.24];

#[test]
fn allocations_per_put_are_bounded_and_independent_of_size() {
    let costs = [measure_puts(64), measure_puts(64 * 1024)];
    for (name, cost) in ["64 B", "64 KB"].into_iter().zip(&costs) {
        println!(
            "alloc_budget: {name} WFlush put: {:.2} calls/op, {:.0} bytes/op, largest {} B",
            cost.calls_per_op, cost.bytes_per_op, cost.largest
        );
    }
    let [small, large] = &costs;
    // The largest allocation left is 8 720 B: the PM overlay's dirty-line
    // index rehashing to 512 buckets (16 B entries plus control bytes) as
    // the standing done marks pass 224 of the 256 log slots. A metric
    // window grows its buckets to the end of the highest octave its
    // latencies reach, which stays under it below 4 ms (1 088 buckets,
    // 8 704 B). Until windows were reset in place it was each window's
    // fresh 30 208 B histogram, once per tick.
    assert!(
        large.largest < 9 * 1024,
        "a {} B allocation in the 64 KB run: something payload-sized is being copied",
        large.largest
    );
    assert!(
        large.bytes_per_op <= 2.0 * small.bytes_per_op,
        "{:.0} bytes/put at 64 KB against {:.0} at 64 B",
        large.bytes_per_op,
        small.bytes_per_op
    );
    for (cost, pinned) in costs.iter().zip(PINNED_CALLS_PER_PUT) {
        assert!(
            cost.calls_per_op <= pinned * 1.1,
            "{:.2} allocations per put, pinned at {pinned}",
            cost.calls_per_op
        );
    }
}

const SHARDS: usize = 4;
const TXN_OBJECTS: u64 = 256;
const TXN_WARM_UP: u64 = 50;
const TXNS: u64 = 500;
const TXN_VALUE: u64 = 64;

/// Allocations per committed 2R+2W transaction on a 4-shard fleet with one
/// client (so none aborts); debug and release count the same. It read
/// 80.51 before metric windows were reset in place, and 146.98 before the
/// task cell, the hashed 2PC tables, the `Vec` write set and the
/// stack-built log entry.
const PINNED_CALLS_PER_TXN: f64 = 80.35;

#[test]
fn allocations_per_2pc_transaction_are_bounded() {
    let mut sim = Sim::new(28);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(SHARDS, 1));
    let map = ShardMap::new(SHARDS);
    let cfg = DurableConfig {
        profile: ServerProfile::light(),
        // Room for a prepare record carrying both writes.
        slot_payload: 1024,
        object_slot: TXN_VALUE,
        store_capacity: map.local_span(TXN_OBJECTS) * TXN_VALUE,
        log_slots: 256,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: None,
    };
    let fleet = build_fleet(&cluster, map, &[SHARDS], &cfg, spec);
    let client = fleet.clients.into_iter().next().expect("one client");
    let cost = sim.block_on(async move {
        // Keys 4t .. 4t + 3: reads of the first two, writes of the last two.
        let txn = |t: u64| {
            let client = &client;
            async move {
                let key = |k: u64| (4 * t + k) % TXN_OBJECTS;
                let mut txn = client.begin();
                for k in 0..2 {
                    let read = client.read(&mut txn, key(k), TXN_VALUE).await;
                    read.expect("txn read");
                }
                for k in 2..4 {
                    txn.put(key(k), &Payload::synthetic(TXN_VALUE, t));
                }
                let outcome = client.commit(txn).await.expect("commit");
                assert_eq!(outcome, TxnOutcome::Committed);
            }
        };
        for t in 0..TXN_WARM_UP {
            txn(t).await;
        }
        let before = start_counting();
        for t in TXN_WARM_UP..TXN_WARM_UP + TXNS {
            txn(t).await;
        }
        cost_since(before, TXNS)
    });
    println!(
        "alloc_budget: 2R+2W txn, {SHARDS} shards: {:.2} calls/op, {:.0} bytes/op, largest {} B",
        cost.calls_per_op, cost.bytes_per_op, cost.largest
    );
    assert!(
        cost.calls_per_op <= PINNED_CALLS_PER_TXN * 1.1,
        "{:.2} allocations per txn, pinned at {PINNED_CALLS_PER_TXN}",
        cost.calls_per_op
    );
}

const REPLICAS: usize = 2;

/// Allocations per synthetic 64 B put through a 2-replica group; debug and
/// release count the same. It read 33.09 before the fan-out moved to
/// replica bitmasks (two liveness `Vec` clones and the `targets`,
/// `acked`, join and outcome `Vec`s per put), the replicated apply stopped
/// copying the logged payload out of PM twice per leg, and metric windows
/// were reset in place.
const PINNED_CALLS_PER_REPLICATED_PUT: f64 = 23.08;

#[test]
fn allocations_per_replicated_put_are_bounded() {
    let mut sim = Sim::new(30);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(REPLICAS + 1));
    let cfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 64,
        object_slot: 64,
        store_capacity: OBJECTS * 64,
        ..Default::default()
    };
    let replicas: Vec<usize> = (0..REPLICAS).collect();
    let (client, _group) = build_replicated(&cluster, REPLICAS, &replicas, cfg);
    let cost = count_puts(&mut sim, client, 64);
    println!(
        "alloc_budget: 64 B put, {REPLICAS} replicas: {:.2} calls/op, {:.0} bytes/op, largest {} B",
        cost.calls_per_op, cost.bytes_per_op, cost.largest
    );
    assert!(
        cost.calls_per_op <= PINNED_CALLS_PER_REPLICATED_PUT * 1.1,
        "{:.2} allocations per replicated put, pinned at {PINNED_CALLS_PER_REPLICATED_PUT}",
        cost.calls_per_op
    );
}

const CACHED_SHARDS: usize = 2;

/// Allocations per synthetic 64 B WFlush put through `ShardedClient::call`
/// on a 2-shard fleet with the lease cache in front of each shard; debug
/// and release count the same. The router and the cache return the
/// durable connection's own future for a put and box nothing of their
/// own; it read 11.08 while each of them boxed a future around the put.
const PINNED_CALLS_PER_SHARDED_CACHED_PUT: f64 = 9.08;

#[test]
fn allocations_per_sharded_cached_put_are_bounded() {
    let mut sim = Sim::new(33);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(CACHED_SHARDS, 1));
    let map = ShardMap::new(CACHED_SHARDS);
    let cfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 64,
        object_slot: 64,
        store_capacity: map.local_span(OBJECTS) * 64,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: Some(CacheConfig::default()),
    };
    let fleet = build_fleet(&cluster, map, &[CACHED_SHARDS], &cfg, spec);
    let client = fleet.clients.into_iter().next().expect("one client");
    let cost = count_puts(&mut sim, client, 64);
    println!(
        "alloc_budget: 64 B put, {CACHED_SHARDS} shards + cache: {:.2} calls/op, {:.0} bytes/op, largest {} B",
        cost.calls_per_op, cost.bytes_per_op, cost.largest
    );
    assert!(
        cost.calls_per_op <= PINNED_CALLS_PER_SHARDED_CACHED_PUT * 1.1,
        "{:.2} allocations per sharded cached put, pinned at {PINNED_CALLS_PER_SHARDED_CACHED_PUT}",
        cost.calls_per_op
    );
}

const FLEET_SHARDS: usize = 4;
const FLEET_ENDPOINTS: usize = 8;
const FLEET_OBJECTS: u64 = 2_000;
const TICK_ROUNDS: u64 = 50;

/// Bytes `build_fleet` allocates for the `openloop_fleet` shape: 4 shards
/// of 2 replicas, 8 client endpoints, 512 log slots of 1 KB; debug and
/// release count the same. Every connection registers a latency window,
/// so this is where the metric windows' bucket storage shows: it read
/// 1 541 770 B while each window's histogram zero-filled all 3 776
/// buckets (30 208 B) when it was made.
const PINNED_FLEET_BUILD_BYTES: u64 = 610_954;

/// Bytes one metrics tick allocates on one node of that fleet, averaged
/// over every node and `TICK_ROUNDS` ticks, each after a put through every
/// client endpoint so that the windows hold samples; a growing history
/// `Vec` counts each reallocation's full size. It read 4 559 B while each
/// tick stored a `Snapshot` with every value beside its 56-byte `Key`.
const PINNED_BYTES_PER_TICK: f64 = 1_326.0;

#[test]
fn fleet_build_and_metrics_ticks_are_bounded() {
    let mut sim = Sim::new(36);
    let cluster = Cluster::new(
        sim.handle(),
        ClusterConfig::with_servers(FLEET_SHARDS, FLEET_ENDPOINTS),
    );
    let map = ShardMap::new(FLEET_SHARDS);
    let cfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: map.local_span(FLEET_OBJECTS) * 1024,
        log_slots: 512,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 2,
        cache: None,
    };
    let client_nodes: Vec<usize> = (FLEET_SHARDS..FLEET_SHARDS + FLEET_ENDPOINTS).collect();
    let before = start_counting();
    let fleet = build_fleet(&cluster, map, &client_nodes, &cfg, spec);
    let build = cost_since(before, 1);
    let clients = fleet.clients;
    let metrics: Vec<_> = (0..cluster.len())
        .map(|n| cluster.node(n).metrics.clone())
        .collect();
    let tick_bytes = sim.block_on(async move {
        let mut bytes = 0;
        for round in 0..TICK_ROUNDS {
            for (i, client) in clients.iter().enumerate() {
                let seq = round * FLEET_ENDPOINTS as u64 + i as u64;
                let put = Request::Put {
                    obj: seq % FLEET_OBJECTS,
                    data: Payload::synthetic(1024, seq),
                };
                assert!(client.call(put).await.expect("fleet put").durable);
            }
            let before = start_counting();
            for m in &metrics {
                m.force_snapshot();
            }
            bytes += tally().bytes - before.bytes;
        }
        bytes
    });
    let ticks = TICK_ROUNDS * cluster.len() as u64;
    let bytes_per_tick = tick_bytes as f64 / ticks as f64;
    println!(
        "alloc_budget: openloop_fleet build: {:.0} calls, {:.0} bytes, largest {} B; {bytes_per_tick:.0} bytes per metrics tick",
        build.calls_per_op, build.bytes_per_op, build.largest
    );
    assert!(
        build.bytes_per_op <= PINNED_FLEET_BUILD_BYTES as f64 * 1.1,
        "build_fleet allocated {:.0} bytes, pinned at {PINNED_FLEET_BUILD_BYTES}",
        build.bytes_per_op
    );
    assert!(
        bytes_per_tick <= PINNED_BYTES_PER_TICK * 1.1,
        "{bytes_per_tick:.0} bytes per metrics tick, pinned at {PINNED_BYTES_PER_TICK}"
    );
}
