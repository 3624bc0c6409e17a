//! A host-cost guard a shared runner can hold (ISSUE 21): wall time on a
//! busy machine is noise, but how often and how much the simulator
//! allocates per durable put is exact and repeats from run to run.
//!
//! One client, one server, synthetic WFlush puts; after a warm-up the
//! allocator is counted over 1 000 puts at 64 B and at 64 KB. A synthetic
//! body carries a length and no bytes, so the host cost of a put must not
//! depend on its size: nothing payload-sized may be allocated (reading a
//! log entry used to copy the zero-filled body out of PM, twice per put),
//! and the bytes requested per put must stay within 2x across a 1024x size
//! range. The count per put is pinned with 10 % headroom; the printed
//! lines are the baseline for whoever lowers it next (the task box and its
//! `JoinState` in one allocation is the obvious cut).
//!
//! This file is its own test binary with a single `#[test]` on purpose:
//! the counters are per process, and a sibling test allocating on another
//! thread would move them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::Sim;

/// `System`, counting what is asked of it. `Relaxed`: the counters are
/// statistics read on the thread that did the allocating.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    LARGEST.fetch_max(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was given; counting touches only atomics
// and never allocates.
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
    calls_per_put: f64,
    bytes_per_put: f64,
    largest: u64,
}

/// `WARM_UP` uncounted puts of `size` synthetic bytes, then `PUTS` counted.
fn measure(size: u64) -> Cost {
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
    let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
    server.start();
    let (calls, bytes) = sim.block_on(async move {
        let put = |seq: u64| {
            client.call(Request::Put {
                obj: seq % OBJECTS,
                data: Payload::synthetic(size, seq),
            })
        };
        for seq in 0..WARM_UP {
            assert!(put(seq).await.expect("warm-up put").durable);
        }
        LARGEST.store(0, Relaxed);
        let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
        for seq in WARM_UP..WARM_UP + PUTS {
            assert!(put(seq).await.expect("counted put").durable);
        }
        (
            CALLS.load(Relaxed) - before.0,
            BYTES.load(Relaxed) - before.1,
        )
    });
    Cost {
        calls_per_put: calls as f64 / PUTS as f64,
        bytes_per_put: bytes as f64 / PUTS as f64,
        largest: LARGEST.load(Relaxed),
    }
}

/// Allocations per put when this guard was written, at 64 B and at 64 KB
/// (the 64 KB put crosses the wire in more segments). Debug and release
/// count the same. The parent of that change read 26.31 / 27.55, and
/// 138 285 bytes per 64 KB put.
const PINNED_CALLS_PER_PUT: [f64; 2] = [17.05, 18.32];

#[test]
fn allocations_per_put_are_bounded_and_independent_of_size() {
    let costs = [measure(64), measure(64 * 1024)];
    for (name, cost) in ["64 B", "64 KB"].into_iter().zip(&costs) {
        println!(
            "alloc_budget: {name} WFlush put: {:.2} calls/op, {:.0} bytes/op, largest {} B",
            cost.calls_per_put, cost.bytes_per_put, cost.largest
        );
    }
    let [small, large] = &costs;
    assert!(
        large.largest < 32 * 1024,
        "a {} B allocation in the 64 KB run: something payload-sized is being copied",
        large.largest
    );
    assert!(
        large.bytes_per_put <= 2.0 * small.bytes_per_put,
        "{:.0} bytes/put at 64 KB against {:.0} at 64 B",
        large.bytes_per_put,
        small.bytes_per_put
    );
    for (cost, pinned) in costs.iter().zip(PINNED_CALLS_PER_PUT) {
        assert!(
            cost.calls_per_put <= pinned * 1.1,
            "{:.2} allocations per put, pinned at {pinned}",
            cost.calls_per_put
        );
    }
}
