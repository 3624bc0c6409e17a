//! Determinism guarantees and property-based tests spanning the whole
//! stack.
//!
//! Randomized cases are generated with the in-tree deterministic
//! `SmallRng` rather than an external property-testing framework, so the
//! suite builds offline and every failure is reproducible from the
//! printed case seed.

use prdma_suite::baselines::{build_system, SystemKind, SystemOpts};
use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RpcClient, ServerProfile,
};
use prdma_suite::fingerprint::{self, Fingerprint, Input};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::journal;
use prdma_suite::simnet::rng::SmallRng;
use prdma_suite::simnet::{Sim, SimDuration};
use prdma_suite::workloads::micro::{run_micro, MicroConfig};

fn full_run(seed: u64, kind: SystemKind) -> (u64, u64, u64) {
    let mut sim = Sim::new(seed);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let cfg = MicroConfig {
        objects: 500,
        ops: 200,
        object_size: 1024,
        seed,
        ..Default::default()
    };
    let h = sim.handle();
    let r = sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
    (
        r.elapsed.as_nanos(),
        r.latency.p99_ns,
        sim.events_processed(),
    )
}

/// Like [`full_run`] but with the event journal enabled; returns the
/// JSONL export alongside the run fingerprint.
fn journaled_run(seed: u64, kind: SystemKind) -> (String, (u64, u64, u64)) {
    let mut sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let cfg = MicroConfig {
        objects: 500,
        ops: 200,
        object_size: 1024,
        seed,
        ..Default::default()
    };
    let h = sim.handle();
    let r = sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
    let jsonl = journal::to_jsonl(&cluster.journal_records());
    (
        jsonl,
        (
            r.elapsed.as_nanos(),
            r.latency.p99_ns,
            sim.events_processed(),
        ),
    )
}

/// The entire stack is deterministic: identical seeds give identical
/// simulated time, identical tail latencies, and identical event counts.
#[test]
fn whole_stack_determinism() {
    for kind in [SystemKind::WFlush, SystemKind::Darpc, SystemKind::ScaleRpc] {
        let a = full_run(11, kind);
        let b = full_run(11, kind);
        assert_eq!(a, b, "{kind:?} not deterministic");
        let c = full_run(12, kind);
        assert_ne!(a.0, c.0, "{kind:?} seed-insensitive (suspicious)");
    }
}

/// The journal export is deterministic and non-perturbing: same seed
/// gives a byte-identical JSONL dump (one durable RPC, one baseline),
/// and enabling the journal leaves the simulated schedule untouched —
/// identical elapsed time, tail latency, and event count as the
/// journal-free run.
#[test]
fn journal_export_is_deterministic() {
    for kind in [SystemKind::WFlush, SystemKind::Darpc] {
        let (a, fp_a) = journaled_run(11, kind);
        let (b, fp_b) = journaled_run(11, kind);
        assert!(!a.is_empty(), "{kind:?}: empty journal export");
        assert_eq!(a, b, "{kind:?}: journal export not byte-identical");
        assert_eq!(fp_a, fp_b, "{kind:?}: run fingerprint not stable");
        assert_eq!(
            fp_a,
            full_run(11, kind),
            "{kind:?}: journaling perturbed the schedule"
        );
        let (c, _) = journaled_run(12, kind);
        assert_ne!(a, c, "{kind:?}: journal seed-insensitive (suspicious)");
    }
}

/// Any mix of put/get sizes round-trips correct lengths and contents
/// through a durable RPC connection.
#[test]
fn durable_rpc_handles_arbitrary_op_sequences() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x0525_0000 + case);
        let seed = rng.gen_range(0u64..1000);
        let n = rng.gen_range(1usize..20);
        let ops: Vec<(u64, u64, bool)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0u64..64),
                    rng.gen_range(1u64..2048),
                    rng.gen::<bool>(),
                )
            })
            .collect();

        let mut sim = Sim::new(seed);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            slot_payload: 2048,
            object_slot: 2048,
            store_capacity: 1 << 20,
            ..Default::default()
        };
        let (client, _) = build_durable(&cluster, 1, 0, 0, cfg);
        sim.block_on(async move {
            let mut last_write: std::collections::HashMap<u64, u8> = Default::default();
            for (obj, len, is_put) in ops {
                if is_put {
                    let fill = (obj % 251) as u8 + 1;
                    client
                        .call(Request::Put {
                            obj,
                            data: Payload::from_bytes(vec![fill; len as usize]),
                        })
                        .await
                        .unwrap();
                    last_write.insert(obj, fill);
                } else {
                    let r = client.call(Request::Get { obj, len }).await.unwrap();
                    assert_eq!(
                        r.payload.unwrap().len(),
                        len,
                        "case {case}: wrong get length"
                    );
                }
            }
        });
    }
}

/// Crashing after N acknowledged puts never loses or tears any of them:
/// recovery returns exactly the unprocessed suffix, intact.
#[test]
fn crash_never_loses_acked_puts() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0xC8A5_4000 + case);
        let seed = rng.gen_range(0u64..500);
        let n = rng.gen_range(1usize..12);

        let mut sim = Sim::new(seed);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let cfg = DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::heavy(),
            slot_payload: 512,
            object_slot: 512,
            store_capacity: 1 << 20,
            log_slots: 32,
            head_persist_interval: 1,
            ..Default::default()
        };
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        let node = cluster.node(0).clone();
        let log = server.log().clone();
        let store = server.store().clone();
        sim.block_on(async move {
            for i in 0..n as u64 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::from_bytes(vec![(i % 255) as u8 + 1; 64]),
                    })
                    .await
                    .unwrap();
            }
            node.crash();
            node.restart();
        });
        let pending = log.recover();
        // Every put is either applied in the store or recoverable.
        let mut accounted = vec![false; n];
        for e in &pending {
            let i = e.op.obj_id as usize;
            assert!(i < n, "case {case}: phantom entry {i}");
            assert_eq!(
                &e.payload,
                &vec![(i as u64 % 255) as u8 + 1; 64],
                "case {case}: torn recovered payload"
            );
            accounted[i] = true;
        }
        for (i, done) in accounted.iter().enumerate() {
            if !done {
                // Must have been applied before the crash.
                let got = store.persistent_bytes(i as u64, 64);
                assert_eq!(
                    got,
                    vec![(i as u64 % 255) as u8 + 1; 64],
                    "case {case}: put {i} neither recovered nor applied"
                );
            }
        }
    }
}

/// Payload composites preserve total length and inline placement.
#[test]
fn payload_composite_invariants() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0xC03_0051 + case);
        let k = rng.gen_range(1usize..8);
        let parts: Vec<Payload> = (0..k)
            .map(|_| {
                if rng.gen::<bool>() {
                    Payload::synthetic(rng.gen_range(1u64..512), 0)
                } else {
                    let len = rng.gen_range(1usize..128);
                    Payload::from_bytes((0..len).map(|_| rng.gen_range(0u32..=255) as u8).collect())
                }
            })
            .collect();

        let total: u64 = parts.iter().map(Payload::len).sum();
        let composite = Payload::composite(parts.clone());
        assert_eq!(composite.len(), total, "case {case}");
        // Inline parts are placed at their running offsets and never
        // overlap or exceed the total.
        let inline = composite.inline_parts();
        let mut last_end = 0u64;
        for (off, bytes) in inline {
            assert!(off >= last_end, "case {case}: overlapping inline parts");
            last_end = off + bytes.len() as u64;
            assert!(last_end <= total, "case {case}: inline part past end");
        }
    }
}

/// The pinned fingerprint of every input at 300 ops: (input,
/// events_processed, elapsed_ns, journal_len, journal_fnv). See
/// [`pinned_whole_stack_fingerprints`] for when they may be regenerated.
#[rustfmt::skip]
const PINNED_FINGERPRINTS: [(Input, u64, u64, usize, u64); 31] = {
    use Input::{BaselineBatch, Batch, Cached, Micro, Replicated, Txn};
    [
        (Micro(SystemKind::WFlush), 8866, 1184203, 571894, 0x54c7f211e4d11575),
        (Micro(SystemKind::SRFlush), 9630, 1293452, 631704, 0xb8b840aeb270c4b1),
        (Micro(SystemKind::Farm), 7064, 1154355, 511207, 0xfd75b30a64fbf97c),
        (Micro(SystemKind::Darpc), 9164, 2528207, 634468, 0x622a32a960cda0a4),
        (Micro(SystemKind::SFlush), 9306, 2349203, 634766, 0xf7e5b67d328de0f2),
        (Micro(SystemKind::WRFlush), 9355, 1098302, 570785, 0xb628c219ba8eab92),
        (Batch(DurableKind::SRFlush), 10018, 711498, 703240, 0x9a0b6a3a6ed02275),
        (Batch(DurableKind::SFlush), 6974, 1009348, 526857, 0x59bc77fb7272dafb),
        (Batch(DurableKind::WRFlush), 8295, 875214, 591205, 0x6ae017f8f1db797c),
        (Batch(DurableKind::WFlush), 5511, 496948, 414171, 0xdcbddfd36457854f),
        (Replicated(DurableKind::SRFlush), 16131, 1296386, 1161934, 0xb1bd206bed367233),
        (Replicated(DurableKind::SFlush), 15482, 2351485, 1167476, 0x100899a5ca8df904),
        (Replicated(DurableKind::WRFlush), 15855, 1101236, 1067790, 0x3f9c777922fd2d0d),
        (Replicated(DurableKind::WFlush), 14877, 1186485, 1069864, 0xe75d9f06e103fd1c),
        (Txn(DurableKind::SRFlush), 14331, 1185520, 984878, 0x0eda9c6040912adf),
        (Txn(DurableKind::SFlush), 13946, 2457856, 1005603, 0x5fc879b31308b565),
        (Txn(DurableKind::WRFlush), 14028, 1008540, 896025, 0x93cf093503104dfd),
        (Txn(DurableKind::WFlush), 13355, 1120324, 911982, 0x4b7cc8205f84ad93),
        (Cached(DurableKind::SRFlush), 4346, 551378, 291330, 0x37c16c67cb5e86cc),
        (Cached(DurableKind::SFlush), 4320, 635579, 291470, 0x8e0f72e6246176c6),
        (Cached(DurableKind::WRFlush), 4095, 526688, 263761, 0x0e7ad5d9d216a5e9),
        (Cached(DurableKind::WFlush), 4056, 533539, 263813, 0xd76f7481dec4ace2),
        (Micro(SystemKind::L5), 10064, 1615755, 725927, 0x65189393c98feb65),
        (Micro(SystemKind::Rfp), 11297, 2520707, 674740, 0x526db789cbad0957),
        (Micro(SystemKind::Fasst), 7364, 2528207, 572333, 0x088584e601ce4be7),
        (Micro(SystemKind::Octopus), 8864, 1622518, 632964, 0x5b483ce9a871ea70),
        (Micro(SystemKind::ScaleRpc), 7091, 1161312, 512747, 0xe54da360b0e605d1),
        (Micro(SystemKind::Herd), 6464, 1331518, 510040, 0x22b540983aed099d),
        (Micro(SystemKind::Lite), 9464, 2342518, 634270, 0x48c74f7ad72e26fd),
        (BaselineBatch(SystemKind::Darpc), 7802, 2174437, 535953, 0x8f58f9a84181cbee),
        (BaselineBatch(SystemKind::ScaleRpc), 6240, 1032773, 411108, 0xc788f1f030b7f79b),
    ]
};

/// The pinned FNV-1a of every input's trace totals at 300 ops. See
/// [`pinned_trace_totals`].
#[rustfmt::skip]
const PINNED_TRACE_FNVS: [(Input, u64); 31] = {
    use Input::{BaselineBatch, Batch, Cached, Micro, Replicated, Txn};
    [
        (Micro(SystemKind::WFlush), 0x96984b214eb1dad2),
        (Micro(SystemKind::SRFlush), 0xd23b528d4b98e8b2),
        (Micro(SystemKind::Farm), 0x4b87d96db21a0b1e),
        (Micro(SystemKind::Darpc), 0x84a99f9340729402),
        (Micro(SystemKind::SFlush), 0x9628395cb15536c6),
        (Micro(SystemKind::WRFlush), 0xf006311dd433f600),
        (Batch(DurableKind::SRFlush), 0x264b3e8f34c9b528),
        (Batch(DurableKind::SFlush), 0x5a3fea773fcb60ca),
        (Batch(DurableKind::WRFlush), 0xbf37c01116f8b512),
        (Batch(DurableKind::WFlush), 0x68166aaf13d98be9),
        (Replicated(DurableKind::SRFlush), 0x849dda55f3bea8ee),
        (Replicated(DurableKind::SFlush), 0x23adce87ccc1b2b6),
        (Replicated(DurableKind::WRFlush), 0x4c532c4c97309204),
        (Replicated(DurableKind::WFlush), 0x32b5dc5337f0065f),
        (Txn(DurableKind::SRFlush), 0x771f84ce0e23662a),
        (Txn(DurableKind::SFlush), 0xeda4fc054cf3ff63),
        (Txn(DurableKind::WRFlush), 0xa5efd87c57ba4417),
        (Txn(DurableKind::WFlush), 0x2fcc45fb1682603d),
        (Cached(DurableKind::SRFlush), 0x051061225ada1ad9),
        (Cached(DurableKind::SFlush), 0x2d82e520d72268b9),
        (Cached(DurableKind::WRFlush), 0x21243cd3b5d9fe88),
        (Cached(DurableKind::WFlush), 0xc192d8ed93de995f),
        (Micro(SystemKind::L5), 0xf21e9b7763dc3069),
        (Micro(SystemKind::Rfp), 0x64776508ff1a6fab),
        (Micro(SystemKind::Fasst), 0x493679e62093ec23),
        (Micro(SystemKind::Octopus), 0xb6f50ffb3b73820f),
        (Micro(SystemKind::ScaleRpc), 0xe5299dfdefc78aee),
        (Micro(SystemKind::Herd), 0xcccf4f7582c6d7a6),
        (Micro(SystemKind::Lite), 0xb6f50ffb3b73820f),
        (BaselineBatch(SystemKind::Darpc), 0x5972bda776756553),
        (BaselineBatch(SystemKind::ScaleRpc), 0x6ef144895126d02f),
    ]
};

/// Pinned whole-stack fingerprints: event counts, virtual elapsed time,
/// and journal bytes for representative journaled runs
/// (`prdma_suite::fingerprint`). Any schedule-visible regression in the
/// executor, network, or protocol layers trips this test.
///
/// The first four rows were captured before the executor hot-path
/// rewrite (timer slab + unsynchronized ready queue). The rest were
/// captured on the three-send-path `core::durable` before it was folded
/// into one persist path: the other two durable kinds' single puts, and
/// — for all four kinds — batched puts, 2-replica tagged puts, 2-shard
/// 2PC record appends, and a 1-shard cached fleet at 5 % puts. The
/// last nine were captured on the nine-client-struct `baselines` crate
/// before it was folded into one `BaselineClient`: the seven baselines
/// not pinned until then, and `call_batch` rounds through DaRPC and
/// ScaleRPC, the two baselines that override it.
///
/// Regenerate the constants with `cargo run --release --example
/// fingerprint` *only* when a deliberate, understood semantic change
/// lands (note it in DESIGN.md). One such change is already folded in:
/// the rewrite fixed cancelled `Sleep`s leaving stale wakers behind, so
/// runs long enough to hit `timeout()` re-arms see slightly fewer
/// events than the pre-rewrite executor; the constants above are the
/// post-fix values, byte-identical journals included.
///
/// Second folded-in change (observability PR): the always-on metrics
/// registry adds a handful of snapshot-ticker wakeups to
/// `events_processed` on metrics-instrumented systems, and per-node
/// rpc-id slices (`journal::ids::node_rpcs`) shift client-allocated
/// rpc ids, changing journal bytes. Virtual elapsed time is unchanged
/// for all four systems — metrics consume zero simulated time.
#[test]
fn pinned_whole_stack_fingerprints() {
    for (input, events, elapsed_ns, journal_len, journal_fnv) in PINNED_FINGERPRINTS {
        let want = Fingerprint {
            events,
            elapsed_ns,
            journal_len,
            journal_fnv,
        };
        assert_eq!(
            fingerprint::run(input, 300),
            want,
            "{input:?}: drifted from pinned fingerprint"
        );
    }
}

/// Pinned latency-breakdown totals: for every fingerprint input at 300
/// ops, the FNV-1a of the merged trace report's seven on-path and seven
/// off-path phase totals (`fingerprint::trace_totals`). The journal
/// carries no trace data, so a component that stops recording its spans
/// passes every pin above and fails here. Regenerate with `cargo run
/// --release --example fingerprint` (`trace_fnv=`) under the same rule.
#[test]
fn pinned_trace_totals() {
    for (input, want) in PINNED_TRACE_FNVS {
        let totals = fingerprint::trace_totals(input, 300);
        assert_eq!(
            fingerprint::trace_fnv(&totals),
            want,
            "{input:?}: trace totals drifted from the pin: {totals:?}"
        );
    }
}

/// The journal moves no virtual time: every pinned input at 300 ops with
/// the journal off gives its pinned event count, elapsed time and trace
/// totals, and an empty journal. Off-journal emission sites return at
/// their first branch, so the batched, replicated, 2PC and cached paths
/// must schedule exactly as their journaled pins do.
#[test]
fn journal_off_keeps_every_pinned_schedule() {
    for input in Input::all() {
        let (fp, totals) = fingerprint::run_unjournaled(input, 300);
        let pin = PINNED_FINGERPRINTS.iter().find(|p| p.0 == input);
        let &(_, events, elapsed_ns, _, _) = pin.expect("every input is pinned");
        assert_eq!(
            (fp.events, fp.elapsed_ns, fp.journal_len),
            (events, elapsed_ns, 0),
            "{input:?}: journal off moved the schedule"
        );
        let pin = PINNED_TRACE_FNVS.iter().find(|p| p.0 == input);
        assert_eq!(
            fingerprint::trace_fnv(&totals),
            pin.expect("every input is pinned").1,
            "{input:?}: journal off moved the trace totals: {totals:?}"
        );
    }
}

/// The fleet metrics export, byte for byte: the replicated WFlush input
/// at 300 ops with `fig_obs`'s 100 µs snapshot interval, three ticking
/// nodes with counters, gauges, providers and windows. The JSONL's length
/// and FNV-1a are pinned the way the journal fingerprints are, so a
/// change to how snapshots are stored or rebuilt must reproduce every
/// series of every tick.
const PINNED_METRICS_JSONL: (usize, u64) = (66656, 0xebe75929e96af219);

#[test]
fn pinned_metrics_export() {
    let input = Input::Replicated(DurableKind::WFlush);
    let (_, _, jsonl) =
        fingerprint::run_at_metrics_interval(input, 300, SimDuration::from_micros(100));
    assert_eq!(
        (jsonl.len(), fingerprint::fnv1a(jsonl.as_bytes())),
        PINNED_METRICS_JSONL,
        "the metrics export drifted from its pin"
    );
}

/// Metrics do not move virtual time: the replicated WFlush input (three
/// ticking nodes) at the default 1 ms snapshot interval and at
/// `fig_obs`'s 100 µs gives the same journal, elapsed time and trace
/// totals. Only the executor's event count may differ — ticks are events.
#[test]
fn metrics_interval_is_schedule_neutral() {
    let default = ClusterConfig::default().metrics_interval;
    assert_eq!(default, SimDuration::from_millis(1));
    let input = Input::Replicated(DurableKind::WFlush);
    let (coarse, coarse_totals, _) = fingerprint::run_at_metrics_interval(input, 300, default);
    let (fine, fine_totals, _) =
        fingerprint::run_at_metrics_interval(input, 300, SimDuration::from_micros(100));
    assert_eq!(
        (coarse.journal_len, coarse.journal_fnv),
        (fine.journal_len, fine.journal_fnv),
        "journal"
    );
    assert_eq!(coarse.elapsed_ns, fine.elapsed_ns, "virtual elapsed time");
    assert_eq!(coarse_totals, fine_totals, "trace totals");
    assert!(
        fine.events > coarse.events,
        "finer ticks must show as more executor events: {} vs {}",
        fine.events,
        coarse.events
    );
}
