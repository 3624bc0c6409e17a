//! The crash-point sweep (`prdma_suite::sweep`): tier-1 runs the 1:1
//! connection at every boundary plus a seeded sample of every fleet
//! shape, CI runs every boundary of every shape (`--ignored`, release),
//! and the named rows below state what a single point shows that the
//! generic per-point check cannot.
//!
//! Each row strikes the first boundary at or after [`MID_STREAM_NS`], so
//! it is a point of the sweep, and passes [`Run::check`] before its own
//! assertions; a row that pins another point says why.

use std::time::Instant;

use prdma_bench::runner::{par_level, par_map};
use prdma_suite::core::{DurableKind, OpCode};
use prdma_suite::simnet::journal::{ids, EventKind};
use prdma_suite::simnet::metrics::Key;
use prdma_suite::sweep::{self, Fault, Op, OpKind, Point, Run, Shape, DOWN, TXNS};

/// Fleet points per (shape, kind, fault) in the tier-1 sweep.
const SAMPLE: usize = 24;
/// Where a named row strikes: the first boundary at or after this
/// instant, which the hand-placed crash tests the rows replace used.
const MID_STREAM_NS: u64 = 30_000;

/// Run and check `points` in parallel, fail on the first failing point,
/// and report the point counts and host time per point.
fn sweep_all(label: &str, points: Vec<Point>) {
    let n = points.len();
    let t0 = Instant::now();
    let results = par_map(points.clone(), |p| sweep::run(p).check());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let tally = sweep::tally(points.into_iter().zip(results)).unwrap_or_else(|e| panic!("{e}"));
    println!(
        "{label}: {n} points, {:.3} ms/point on {} workers; points {tally:?}",
        ms / n as f64,
        par_level(),
    );
}

/// Every point of `(shape, kind)` under each swept fault, or a seeded
/// sample of `sample` per fault.
fn shape_points(shape: Shape, kind: DurableKind, sample: Option<usize>) -> Vec<Point> {
    let b = sweep::boundaries(shape, kind);
    let per_fault = |fault| {
        let mut points = sweep::points(shape, kind, fault, &b);
        if let Some(n) = sample {
            points.sort_by_key(Point::seed);
            points.truncate(n);
        }
        points
    };
    Fault::SWEPT.into_iter().flat_map(per_fault).collect()
}

/// Tier-1: the 1:1 connection at every boundary, every fleet shape at a
/// seeded sample; every op of every point completes.
#[test]
fn crash_point_sweep() {
    let mut points = Vec::new();
    for kind in DurableKind::ALL {
        points.extend(shape_points(Shape::Single, kind, None));
        for shape in &Shape::ALL[1..] {
            points.extend(shape_points(*shape, kind, Some(SAMPLE)));
        }
    }
    sweep_all("crash_point_sweep", points);
}

/// Every boundary of every shape, kind, fault and server node; every op
/// of every point completes. CI runs it in release:
/// `cargo test -q --release --test crash_sweep -- --ignored`.
#[test]
#[ignore = "exhaustive; run in release"]
fn crash_point_sweep_exhaustive() {
    let mut points = Vec::new();
    for kind in DurableKind::ALL {
        for shape in Shape::ALL {
            points.extend(shape_points(shape, kind, None));
        }
    }
    sweep_all("crash_point_sweep_exhaustive", points);
}

/// A seeded sample of points, each run twice, must give identical JSONL;
/// a loss burst, the one seed-dependent fault, must diverge under a
/// second seed.
#[test]
fn seeded_fault_runs_are_byte_deterministic() {
    for (i, shape) in Shape::ALL.into_iter().enumerate() {
        let kind = DurableKind::ALL[i];
        for p in shape_points(shape, kind, Some(1)) {
            let a = sweep::run(p);
            assert_eq!(a.check(), Ok(()), "{p:?}");
            assert_eq!(
                a.jsonl(),
                sweep::run(p).jsonl(),
                "{p:?}: same point, different journals"
            );
        }
    }
    let burst = row_point(Shape::Sharded, DurableKind::WFlush, Fault::LossBurst, 1);
    let a = row(burst);
    let b = sweep::run_seeded(burst, burst.seed() ^ 1);
    assert_eq!(b.check(), Ok(()));
    assert_ne!(
        a.jsonl(),
        b.jsonl(),
        "a loss burst under another seed must perturb the run"
    );
}

/// The point of the sweep that strikes `(shape, kind, fault, node)` at
/// the first boundary at or after [`MID_STREAM_NS`].
fn row_point(shape: Shape, kind: DurableKind, fault: Fault, node: usize) -> Point {
    let b = sweep::boundaries(shape, kind);
    let at_ns = *b
        .iter()
        .find(|&&t| t >= MID_STREAM_NS)
        .expect("a later boundary");
    Point {
        shape,
        kind,
        fault,
        node,
        at_ns,
    }
}

/// Run a row's point and pass the per-point check.
fn row(p: Point) -> Run {
    let run = sweep::run(p);
    assert_eq!(run.check(), Ok(()), "{p:?}");
    run
}

/// Ops of `what` on `shard` that completed while the faulted node was down.
fn served_in_outage(run: &Run, shard: usize, what: OpKind) -> usize {
    let on = |op: &&Op| op.ok && op.what == what && run.route(op.obj).0 == shard;
    run.ops
        .iter()
        .filter(on)
        .filter(|op| run.in_outage(op))
        .count()
}

/// A node crash mid-stream on the 1:1 connection: recovery replays the
/// suffix that was flush-ACKed but not processed, and reads resume
/// after it.
#[test]
fn every_durable_kind_survives_a_mid_rpc_node_crash() {
    for kind in DurableKind::ALL {
        let r = row(row_point(Shape::Single, kind, Fault::NodeCrash, 0));
        assert!(
            r.replayed(0) > 0,
            "{kind:?}: the crash left nothing to replay"
        );
        let restarted = r.point.at_ns + DOWN.as_nanos();
        let reads_after = r
            .ops
            .iter()
            .filter(|op| op.what == OpKind::Get && op.done_ns > restarted);
        assert!(reads_after.count() > 0, "{kind:?}: no get after recovery");
    }
}

/// Log ids name the server that holds the log. `RedoLog` journals
/// `LogDone` and `Recovery*` records on its own server, so on the
/// replicated shape (each server holds one shard's primary log and the
/// other's backup) every such record's id decodes to the node that
/// journaled it: in the clean run, and after server 1 crashes.
#[test]
fn log_ids_decode_to_the_server_that_holds_the_log() {
    for kind in DurableKind::ALL {
        let clean = Point {
            shape: Shape::Replicated,
            kind,
            fault: Fault::Clean,
            node: 0,
            at_ns: 0,
        };
        let crash = row_point(Shape::Replicated, kind, Fault::NodeCrash, 1);
        // Per server node: LogDone records, Recovery* records.
        let mut seen = [[0usize; 2]; 2];
        for p in [clean, crash] {
            for r in row(p).cluster.journal_records() {
                let recovery = match r.kind {
                    EventKind::LogDone => 0,
                    EventKind::RecoveryStart
                    | EventKind::RecoveryReplay
                    | EventKind::RecoveryLost => 1,
                    _ => continue,
                };
                assert_eq!(ids::server_of(r.rpc_id), r.node, "{p:?}: {r:?}");
                seen[r.node as usize][recovery] += 1;
            }
        }
        assert!(seen[0][0] > 0 && seen[1][0] > 0, "{kind:?}: {seen:?}");
        assert!(
            seen[1][1] > 0,
            "{kind:?}: server 1 recovered no log: {seen:?}"
        );
    }
}

/// The 2-shard shape runs its put streams and its transactions through
/// one client, so each shard's one log lane carries puts and `TxnPrepare`
/// records alike: the sweep covers connections that puts and
/// transactions share. The point after the loop is pinned: it is the
/// first W-RFlush point that a connection without its persist permit
/// fails (DESIGN.md §10, mutation (iv)), a node crash 1.7 µs in where an
/// earlier entry's persist-ACK fired the waiter of a transaction record
/// whose entry the crash had aborted. With the permit
/// the ops queue, so it is no longer a boundary, but it still lands
/// while both streams are on the connection.
#[test]
fn puts_and_txn_prepares_share_a_log_lane() {
    for kind in DurableKind::ALL {
        let clean = Point {
            shape: Shape::Sharded,
            kind,
            fault: Fault::Clean,
            node: 0,
            at_ns: 0,
        };
        let r = row(clean);
        let records = r.cluster.journal_records();
        for shard in 0..2 {
            let appends: Vec<u64> = records
                .iter()
                .filter(|rec| rec.kind == EventKind::LogAppend)
                .map(|rec| rec.rpc_id)
                .filter(|&id| ids::server_of(id) == shard as u32)
                .collect();
            let lanes: Vec<u64> = appends.iter().map(|&id| ids::lane_of(id)).collect();
            assert!(
                lanes.windows(2).all(|w| w[0] == w[1]),
                "{kind:?} shard {shard}: appends on lanes {lanes:?}"
            );
            // The clean run never wraps a ring: every index still holds
            // what was appended there.
            let log = r.fleet().servers[shard][0].log();
            let opcode = |id| log.read_header(ids::index_of(id)).map(|h| h.op.opcode);
            for want in [OpCode::Put, OpCode::TxnPrepare] {
                assert!(
                    appends.iter().any(|&id| opcode(id) == Some(want)),
                    "{kind:?} shard {shard}: no {want:?} on the lane"
                );
            }
        }
    }
    row(Point {
        shape: Shape::Sharded,
        kind: DurableKind::WRFlush,
        fault: Fault::NodeCrash,
        node: 0,
        at_ns: 1676,
    });
}

/// A service crash: the restarted service's scan requeues what was
/// logged but never marked done.
#[test]
fn service_crash_requeues_pending_entries() {
    let r = row(row_point(
        Shape::Single,
        DurableKind::WFlush,
        Fault::ServiceCrash,
        0,
    ));
    let requeued = r
        .cluster
        .journal_records()
        .into_iter()
        .filter(|rec| rec.kind == EventKind::RecoveryStart && rec.node == 0 && rec.bytes > 0);
    assert_eq!(requeued.count(), 1, "the restart scan requeued nothing");
}

/// A crash of shard 0's node: shard 1 keeps serving during the outage,
/// and only the crashed shard replays.
#[test]
fn one_shard_crash_leaves_the_other_serving() {
    for kind in DurableKind::ALL {
        let r = row(row_point(Shape::Sharded, kind, Fault::NodeCrash, 0));
        assert!(
            served_in_outage(&r, 1, OpKind::Put) > 0,
            "{kind:?}: shard 1 stalled"
        );
        assert!(
            r.replayed(0) > 0,
            "{kind:?}: the crash left nothing to replay"
        );
        assert_eq!(r.replayed(1), 0, "{kind:?}: the surviving shard replayed");
    }
}

/// A crash of a participant mid-stream loses no committed transaction.
#[test]
fn participant_crash_under_fault_plan_loses_no_committed_txn() {
    for kind in DurableKind::ALL {
        let r = row(row_point(Shape::Sharded, kind, Fault::NodeCrash, 1));
        let fleet = r.fleet();
        for shard in 0..2 {
            assert_eq!(
                fleet.states[shard].applied_txns(),
                TXNS,
                "{kind:?} shard {shard}"
            );
        }
    }
}

/// A crash of shard 0's primary: the backup is promoted once, at the
/// crash instant, and serves puts during the outage; the old primary
/// replays and rejoins.
#[test]
fn primary_crash_fails_over_to_backup() {
    for kind in DurableKind::ALL {
        let r = row(row_point(Shape::Replicated, kind, Fault::NodeCrash, 0));
        let (shard0, shard1) = (r.fleet().groups[0][0].view(), r.fleet().groups[1][0].view());
        assert_eq!(
            shard0.epoch(),
            1,
            "{kind:?}: the crash must promote exactly once"
        );
        assert_eq!(shard0.primary_node(), 1, "{kind:?}");
        assert!(shard0.is_up(0), "{kind:?}: the old primary must rejoin");
        assert_eq!(
            shard1.epoch(),
            0,
            "{kind:?}: losing a backup must not promote"
        );
        let promoted = r
            .cluster
            .journal_records()
            .into_iter()
            .find(|rec| rec.kind == EventKind::Promote);
        assert_eq!(
            promoted.map(|rec| rec.ts_ns),
            Some(r.point.at_ns),
            "{kind:?}: promoted late"
        );
        assert!(
            served_in_outage(&r, 0, OpKind::Put) > 0,
            "{kind:?}: no failover"
        );
        assert!(
            r.replayed(0) > 0,
            "{kind:?}: the crash left nothing to replay"
        );
    }
}

/// Reads are not pinned to the initial primary: a get issued while it
/// is down is served by the promoted backup.
#[test]
fn gets_fail_over_to_promoted_backup() {
    let r = row(row_point(
        Shape::Replicated,
        DurableKind::WFlush,
        Fault::NodeCrash,
        0,
    ));
    assert!(served_in_outage(&r, 0, OpKind::Get) > 0);
}

/// The backup's promotion revokes the leases the client's cache holds on
/// the shard, and cached gets keep succeeding across it.
#[test]
fn backup_promotion_revokes_client_leases() {
    let r = row(row_point(
        Shape::Cached,
        DurableKind::WFlush,
        Fault::NodeCrash,
        0,
    ));
    assert_eq!(r.fleet().groups[0][0].view().epoch(), 1);
    assert!(served_in_outage(&r, 0, OpKind::Get) > 0);
    let metrics = &r.cluster.node(2).metrics;
    let counter = |name| metrics.counter(Key::new(name).shard(0).kind("Replicated-WFlush-RPC"));
    assert!(counter("cache_hits") >= 2, "gets must have hit the cache");
    assert!(
        counter("lease_revocations") >= 1,
        "the promotion revoked nothing"
    );
}
