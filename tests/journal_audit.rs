//! Journal + durability-auditor integration: every system in the study
//! produces an audit-clean event stream, recovery replay is accounted
//! for, and a journal-free cluster records (and allocates) nothing.

use prdma_suite::baselines::{build_system, SystemKind, SystemOpts};
use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::journal::{self, EventKind};
use prdma_suite::simnet::Sim;
use prdma_suite::workloads::micro::{run_micro, MicroConfig};

/// All 13 systems: the 11 paper-evaluation systems plus the two
/// Table-1-only baselines.
fn all_systems() -> Vec<SystemKind> {
    let mut v = SystemKind::PAPER_EVAL.to_vec();
    v.push(SystemKind::Herd);
    v.push(SystemKind::Lite);
    v
}

fn smoke_run(kind: SystemKind, journal: bool) -> (Cluster, u64) {
    let mut sim = Sim::new(7);
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = journal;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let cfg = MicroConfig {
        objects: 200,
        ops: 100,
        object_size: 1024,
        seed: 7,
        ..Default::default()
    };
    let h = sim.handle();
    let r = sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
    (cluster, r.ops)
}

/// The auditor passes on every one of the 13 systems, and each produces
/// a non-empty journal with matched RPC dispatch/complete pairs.
#[test]
fn auditor_passes_on_every_system() {
    for kind in all_systems() {
        let (cluster, ops) = smoke_run(kind, true);
        assert!(ops > 0, "{kind:?}: no ops completed");
        let records = cluster.journal_records();
        assert!(!records.is_empty(), "{kind:?}: journal empty");
        let dispatched = records
            .iter()
            .filter(|r| r.kind == EventKind::RpcDispatch)
            .count();
        let completed = records
            .iter()
            .filter(|r| r.kind == EventKind::RpcComplete)
            .count();
        assert!(dispatched >= ops as usize, "{kind:?}: missing dispatches");
        assert_eq!(
            dispatched, completed,
            "{kind:?}: unmatched rpc dispatch/complete"
        );
        let report = cluster.audit_journal();
        assert!(report.ok(), "{kind:?}: {report}");
    }
}

/// With journaling disabled (the default), every node carries an off
/// journal (`Node::journal()` is `None`), the merged record stream is
/// empty, and the auditor trivially passes — an off journal's `record`
/// returns at its first branch, so the hot path allocates nothing.
#[test]
fn disabled_journal_records_nothing() {
    let (cluster, ops) = smoke_run(SystemKind::WFlush, false);
    assert!(ops > 0);
    for i in 0..2 {
        assert!(
            cluster.node(i).journal().is_none(),
            "node {i} has a journal despite journal=false"
        );
    }
    assert!(cluster.journal_records().is_empty());
    assert!(cluster.audit_journal().ok());
}

/// Crash/recovery with journaling on: the journal shows one recovery
/// start, a replay record per recovered entry, and the auditor's
/// recovery invariant (replayed set == appended-but-incomplete suffix)
/// holds on the real stream.
#[test]
fn recovery_replay_is_audited() {
    let mut sim = Sim::new(9);
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
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
    sim.block_on(async move {
        for i in 0..8u64 {
            client
                .call(Request::Put {
                    obj: i,
                    data: Payload::from_bytes(vec![i as u8 + 1; 64]),
                })
                .await
                .unwrap();
        }
        node.crash();
        node.restart();
    });
    let pending = log.recover();
    let records = cluster.journal_records();
    let starts = records
        .iter()
        .filter(|r| r.kind == EventKind::RecoveryStart)
        .count();
    assert_eq!(starts, 1, "expected exactly one recovery start");
    let replayed = records
        .iter()
        .filter(|r| r.kind == EventKind::RecoveryReplay)
        .count();
    assert_eq!(
        replayed,
        pending.len(),
        "replay records do not match recovered entries"
    );
    cluster.audit_journal().assert_ok();
}

/// The Chrome-trace export of a real run parses with the in-tree JSON
/// parser and carries the expected top-level structure.
#[test]
fn chrome_trace_of_real_run_parses() {
    let (cluster, _) = smoke_run(SystemKind::SFlush, true);
    let records = cluster.journal_records();
    let trace = journal::to_chrome_trace(&records);
    let v = journal::json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(journal::json::Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every JSONL line parses too.
    let jsonl = journal::to_jsonl(&records);
    for line in jsonl.lines() {
        journal::json::parse(line).expect("jsonl line must parse");
    }
}
