//! The durability auditor: the paper's ordering invariants as a table
//! of [`RULES`], each one function over an [`Index`] of a merged stream.

use super::{to_jsonl, EventKind as K, Index, Record, NO_ID};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The [`Rule::id`] that fired (`"order"` for an unmerged stream).
    pub rule: &'static str,
    /// What was observed.
    pub message: String,
    /// The causal slice: the trigger record and the at most 15 records
    /// of its group (same `rpc_id`, DMA ticket, lane or lease key)
    /// nearest to it, in stream order.
    pub slice: Vec<Record>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slice = to_jsonl(&self.slice);
        write!(f, "{}: {}\n{slice}", self.rule, self.message)
    }
}

/// Outcome of a durability audit over a merged record stream.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Records examined.
    pub records: usize,
    /// Flush barriers checked (invariant 1).
    pub flush_acks: usize,
    /// RPC append/complete pairs checked (invariant 2).
    pub rpcs_checked: usize,
    /// Recovery scans checked (invariant 3).
    pub recoveries: usize,
    /// Replicated put ACKs checked (invariant 4).
    pub repl_acks: usize,
    /// Lease invalidations checked against their put's ACK (invariant 5).
    pub lease_invalidations: usize,
    /// Cached / mirror reads checked for lease coverage (invariant 5).
    pub cached_reads: usize,
    /// Transaction ACKs checked for prepare/decide coverage (invariant 6).
    pub txn_acks: usize,
    /// Invariant violations, by rule then stream position.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with the violation list unless the audit passed.
    pub fn assert_ok(&self) {
        let list: Vec<String> = self.violations.iter().map(Violation::to_string).collect();
        let n = list.len();
        assert!(
            n == 0,
            "durability audit failed ({n} violations):\n{}",
            list.join("\n")
        );
    }

    /// Record a violation triggered by the record at `at`, with the
    /// slice of `group` around it; [`audit`] fills in the rule.
    fn flag(&mut self, ix: &Index, group: &[usize], at: usize, message: String) {
        let i = group.partition_point(|&p| p < at);
        let mut near = group[i.saturating_sub(8)..group.len().min(i + 7)].to_vec();
        if let Err(j) = near.binary_search(&at) {
            near.insert(j, at);
        }
        self.violations.push(Violation {
            rule: "",
            message,
            slice: ix.at(&near).cloned().collect(),
        });
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} records, {} flush barriers, {} rpcs, {} recoveries, {} repl acks, {} lease invalidations, {} cached reads, {} txn acks — {}",
            self.records,
            self.flush_acks,
            self.rpcs_checked,
            self.recoveries,
            self.repl_acks,
            self.lease_invalidations,
            self.cached_reads,
            self.txn_acks,
            if self.ok() {
                "PASS".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// One ordering invariant of the auditor.
pub struct Rule {
    /// Stable id, `"I1"` … `"I6"`.
    pub id: &'static str,
    /// The invariant in one line.
    pub statement: &'static str,
    /// Visits the rule's trigger records in stream order, reading only
    /// each trigger's group in the index.
    pub check: fn(&Index, &mut AuditReport),
}

/// The auditor's rules, in the order [`audit`] runs and reports them.
#[rustfmt::skip]
pub const RULES: [Rule; 6] = [
    Rule { id: "I1", statement: "no FlushAck before the DmaComplete of every ticket below its barrier", check: flush_covers_placement },
    Rule { id: "I2", statement: "no RpcComplete before the rpc's LogAppend", check: completion_after_logging },
    Rule { id: "I3", statement: "a recovery scan replays or reports lost exactly the entries appended from its head on", check: recovery_exactness },
    Rule { id: "I4", statement: "no ReplAck before ReplAppends on as many distinct replicas as it claims", check: replication_coverage },
    Rule { id: "I5", statement: "no LeaseInvalidate after its put's ACK; no cached read outside a granted, unrevoked epoch", check: lease_freshness },
    Rule { id: "I6", statement: "no TxnAck before every claimed TxnPrepare and the TxnDecide; no TxnApply after a TxnAbort", check: transaction_atomicity },
];

/// Check a merged record stream (see [`merge`](super::merge)) against every rule in
/// [`RULES`] (DESIGN.md §9 tabulates them). The rules compare stream
/// positions, so a stream that is not in merge order is reported as such
/// and not audited further.
pub fn audit(records: &[Record]) -> AuditReport {
    let ix = Index::build(records);
    let mut rep = AuditReport {
        records: records.len(),
        ..Default::default()
    };
    if let Some(i) = ix.unsorted_at {
        let message = format!("stream not in merge order at record {i}");
        rep.flag(&ix, &[i - 1], i, message);
        rep.violations[0].rule = "order";
        return rep;
    }
    for rule in &RULES {
        let from = rep.violations.len();
        (rule.check)(&ix, &mut rep);
        for v in &mut rep.violations[from..] {
            v.rule = rule.id;
        }
    }
    rep
}

/// I1. A ticket is open at an ACK when its last issue is no later than
/// the ACK and its last completion is; one cursor through the DMA records
/// keeps the open set, so no ACK re-checks a ticket an earlier one saw
/// complete.
fn flush_covers_placement(ix: &Index, rep: &mut AuditReport) {
    let last = |group: &[usize], kind| group.iter().copied().rfind(|&p| ix.records[p].kind == kind);
    let done_at = |group| last(group, K::DmaComplete).map(|c| ix.records[c].ts_ns);
    let mut dma = ix.of(&[K::DmaIssue, K::DmaComplete]).peekable();
    let mut open = BTreeSet::new();
    // A FlushAck without a barrier ticket is informational (a client-side
    // observation of a flush round trip); only acks carrying the remote
    // NIC's barrier are checkable.
    for (a, r) in ix.of(&[K::FlushAck]).filter(|(_, r)| r.wr_id != NO_ID) {
        rep.flush_acks += 1;
        while let Some((p, d)) = dma.next_if(|(_, d)| d.ts_ns <= r.ts_ns) {
            let group = ix.by_ticket.get((d.node, d.wr_id));
            if last(group, d.kind) != Some(p) {
                continue; // a re-issued or re-completed ticket counts at its last record
            }
            if d.kind == K::DmaComplete {
                open.remove(&(d.node, d.wr_id));
            } else if done_at(group).is_none_or(|t_done| t_done > d.ts_ns) {
                open.insert((d.node, d.wr_id));
            }
        }
        for &(node, ticket) in open.range((r.node, 0)..(r.node, r.wr_id)) {
            let group = ix.by_ticket.get((node, ticket));
            let ack = format!(
                "node {node}: flush ACK at {} ns (barrier {})",
                r.ts_ns, r.wr_id
            );
            let message = match done_at(group) {
                Some(t) => format!("{ack} precedes DMA ticket {ticket} completion at {t} ns"),
                None => format!("{ack} covers DMA ticket {ticket} that never completed"),
            };
            rep.flag(ix, group, a, message);
        }
    }
}

/// I2. Only rpcs that journal a `LogAppend` are checked.
fn completion_after_logging(ix: &Index, rep: &mut AuditReport) {
    for (p, r) in ix.of(&[K::RpcComplete]) {
        let group = ix.by_rpc.get(r.rpc_id);
        let Some(append) = ix.at(group).find(|a| a.kind == K::LogAppend) else {
            continue;
        };
        rep.rpcs_checked += 1;
        if r.ts_ns < append.ts_ns {
            let message = format!(
                "rpc {}: completion at {} ns precedes its redo-log append at {} ns",
                r.rpc_id, r.ts_ns, append.ts_ns
            );
            rep.flag(ix, group, p, message);
        }
    }
}

/// I3. Ids are `(lane << 40) | index`; a `RecoveryStart` carries the
/// persisted head index in `wr_id`, and the next one on its lane ends its
/// replay window.
fn recovery_exactness(ix: &Index, rep: &mut AuditReport) {
    const INDEX: u64 = (1 << 40) - 1;
    // Per lane: how far into its group earlier scans got, and every
    // entry index appended before that.
    let mut lanes: BTreeMap<u64, (usize, BTreeSet<u64>)> = BTreeMap::new();
    for (p, r) in ix.of(&[K::RecoveryStart]) {
        rep.recoveries += 1;
        let (lane, head) = (r.rpc_id >> 40, r.wr_id);
        let group = ix.by_lane.get(lane);
        let (next, appended) = lanes.entry(lane).or_default();
        while group.get(*next).is_some_and(|&q| q < p) {
            let a = &ix.records[group[*next]];
            if a.kind == K::LogAppend {
                appended.insert(a.rpc_id & INDEX);
            }
            *next += 1;
        }
        let (mut replayed, mut lost) = (BTreeSet::new(), BTreeSet::new());
        for &q in &group[*next..] {
            let after = &ix.records[q];
            match after.kind {
                K::RecoveryReplay => replayed.insert(after.rpc_id & INDEX),
                K::RecoveryLost => lost.insert(after.rpc_id & INDEX),
                K::RecoveryStart if q > p => break,
                _ => false,
            };
        }
        for idx in appended.range(head..) {
            if !replayed.contains(idx) && !lost.contains(idx) {
                let message = format!(
                    "lane {lane}: recovery from head {head} neither replayed nor reported lost appended entry {idx}"
                );
                rep.flag(ix, group, p, message);
            }
        }
        for idx in replayed
            .iter()
            .filter(|&idx| *idx < head || !appended.contains(idx))
        {
            let message = format!(
                "lane {lane}: recovery from head {head} replayed entry {idx} that was never appended (or was already done before the persisted head)"
            );
            rep.flag(ix, group, p, message);
        }
    }
}

/// The records of rpc `id` ahead of position `p`.
fn before<'i>(ix: &'i Index<'i>, id: u64, p: usize) -> impl Iterator<Item = &'i Record> {
    let group = ix.by_rpc.get(id);
    ix.at(&group[..group.partition_point(|&q| q < p)])
}

/// How many distinct `wr_id`s the `kind` records among `records` carry.
fn distinct<'i>(records: impl Iterator<Item = &'i Record>, kind: K) -> usize {
    let of_kind = records.filter(|a| a.kind == kind);
    of_kind.map(|a| a.wr_id).collect::<BTreeSet<_>>().len()
}

/// I4. A `ReplAck` claims `wr_id` replicas; each `ReplAppend` follows
/// that replica's own durable RPC, which I2 ties to its log append.
fn replication_coverage(ix: &Index, rep: &mut AuditReport) {
    for (p, r) in ix.of(&[K::ReplAck]).filter(|(_, r)| r.rpc_id != NO_ID) {
        rep.repl_acks += 1;
        let slots = distinct(before(ix, r.rpc_id, p), K::ReplAppend);
        if slots < r.wr_id as usize {
            let message = format!(
                "repl put {:#x}: ACK at {} ns claims {} replicas but only {slots} replica appends precede it",
                r.rpc_id, r.ts_ns, r.wr_id
            );
            rep.flag(ix, ix.by_rpc.get(r.rpc_id), p, message);
        }
    }
}

/// I5. (a) A committing txn's write-set bumps carry the txn id, so a
/// `TxnAck` stands in for `RpcComplete`. (b) A read at epoch `e` is
/// covered by a `LeaseGrant` of `e` or by the `LeaseInvalidate` that
/// moved the key *to* `e` (the bump republishes the mirror slot header a
/// one-sided READ validates against); only an invalidation past `e`
/// *strictly* before the read revokes it, since records are emitted in
/// zero sim time and a shared timestamp means concurrent.
fn lease_freshness(ix: &Index, rep: &mut AuditReport) {
    for (p, r) in ix
        .of(&[K::LeaseInvalidate])
        .filter(|(_, r)| r.rpc_id != NO_ID)
    {
        rep.lease_invalidations += 1;
        let group = ix.by_rpc.get(r.rpc_id);
        let ack = ix
            .at(group)
            .find(|a| matches!(a.kind, K::RpcComplete | K::TxnAck));
        if let Some(ack) = ack.filter(|ack| r.ts_ns > ack.ts_ns) {
            let message = format!(
                "lease key {:#x}: invalidation at {} ns follows its put {:#x} ACK at {} ns",
                r.wr_id, r.ts_ns, r.rpc_id, ack.ts_ns
            );
            rep.flag(ix, group, p, message);
        }
    }
    // Per key: how far into its group earlier reads got, the epochs
    // granted or published up to there, and the invalidations that
    // raised the key's highest epoch — the first one past any epoch is
    // among them.
    type Lease = (usize, BTreeSet<u64>, Vec<(u64, u64)>);
    let mut keys: BTreeMap<u64, Lease> = BTreeMap::new();
    for (p, r) in ix.of(&[K::CacheRead, K::MirrorRead]) {
        rep.cached_reads += 1;
        let (key, epoch, kind, ts) = (r.wr_id, r.bytes, r.kind.name(), r.ts_ns);
        let group = ix.by_key.get(key);
        let (next, covered, raised) = keys.entry(key).or_default();
        while let Some(g) = ix.at(&group[*next..]).next().filter(|g| g.ts_ns <= ts) {
            covered.insert(g.bytes);
            if g.kind == K::LeaseInvalidate && raised.last().is_none_or(|&(e, _)| g.bytes > e) {
                raised.push((g.bytes, g.ts_ns));
            }
            *next += 1;
        }
        if !covered.contains(&epoch) {
            let message = format!(
                "lease key {key:#x}: {kind} at {ts} ns for epoch {epoch} without a covering lease grant"
            );
            rep.flag(ix, group, p, message);
        }
        let past = raised.get(raised.partition_point(|&(e, _)| e <= epoch));
        if let Some((new_epoch, t_inv)) = past.filter(|&&(_, t_inv)| t_inv < ts) {
            let message = format!(
                "lease key {key:#x}: {kind} at {ts} ns serves epoch {epoch} revoked by an invalidation to epoch {new_epoch} at {t_inv} ns"
            );
            rep.flag(ix, group, p, message);
        }
    }
}

/// I6. A `TxnAck` claims `wr_id` participants; an abort anywhere in the
/// stream forbids every apply of that txn.
fn transaction_atomicity(ix: &Index, rep: &mut AuditReport) {
    for (p, r) in ix.of(&[K::TxnAck]).filter(|(_, r)| r.rpc_id != NO_ID) {
        rep.txn_acks += 1;
        let group = ix.by_rpc.get(r.rpc_id);
        let shards = distinct(before(ix, r.rpc_id, p), K::TxnPrepare);
        if shards < r.wr_id as usize {
            let message = format!(
                "txn {:#x}: ACK at {} ns claims {} participants but only {shards} distinct shards' prepare appends precede it",
                r.rpc_id, r.ts_ns, r.wr_id
            );
            rep.flag(ix, group, p, message);
        }
        if !before(ix, r.rpc_id, p).any(|a| a.kind == K::TxnDecide) {
            let message = format!(
                "txn {:#x}: ACK at {} ns precedes the coordinator's decided append",
                r.rpc_id, r.ts_ns
            );
            rep.flag(ix, group, p, message);
        }
    }
    for (p, r) in ix.of(&[K::TxnApply]) {
        let group = ix.by_rpc.get(r.rpc_id);
        if ix.at(group).any(|a| a.kind == K::TxnAbort) {
            let message = format!(
                "txn {:#x}: aborted yet applied staged writes on node {} at {} ns",
                r.rpc_id, r.node, r.ts_ns
            );
            rep.flag(ix, group, p, message);
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::rec;
    use super::super::Subsystem;
    use super::*;
    use crate::rng::SmallRng;

    fn push(rep: &mut AuditReport, message: String) {
        rep.violations.push(Violation {
            rule: "",
            message,
            slice: Vec::new(),
        });
    }

    /// The auditor as it was before the index: thirteen whole-stream
    /// walks, three of them re-walking the stream per trigger record.
    /// Kept as the reference [`audit`] is compared against until the
    /// first PR that adds a rule.
    fn audit_reference(records: &[Record]) -> AuditReport {
        let mut rep = AuditReport {
            records: records.len(),
            ..Default::default()
        };

        // --- Invariant 1: per node, FlushAck(barrier b) implies all
        // DmaIssue tickets < b have a DmaComplete no later than the ACK.
        let mut issue_ts: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut complete_ts: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        for r in records {
            match r.kind {
                K::DmaIssue => {
                    issue_ts.insert((r.node, r.wr_id), r.ts_ns);
                }
                K::DmaComplete => {
                    complete_ts.insert((r.node, r.wr_id), r.ts_ns);
                }
                _ => {}
            }
        }
        for r in records {
            // A FlushAck without a barrier ticket is informational (a
            // client-side observation of a flush round trip); only acks
            // carrying the remote NIC's barrier are checkable.
            if r.kind != K::FlushAck || r.wr_id == NO_ID {
                continue;
            }
            rep.flush_acks += 1;
            let barrier = r.wr_id;
            for ((node, ticket), t_issue) in issue_ts.range((r.node, 0)..(r.node, barrier)) {
                debug_assert_eq!(*node, r.node);
                if *t_issue > r.ts_ns {
                    // Ticket allocated after this ACK: a later barrier's work.
                    continue;
                }
                match complete_ts.get(&(r.node, *ticket)) {
                    Some(t_done) if *t_done <= r.ts_ns => {}
                    Some(t_done) => push(&mut rep, format!(
                        "node {}: flush ACK at {} ns (barrier {}) precedes DMA ticket {} completion at {} ns",
                        r.node, r.ts_ns, barrier, ticket, t_done
                    )),
                    None => push(&mut rep, format!(
                        "node {}: flush ACK at {} ns (barrier {}) covers DMA ticket {} that never completed",
                        r.node, r.ts_ns, barrier, ticket
                    )),
                }
            }
        }

        // --- Invariant 2: RpcComplete not before the rpc's LogAppend.
        let mut append_ts: BTreeMap<u64, u64> = BTreeMap::new();
        for r in records {
            if r.kind == K::LogAppend && r.rpc_id != NO_ID {
                append_ts.entry(r.rpc_id).or_insert(r.ts_ns);
            }
        }
        for r in records {
            if r.kind != K::RpcComplete || r.rpc_id == NO_ID {
                continue;
            }
            if let Some(t_append) = append_ts.get(&r.rpc_id) {
                rep.rpcs_checked += 1;
                if r.ts_ns < *t_append {
                    push(
                        &mut rep,
                        format!(
                            "rpc {}: completion at {} ns precedes its redo-log append at {} ns",
                            r.rpc_id, r.ts_ns, t_append
                        ),
                    );
                }
            }
        }

        // --- Invariant 3: recovery replays exactly the un-done suffix.
        // Ids are (lane << 40) | index; a RecoveryStart carries the persisted
        // head index in wr_id and the lane in rpc_id >> 40.
        for r in records {
            if r.kind != K::RecoveryStart {
                continue;
            }
            rep.recoveries += 1;
            let lane = r.rpc_id >> 40;
            let head = r.wr_id;
            let appended: BTreeSet<u64> = records
                .iter()
                .filter(|a| {
                    a.kind == K::LogAppend
                        && a.rpc_id != NO_ID
                        && a.rpc_id >> 40 == lane
                        && (a.rpc_id & ((1 << 40) - 1)) >= head
                        && (a.ts_ns, a.node, a.seq) < (r.ts_ns, r.node, r.seq)
                })
                .map(|a| a.rpc_id & ((1 << 40) - 1))
                .collect();
            let mut replayed: BTreeSet<u64> = BTreeSet::new();
            let mut lost: BTreeSet<u64> = BTreeSet::new();
            for p in records {
                if p.rpc_id == NO_ID
                    || p.rpc_id >> 40 != lane
                    || (p.ts_ns, p.node, p.seq) <= (r.ts_ns, r.node, r.seq)
                {
                    continue;
                }
                let idx = p.rpc_id & ((1 << 40) - 1);
                match p.kind {
                    K::RecoveryReplay => {
                        replayed.insert(idx);
                    }
                    K::RecoveryLost => {
                        lost.insert(idx);
                    }
                    // A later recovery scan on this lane ends this one's
                    // replay window.
                    K::RecoveryStart => break,
                    _ => {}
                }
            }
            for idx in &appended {
                if !replayed.contains(idx) && !lost.contains(idx) {
                    push(&mut rep, format!(
                        "lane {lane}: recovery from head {head} neither replayed nor reported lost appended entry {idx}"
                    ));
                }
            }
            for idx in &replayed {
                if !appended.contains(idx) {
                    push(&mut rep, format!(
                        "lane {lane}: recovery from head {head} replayed entry {idx} that was never appended (or was already done before the persisted head)"
                    ));
                }
            }
        }

        // --- Invariant 4: a ReplAck claiming n replicas must be covered by
        // ReplAppends for the same causal put id on ≥ n distinct replica
        // slots, all at-or-before the ACK.
        for r in records {
            if r.kind != K::ReplAck || r.rpc_id == NO_ID {
                continue;
            }
            rep.repl_acks += 1;
            let claimed = r.wr_id as usize;
            let slots: BTreeSet<u64> = records
                .iter()
                .filter(|a| {
                    a.kind == K::ReplAppend
                        && a.rpc_id == r.rpc_id
                        && (a.ts_ns, a.node, a.seq) <= (r.ts_ns, r.node, r.seq)
                })
                .map(|a| a.wr_id)
                .collect();
            if slots.len() < claimed {
                push(&mut rep, format!(
                    "repl put {:#x}: ACK at {} ns claims {} replicas but only {} replica appends precede it",
                    r.rpc_id,
                    r.ts_ns,
                    claimed,
                    slots.len()
                ));
            }
        }

        // --- Invariant 5a: a lease invalidation precedes its put's ACK. A
        // committing transaction's write-set bumps carry the txn id, so a
        // TxnAck stands in for RpcComplete as the durability ACK.
        let mut complete_ts_by_rpc: BTreeMap<u64, u64> = BTreeMap::new();
        for r in records {
            if matches!(r.kind, K::RpcComplete | K::TxnAck) && r.rpc_id != NO_ID {
                complete_ts_by_rpc.entry(r.rpc_id).or_insert(r.ts_ns);
            }
        }
        for r in records {
            if r.kind != K::LeaseInvalidate || r.rpc_id == NO_ID {
                continue;
            }
            rep.lease_invalidations += 1;
            if let Some(t_ack) = complete_ts_by_rpc.get(&r.rpc_id) {
                if r.ts_ns > *t_ack {
                    push(
                        &mut rep,
                        format!(
                        "lease key {:#x}: invalidation at {} ns follows its put {:#x} ACK at {} ns",
                        r.wr_id, r.ts_ns, r.rpc_id, t_ack
                    ),
                    );
                }
            }
        }

        // --- Invariant 5b: every cached/mirror read at epoch e is covered
        // by a grant of exactly e, and no invalidation moved the key past e
        // strictly before the read. Grants and invalidations are emitted
        // synchronously (zero sim time), so events sharing a timestamp are
        // concurrent — only a *strictly earlier* revocation is a violation.
        let mut grant_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut invalidations_by_key: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for r in records {
            match r.kind {
                K::LeaseGrant => {
                    grant_ts.entry((r.wr_id, r.bytes)).or_insert(r.ts_ns);
                }
                K::LeaseInvalidate => {
                    invalidations_by_key
                        .entry(r.wr_id)
                        .or_default()
                        .push((r.bytes, r.ts_ns));
                }
                _ => {}
            }
        }
        for r in records {
            if !matches!(r.kind, K::CacheRead | K::MirrorRead) {
                continue;
            }
            rep.cached_reads += 1;
            let (key, epoch) = (r.wr_id, r.bytes);
            // Coverage: an explicit grant at epoch e, or the invalidation
            // record that *moved* the key to e — the epoch bump refreshes the
            // server's mirror slot header, so the bump record doubles as the
            // publication of epoch e (a one-sided READ validates against it
            // and may refill the client entry without a fresh RPC grant).
            let granted = grant_ts
                .get(&(key, epoch))
                .is_some_and(|t_grant| *t_grant <= r.ts_ns);
            let published = invalidations_by_key.get(&key).is_some_and(|invs| {
                invs.iter()
                    .any(|(new_epoch, t_inv)| *new_epoch == epoch && *t_inv <= r.ts_ns)
            });
            if !granted && !published {
                push(&mut rep, format!(
                    "lease key {key:#x}: {} at {} ns for epoch {epoch} without a covering lease grant",
                    r.kind.name(),
                    r.ts_ns
                ));
            }
            if let Some(invs) = invalidations_by_key.get(&key) {
                for (new_epoch, t_inv) in invs {
                    if *new_epoch > epoch && *t_inv < r.ts_ns {
                        push(&mut rep, format!(
                            "lease key {key:#x}: {} at {} ns serves epoch {epoch} revoked by an invalidation to epoch {new_epoch} at {t_inv} ns",
                            r.kind.name(),
                            r.ts_ns
                        ));
                        break;
                    }
                }
            }
        }

        // --- Invariant 6: a TxnAck claiming n participants must be covered
        // by TxnPrepare records on ≥ n distinct shards and by a TxnDecide,
        // all at-or-before the ACK; and no aborted txn may apply anywhere.
        for r in records {
            if r.kind != K::TxnAck || r.rpc_id == NO_ID {
                continue;
            }
            rep.txn_acks += 1;
            let claimed = r.wr_id as usize;
            let shards: BTreeSet<u64> = records
                .iter()
                .filter(|a| {
                    a.kind == K::TxnPrepare
                        && a.rpc_id == r.rpc_id
                        && (a.ts_ns, a.node, a.seq) <= (r.ts_ns, r.node, r.seq)
                })
                .map(|a| a.wr_id)
                .collect();
            if shards.len() < claimed {
                push(&mut rep, format!(
                    "txn {:#x}: ACK at {} ns claims {} participants but only {} distinct shards' prepare appends precede it",
                    r.rpc_id,
                    r.ts_ns,
                    claimed,
                    shards.len()
                ));
            }
            let decided = records.iter().any(|a| {
                a.kind == K::TxnDecide
                    && a.rpc_id == r.rpc_id
                    && (a.ts_ns, a.node, a.seq) <= (r.ts_ns, r.node, r.seq)
            });
            if !decided {
                push(
                    &mut rep,
                    format!(
                        "txn {:#x}: ACK at {} ns precedes the coordinator's decided append",
                        r.rpc_id, r.ts_ns
                    ),
                );
            }
        }
        let aborted_txns: BTreeSet<u64> = records
            .iter()
            .filter(|r| r.kind == K::TxnAbort && r.rpc_id != NO_ID)
            .map(|r| r.rpc_id)
            .collect();
        for r in records {
            if r.kind == K::TxnApply && aborted_txns.contains(&r.rpc_id) {
                push(
                    &mut rep,
                    format!(
                        "txn {:#x}: aborted yet applied staged writes on node {} at {} ns",
                        r.rpc_id, r.node, r.ts_ns
                    ),
                );
            }
        }

        rep
    }

    /// The verdict, the seven counters and every message in order must
    /// match; every violation names a rule and carries a bounded,
    /// non-empty slice.
    fn agree(new: &AuditReport, old: &AuditReport) -> Result<(), String> {
        let counters = |r: &AuditReport| {
            [
                r.flush_acks,
                r.rpcs_checked,
                r.recoveries,
                r.repl_acks,
                r.lease_invalidations,
                r.cached_reads,
                r.txn_acks,
            ]
        };
        let messages = |r: &AuditReport| -> Vec<String> {
            r.violations.iter().map(|v| v.message.clone()).collect()
        };
        if new.ok() != old.ok() || counters(new) != counters(old) || messages(new) != messages(old)
        {
            return Err(format!(
                "indexed: {new}\n{:#?}\nreference: {old}\n{:#?}",
                messages(new),
                messages(old)
            ));
        }
        for v in &new.violations {
            if !RULES.iter().any(|r| r.id == v.rule) || v.slice.is_empty() || v.slice.len() > 16 {
                return Err(format!("malformed violation {v:?}"));
            }
        }
        Ok(())
    }

    /// Audit with both implementations, insist they agree, return the
    /// indexed one's report: every stream a unit test builds is a
    /// differential case too.
    pub(in crate::journal) fn audit_both(records: &[Record]) -> AuditReport {
        let new = audit(records);
        agree(&new, &audit_reference(records)).unwrap_or_else(|e| panic!("{e}"));
        new
    }

    struct Lane {
        id: u64,
        node: u32,
        head: u64,
        next: u64,
    }

    #[derive(Default)]
    struct Lease {
        epoch: u64,
        granted: bool,
        /// When the key was last bumped, and last touched at all.
        bumped_at: u64,
        last_ts: u64,
    }

    /// A seeded generator of protocol-shaped streams that needs no
    /// simulation: ticketed puts, replicated puts, 2PC, lease traffic
    /// and crash cycles interleaved over 2–4 nodes (the last one the
    /// client) and 1–3 log lanes. Every clean stream it builds passes
    /// the audit.
    struct Gen {
        rng: SmallRng,
        out: Vec<Record>,
        seq: Vec<u64>,
        tickets: Vec<u64>,
        placed: Vec<u64>,
        lanes: Vec<Lane>,
        leases: Vec<Lease>,
        now: u64,
        horizon: u64,
        ids: u64,
    }

    impl Gen {
        fn new(seed: u64) -> Self {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nodes = rng.gen_range(2usize..=4);
            let servers = (nodes - 1) as u64;
            let lanes = (0..rng.gen_range(1u64..=3))
                .map(|l| Lane {
                    id: ((l % servers) << 12) | l,
                    node: (l % servers) as u32,
                    head: 0,
                    next: 0,
                })
                .collect();
            let leases = (0..rng.gen_range(1usize..=3))
                .map(|_| Lease::default())
                .collect();
            Gen {
                rng,
                out: Vec::new(),
                seq: vec![0; nodes],
                tickets: vec![0; nodes],
                placed: vec![0; nodes],
                lanes,
                leases,
                now: 0,
                horizon: 0,
                ids: 0,
            }
        }

        fn client(&self) -> u32 {
            self.seq.len() as u32 - 1
        }

        fn fresh(&mut self, space: u64) -> u64 {
            self.ids += 1;
            (space << 60) | self.ids
        }

        fn emit(&mut self, ts: u64, node: u32, kind: K, rpc: u64, wr: u64, bytes: u64) {
            let seq = &mut self.seq[node as usize];
            let any = Subsystem::Rpc; // no rule reads the subsystem
            self.out
                .push(rec(ts, node, *seq, any, kind, rpc, wr, bytes));
            *seq += 1;
            self.horizon = self.horizon.max(ts);
        }

        /// Bump `key`'s epoch on behalf of write `id`, no earlier than
        /// `ts` or the key's last read; returns when it happened.
        fn invalidate(&mut self, key: usize, id: u64, ts: u64) -> u64 {
            let lease = &mut self.leases[key];
            let (ts, epoch) = (ts.max(lease.last_ts), lease.epoch + 1);
            *lease = Lease {
                epoch,
                granted: false,
                bumped_at: ts,
                last_ts: ts,
            };
            self.emit(ts, 0, K::LeaseInvalidate, id, key as u64, epoch);
            ts
        }

        /// A ticketed durable put on `lane` starting at `t`; returns its
        /// log-derived id and completion time.
        fn put(&mut self, lane: usize, t: u64) -> (u64, u64) {
            let (client, server) = (self.client(), self.lanes[lane].node);
            let idx = self.lanes[lane].next;
            self.lanes[lane].next += 1;
            let id = (self.lanes[lane].id << 40) | idx;
            self.emit(t, client, K::LogAppend, id, idx, 64);
            let ticket = self.tickets[server as usize];
            self.tickets[server as usize] += 1;
            let issued = t + 200;
            let done = issued + 50 * self.rng.gen_range(2u64..18);
            self.emit(issued, server, K::DmaIssue, id, ticket, 64);
            self.emit(done, server, K::DmaComplete, id, ticket, 64);
            // The barrier covers every lower ticket on the node.
            let placed = self.placed[server as usize].max(done);
            self.placed[server as usize] = placed;
            let ack = placed + 50;
            self.emit(ack, server, K::FlushAck, id, ticket + 1, 0);
            self.emit(ack + 100, client, K::RpcDispatch, id, NO_ID, 64);
            let mut complete = ack + 300;
            if self.rng.gen_bool(0.3) {
                let key = self.rng.gen_range(0..self.leases.len());
                complete = complete.max(self.invalidate(key, id, ack + 150));
            }
            self.emit(complete, client, K::RpcComplete, id, NO_ID, 64);
            if self.lanes[lane].head == idx && self.rng.gen_bool(0.7) {
                self.emit(complete + 50, server, K::LogDone, id, idx, 0);
                self.lanes[lane].head = idx + 1;
            }
            (id, complete)
        }

        fn replicated_put(&mut self, t: u64) {
            let (client, root) = (self.client(), self.fresh(1));
            self.emit(t, client, K::RpcDispatch, root, NO_ID, 64);
            let replicas = self.lanes.len();
            let mut acked = t;
            for slot in 0..replicas {
                let leg = (self.lanes[slot].id << 40) | self.lanes[slot].next;
                self.emit(t + 50, client, K::ReplLink, root, leg, 0);
                let (_, done) = self.put(slot, t + 50 + 50 * slot as u64);
                self.emit(done + 50, client, K::ReplAppend, root, slot as u64, 64);
                acked = acked.max(done + 150);
            }
            self.emit(acked, client, K::ReplAck, root, replicas as u64, 64);
            self.emit(acked + 50, client, K::RpcComplete, root, NO_ID, 64);
        }

        fn txn(&mut self, t: u64) {
            let (client, id) = (self.client(), self.fresh(2));
            let shards = self.rng.gen_range(1u64..=3);
            let prepared = if self.rng.gen_bool(0.8) {
                shards
            } else {
                self.rng.gen_range(0..shards)
            };
            for shard in 0..prepared {
                let node = (shard % client as u64) as u32;
                self.emit(t + 100 * (shard + 1), node, K::TxnPrepare, id, shard, 64);
            }
            let decided = t + 100 * (shards + 1);
            if prepared < shards {
                self.emit(decided, client, K::TxnAbort, id, prepared, 0);
                return;
            }
            self.emit(decided, 0, K::TxnDecide, id, 0, 1);
            let key = self.rng.gen_range(0..self.leases.len());
            let acked = self.invalidate(key, id, decided + 50);
            self.emit(acked, client, K::TxnAck, id, shards, 0);
            for shard in 0..shards {
                let node = (shard % client as u64) as u32;
                self.emit(acked + 50 + shard, node, K::TxnApply, id, shard, 64);
            }
        }

        fn lease_read(&mut self, t: u64) {
            let (client, key) = (self.client(), self.rng.gen_range(0..self.leases.len()));
            let kind = if self.rng.gen_bool(0.5) {
                K::CacheRead
            } else {
                K::MirrorRead
            };
            let Lease {
                epoch, bumped_at, ..
            } = self.leases[key];
            if epoch >= 2 && self.rng.gen_bool(0.2) {
                // Concurrent with the bump that revoked it: stale, legal.
                let get = self.fresh(3);
                self.emit(bumped_at, client, kind, get, key as u64, epoch - 1);
                return;
            }
            let ts = t.max(self.leases[key].last_ts);
            if (epoch == 0 && !self.leases[key].granted) || self.rng.gen_bool(0.3) {
                let get = self.fresh(3);
                self.emit(ts, 0, K::LeaseGrant, get, key as u64, epoch);
                self.leases[key].granted = true;
            }
            // As early as the grant's own instant.
            let read_at = ts + 50 * self.rng.gen_range(0u64..3);
            let get = self.fresh(3);
            self.emit(read_at, client, kind, get, key as u64, epoch);
            self.leases[key].last_ts = read_at;
        }

        /// Crash `lane`'s server once everything emitted so far has
        /// happened, then replay (or report lost) its un-done suffix.
        fn crash_cycle(&mut self, lane: usize) {
            let Lane {
                id,
                node,
                head,
                next,
            } = self.lanes[lane];
            let t = self.horizon + 1_000;
            self.emit(t - 500, node, K::NodeCrash, NO_ID, NO_ID, 0);
            self.emit(t, node, K::RecoveryStart, id << 40, head, 0);
            for idx in head..next {
                let kind = if self.rng.gen_bool(0.9) {
                    K::RecoveryReplay
                } else {
                    K::RecoveryLost
                };
                let ts = t + 100 * (idx - head + 1);
                self.emit(ts, node, kind, (id << 40) | idx, idx, 64);
            }
            self.lanes[lane].head = next;
            self.now = self.horizon;
        }

        /// `ops` interleaved operations, merged.
        fn stream(mut self, ops: usize) -> Vec<Record> {
            for _ in 0..ops {
                self.now += 50 * self.rng.gen_range(4u64..50);
                let (t, lane) = (self.now, self.rng.gen_range(0..self.lanes.len()));
                match self.rng.gen_range(0u32..20) {
                    0..=6 => drop(self.put(lane, t)),
                    7..=10 => self.replicated_put(t),
                    11..=14 => self.txn(t),
                    15..=18 => self.lease_read(t),
                    _ => self.crash_cycle(lane),
                }
            }
            self.out.sort_by_key(|r| (r.ts_ns, r.node, r.seq));
            self.out
        }
    }

    /// One seeded fault: drop a record, shift it ±20 µs and re-merge,
    /// bump one of its ids by ±1, or swap its kind for a sibling's.
    fn mutate(rng: &mut SmallRng, clean: &[Record]) -> Vec<Record> {
        let swapped = |kind: K| match kind {
            K::RecoveryReplay => Some(K::RecoveryLost),
            K::RecoveryLost => Some(K::RecoveryReplay),
            K::TxnPrepare => Some(K::TxnAbort),
            K::ReplAppend => Some(K::ReplLink),
            K::LeaseGrant => Some(K::LeaseInvalidate),
            _ => None,
        };
        let mut m = clean.to_vec();
        let i = rng.gen_range(0..m.len());
        let bump = if rng.gen_bool(0.5) { 1 } else { u64::MAX }; // ±1
        match rng.gen_range(0u32..8) {
            0 => drop(m.remove(i)),
            1 => m[i].ts_ns += 20_000,
            2 => m[i].ts_ns = m[i].ts_ns.saturating_sub(20_000),
            3 => m[i].wr_id = m[i].wr_id.wrapping_add(bump),
            4 => m[i].bytes = m[i].bytes.wrapping_add(bump),
            5 => m[i].rpc_id = m[i].rpc_id.wrapping_add(bump),
            // The first swappable record from `i` on, wrapping.
            _ => {
                let from_i = (0..m.len()).map(|d| (i + d) % m.len());
                let hit = from_i.filter_map(|j| Some((j, swapped(m[j].kind)?))).next();
                if let Some((j, kind)) = hit {
                    m[j].kind = kind;
                }
            }
        }
        m.sort_by_key(|r| (r.ts_ns, r.node, r.seq));
        m
    }

    /// The permanent differential: on every generated stream and on 200
    /// seeded mutations of each, the indexed audit and the reference
    /// agree on verdict, counters and messages; the mutator bites; and
    /// `audit` panics on none of them.
    #[test]
    fn audit_agrees_with_reference_on_generated_and_mutated_streams() {
        let (mut mutants, mut flagged) = (0, 0);
        for case in 0..24u64 {
            let seed = 0xA0D1_7000 + case;
            let clean = Gen::new(seed).stream(60);
            let rep = audit(&clean);
            assert!(
                rep.ok(),
                "seed {seed:#x}: generator built a dirty stream:\n{rep}"
            );
            agree(&rep, &audit_reference(&clean))
                .unwrap_or_else(|e| panic!("seed {seed:#x}, clean stream: {e}"));
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
            for mutation in 0..200 {
                let mutant = mutate(&mut rng, &clean);
                let rep = audit(&mutant);
                agree(&rep, &audit_reference(&mutant))
                    .unwrap_or_else(|e| panic!("seed {seed:#x}, mutation {mutation}: {e}"));
                mutants += 1;
                flagged += usize::from(!rep.ok());
            }
        }
        println!("{flagged} of {mutants} mutants flagged");
        assert!(
            flagged * 5 >= mutants,
            "the mutator must bite: only {flagged} of {mutants} mutants were flagged"
        );
    }

    /// n, not n²: a 300 K-record replicated + transactional + crashing
    /// stream audits in about a second in the debug profile; the
    /// reference's per-trigger re-walks take minutes on it.
    #[test]
    fn audit_of_a_300k_record_stream_is_linear() {
        let stream = Gen::new(0xB16).stream(48_000);
        assert!(stream.len() >= 300_000, "only {} records", stream.len());
        let t0 = std::time::Instant::now();
        let rep = audit(&stream);
        let took = t0.elapsed();
        println!("{} records in {took:?}: {rep}", stream.len());
        rep.assert_ok();
        assert!(rep.recoveries > 100 && rep.repl_acks > 1_000 && rep.txn_acks > 1_000);
        assert!(took.as_secs() < 20, "audit took {took:?}");
    }

    fn txn_rec(ts_ns: u64, seq: u64, kind: K, wr_id: u64) -> Record {
        rec(
            ts_ns,
            1,
            seq,
            Subsystem::Rpc,
            kind,
            (2 << 60) | 9,
            wr_id,
            64,
        )
    }

    /// Exactly one violation, of `rule`, saying `what`, whose slice holds
    /// the trigger record.
    fn assert_flags(rep: &AuditReport, rule: &str, what: &str, trigger: &Record) {
        assert_eq!(rep.violations.len(), 1, "{rep}: {:#?}", rep.violations);
        let v = &rep.violations[0];
        assert_eq!(v.rule, rule);
        assert!(v.message.contains(what), "{}", v.message);
        assert!(v.slice.contains(trigger), "{v}");
    }

    #[test]
    fn audit_catches_txn_ack_without_every_prepare() {
        // Two shards prepared, decided, ACKed for 2, applied: pass.
        let clean = vec![
            txn_rec(5, 0, K::TxnPrepare, 0),
            txn_rec(6, 1, K::TxnPrepare, 1),
            txn_rec(9, 2, K::TxnDecide, 0),
            txn_rec(12, 3, K::TxnAck, 2),
            txn_rec(15, 4, K::TxnApply, 0),
            txn_rec(16, 5, K::TxnApply, 1),
        ];
        let rep = audit_both(&clean);
        rep.assert_ok();
        assert_eq!(rep.txn_acks, 1);

        // The second shard's prepare lands after the ACK claiming 2.
        let mut late = clean.clone();
        late[1].ts_ns = 13;
        late.sort_by_key(|r| (r.ts_ns, r.node, r.seq));
        let rep = audit_both(&late);
        assert_flags(&rep, "I6", "claims 2 participants but only 1", &late[2]);
        assert_eq!(rep.violations[0].slice, late);
    }

    #[test]
    fn audit_catches_txn_ack_before_decide() {
        let records = vec![
            txn_rec(5, 0, K::TxnPrepare, 0),
            txn_rec(6, 1, K::TxnPrepare, 1),
            txn_rec(12, 2, K::TxnAck, 2),
            txn_rec(14, 3, K::TxnDecide, 0),
        ];
        let rep = audit_both(&records);
        assert_flags(
            &rep,
            "I6",
            "precedes the coordinator's decided append",
            &records[2],
        );
    }

    #[test]
    fn audit_catches_apply_of_an_aborted_txn() {
        let records = vec![
            txn_rec(5, 0, K::TxnPrepare, 0),
            txn_rec(8, 1, K::TxnAbort, 1),
            txn_rec(15, 2, K::TxnApply, 0),
        ];
        let rep = audit_both(&records);
        assert_flags(&rep, "I6", "aborted yet applied", &records[2]);
        assert_eq!(rep.txn_acks, 0);
    }

    /// The rules compare positions, so an unmerged stream is reported,
    /// not audited: one violation, no counters.
    #[test]
    fn audit_refuses_a_stream_out_of_merge_order() {
        let mut records = Gen::new(7).stream(20);
        audit_both(&records).assert_ok();
        let last = records.len() - 1;
        records.swap(3, last);
        let rep = audit(&records);
        assert_flags(
            &rep,
            "order",
            "stream not in merge order at record 4",
            &records[4],
        );
        assert_eq!(rep.violations[0].slice, records[3..=4]);
        assert_eq!(rep.flush_acks + rep.rpcs_checked + rep.txn_acks, 0);
    }
}
