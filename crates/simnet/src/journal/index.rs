//! One pass over a merged stream that every reader needing a record's
//! relatives shares: the auditor's rules and the span builder.

use super::{ids, EventKind, Record, NO_ID};

/// Record positions grouped under keys: `keys[i]` is the key of
/// `positions[i]`, the pairs sorted, so a key's group is one run of
/// positions in stream order.
#[derive(Debug)]
pub struct Groups<K> {
    keys: Vec<K>,
    positions: Vec<usize>,
}

impl<K: Ord + Copy> Groups<K> {
    fn new(mut pairs: Vec<(K, usize)>) -> Self {
        pairs.sort_unstable();
        let (keys, positions) = pairs.into_iter().unzip();
        Groups { keys, positions }
    }

    /// The positions grouped under `key` (empty when there are none).
    pub fn get(&self, key: K) -> &[usize] {
        let lo = self.keys.partition_point(|&k| k < key);
        &self.positions[lo..lo + self.keys[lo..].partition_point(|&k| k == key)]
    }

    /// Every key with its group, keys ascending.
    pub fn iter(&self) -> impl Iterator<Item = (K, &[usize])> {
        let mut end = 0;
        self.keys.chunk_by(|a, b| a == b).map(move |run| {
            end += run.len();
            (run[0], &self.positions[end - run.len()..end])
        })
    }
}

/// The record positions of one merged stream, grouped once.
#[derive(Debug)]
pub struct Index<'a> {
    /// The stream the positions point into.
    pub records: &'a [Record],
    /// First position whose `(ts_ns, node, seq)` is below its
    /// predecessor's, when the stream is not in [`super::merge`] order.
    pub unsorted_at: Option<usize>,
    by_kind: Vec<Vec<usize>>,
    /// Every record carrying an `rpc_id`, by that id.
    pub by_rpc: Groups<u64>,
    /// `DmaIssue` and `DmaComplete` records by `(node, wr_id)`.
    pub by_ticket: Groups<(u32, u64)>,
    /// `LogAppend` and `Recovery*` records by log lane ([`ids::lane_of`]).
    pub by_lane: Groups<u64>,
    /// `LeaseGrant` and `LeaseInvalidate` records by lease key (`wr_id`).
    pub by_key: Groups<u64>,
}

impl<'a> Index<'a> {
    /// Group `records` in one pass.
    pub fn build(records: &'a [Record]) -> Self {
        use EventKind as K;
        let order = |r: &Record| (r.ts_ns, r.node, r.seq);
        let (mut unsorted_at, mut by_kind) = (None, Vec::new());
        let mut rpcs = Vec::with_capacity(records.len());
        let (mut tickets, mut lanes, mut keys) = (Vec::new(), Vec::new(), Vec::new());
        for (p, r) in records.iter().enumerate() {
            if p > 0 && unsorted_at.is_none() && order(r) < order(&records[p - 1]) {
                unsorted_at = Some(p);
            }
            let kind = r.kind as usize;
            if by_kind.len() <= kind {
                by_kind.resize(kind + 1, Vec::new());
            }
            by_kind[kind].push(p);
            if r.rpc_id != NO_ID {
                rpcs.push((r.rpc_id, p));
            }
            match r.kind {
                K::DmaIssue | K::DmaComplete => tickets.push(((r.node, r.wr_id), p)),
                K::LogAppend | K::RecoveryStart | K::RecoveryReplay | K::RecoveryLost
                    if r.rpc_id != NO_ID =>
                {
                    lanes.push((ids::lane_of(r.rpc_id), p))
                }
                K::LeaseGrant | K::LeaseInvalidate => keys.push((r.wr_id, p)),
                _ => {}
            }
        }
        Index {
            records,
            unsorted_at,
            by_kind,
            by_rpc: Groups::new(rpcs),
            by_ticket: Groups::new(tickets),
            by_lane: Groups::new(lanes),
            by_key: Groups::new(keys),
        }
    }

    /// Every record of one of `kinds` with its position, in stream order.
    pub fn of(&self, kinds: &[EventKind]) -> impl Iterator<Item = (usize, &'a Record)> + '_ {
        let lists = kinds.iter().filter_map(|&k| self.by_kind.get(k as usize));
        let mut positions: Vec<usize> = lists.flatten().copied().collect();
        positions.sort_unstable();
        positions.into_iter().map(|p| (p, &self.records[p]))
    }

    /// The records at the positions in `group`.
    pub fn at<'b>(&'b self, group: &'b [usize]) -> impl Iterator<Item = &'a Record> + 'b {
        group.iter().map(|&p| &self.records[p])
    }
}
