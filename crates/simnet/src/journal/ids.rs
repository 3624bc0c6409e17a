//! Causal ids: the one place that builds an id from its fields and takes
//! a log id apart again.
//!
//! Six kinds share the 64-bit id space. The first five must never
//! collide: the auditor and the span builder key records on the bare
//! `rpc_id`, and apply-time dedup keys on the ids that `RPut` payloads
//! and txn records carry. Lease keys live in the `wr_id` of lease
//! records and only need to be unique among themselves.
//!
//! | kind | carried in | layout | bounds | range |
//! |---|---|---|---|---|
//! | log id ([`log_lane`]) | `rpc_id` of a put's log, RPC and NIC records | `(server << 12 \| lane) << 40 \| index` | server < 2^6, lane < 2^12, index < 2^32 | lane 0: `[0, 2^32)`; others: `[2^40, 2^58)` |
//! | allocator rpc id ([`node_rpcs`]) | GETs, baseline RPCs | `2^32 + node·2^24 + n` | node < 2^15, n < 2^24 | `[2^32, 2^32 + 2^39)` |
//! | batched-put id ([`batched_puts`]) | `RPut` payload (dedup only) | `2^58 \| node << 36 \| lane << 24 \| n` | node < 2^22, lane < 2^12, n < 2^24 | `[2^58, 2^59)` |
//! | txn id ([`txns`]) | `Txn*` rpc ids, dedup | `2^59 \| client << 32 \| n` | client < 2^27, n < 2^32 | `[2^59, 2^60)` |
//! | replicated-put id ([`replicated_puts`]) | `RpcComplete` / `ReplLink` rpc ids, `RPut` payload | `2^60 \| group << 32 \| n` | group < 2^28, n < 2^32 | `[2^60, 2^61)` |
//! | lease key ([`lease_keys`]) | `wr_id` of lease records | `shard << 44 \| obj` | shard < 2^20, obj < 2^44 | its own field |
//!
//! A log id names the log that holds the put, not just the client lane:
//! two shards serving the same client reuse lane numbers, and the
//! auditor's recovery rule (I3) scopes its checks by [`lane_of`].
//!
//! Each kind's constructor fixes the fields that stay put for a
//! component's lifetime (server and lane, node, client, group, shard) and
//! returns the kind's [`Ids`]; [`Ids::id`] fills in the field that is
//! drawn per operation. Both check their bounds in release builds too: a
//! field that spilled into its neighbour would silently merge two
//! operations' ids.

/// One kind's ids with every fixed field filled in: they differ only in
/// the low field, which [`Ids::id`] sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ids {
    base: u64,
    bits: u32,
    overflow: &'static str,
}

impl Ids {
    /// The id whose low field is `n`. Panics if `n` does not fit.
    #[inline]
    pub fn id(self, n: u64) -> u64 {
        assert!(n >> self.bits == 0, "{}", self.overflow);
        self.base | n
    }
}

/// Log ids: bits of the entry index below the lane.
const LANE_SHIFT: u32 = 40;
/// Log ids: bits of the client lane below the server index.
const SERVER_SHIFT: u32 = LANE_SHIFT + 12;

/// The ids of log `lane` on server `server`: `rpc_id` of every record of
/// one redo log, with the entry index as the low field.
pub fn log_lane(server: usize, lane: usize) -> Ids {
    assert!(
        server < 1 << 6,
        "server index exceeds the journal id namespace"
    );
    assert!(lane < 1 << 12, "lane exceeds the journal id namespace");
    Ids {
        base: ((server as u64) << SERVER_SHIFT) | ((lane as u64) << LANE_SHIFT),
        bits: 32,
        overflow: "log index exceeded the journal id namespace",
    }
}

/// The log lane (server and client lane together) of log id `id`: the
/// key the journal index groups a log's records under.
pub fn lane_of(id: u64) -> u64 {
    id >> LANE_SHIFT
}

/// The entry index of log id `id`.
pub fn index_of(id: u64) -> u64 {
    id & ((1 << LANE_SHIFT) - 1)
}

/// The server that holds the log of log id `id`.
pub fn server_of(id: u64) -> u32 {
    (id >> SERVER_SHIFT) as u32
}

/// The ids node `node`'s journal allocates for requests that no log
/// names: GETs and every baseline RPC.
pub fn node_rpcs(node: u32) -> Ids {
    assert!(node < 1 << 15, "node exceeds the rpc id namespace");
    Ids {
        base: (1 << 32) + ((node as u64) << 24),
        bits: 24,
        overflow: "rpc id counter exceeded the node's id span",
    }
}

/// The per-op ids of batched puts from client lane `lane` on node `node`,
/// carried in each `RPut` payload for apply-time dedup.
pub fn batched_puts(node: usize, lane: usize) -> Ids {
    assert!(node < 1 << 22, "node exceeds the batch id namespace");
    assert!(lane < 1 << 12, "lane exceeds the batch id namespace");
    Ids {
        base: (1 << 58) | ((node as u64) << 36) | ((lane as u64) << 24),
        bits: 24,
        overflow: "batch id counter exceeded the id namespace",
    }
}

/// The ids of transactions opened by client ordinal `client`.
pub fn txns(client: usize) -> Ids {
    assert!(client < 1 << 27, "client tag exceeds the txn id namespace");
    Ids {
        base: (1 << 59) | ((client as u64) << 32),
        bits: 32,
        overflow: "txn counter exceeded the id namespace",
    }
}

/// The ids of puts through replica group `group`.
pub fn replicated_puts(group: u64) -> Ids {
    assert!(group < 1 << 28, "group tag exceeds the id namespace");
    Ids {
        base: (1 << 60) | (group << 32),
        bits: 32,
        overflow: "put id counter exceeded the id namespace",
    }
}

/// The lease keys of shard `shard`, with the object id as the low field,
/// so a merged fleet journal never conflates two shards' lease state
/// for the same local object id.
pub fn lease_keys(shard: u64) -> Ids {
    assert!(shard < 1 << 20, "shard exceeds the lease key space");
    Ids {
        base: shard << 44,
        bits: 44,
        overflow: "object id exceeds lease key space",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Every rpc-id kind at the smallest and largest value of every
    /// field, as `(kind, id)`.
    fn extremes() -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        for s in [0, 63] {
            for l in [0, 1, 4095] {
                let kind = if (s, l) == (0, 0) {
                    "log lane 0"
                } else {
                    "log"
                };
                for i in [0, u32::MAX as u64] {
                    out.push((kind, log_lane(s, l).id(i)));
                }
            }
        }
        for n in [0, (1 << 15) - 1] {
            for c in [0, (1 << 24) - 1] {
                out.push(("allocator", node_rpcs(n).id(c)));
            }
        }
        for n in [0, (1 << 22) - 1] {
            for l in [0, 4095] {
                for c in [0, (1 << 24) - 1] {
                    out.push(("batch", batched_puts(n, l).id(c)));
                }
            }
        }
        for t in [0, (1 << 27) - 1] {
            for c in [0, u32::MAX as u64] {
                out.push(("txn", txns(t).id(c)));
            }
        }
        for g in [0, (1 << 28) - 1] {
            for c in [0, u32::MAX as u64] {
                out.push(("replicated", replicated_puts(g).id(c)));
            }
        }
        out
    }

    #[test]
    fn namespaces_are_disjoint_at_every_field_extreme() {
        let mut ranges: Vec<(&str, u64, u64)> = Vec::new();
        for (kind, id) in extremes() {
            match ranges.iter_mut().find(|r| r.0 == kind) {
                Some(r) => (r.1, r.2) = (r.1.min(id), r.2.max(id)),
                None => ranges.push((kind, id, id)),
            }
        }
        assert_eq!(ranges.len(), 6);
        for (i, a) in ranges.iter().enumerate() {
            for b in &ranges[i + 1..] {
                assert!(a.2 < b.1 || b.2 < a.1, "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn every_bound_panics_one_step_past_it() {
        let panics = |build: fn() -> u64| catch_unwind(build).is_err();
        assert!(panics(|| log_lane(64, 0).id(0)), "log server");
        assert!(panics(|| log_lane(0, 1 << 12).id(0)), "log lane");
        assert!(panics(|| log_lane(0, 0).id(1 << 32)), "log index");
        assert!(panics(|| node_rpcs(1 << 15).id(0)), "allocator node");
        assert!(panics(|| node_rpcs(0).id(1 << 24)), "allocator counter");
        assert!(panics(|| batched_puts(1 << 22, 0).id(0)), "batch node");
        assert!(panics(|| batched_puts(0, 1 << 12).id(0)), "batch lane");
        assert!(panics(|| batched_puts(0, 0).id(1 << 24)), "batch counter");
        assert!(panics(|| txns(1 << 27).id(0)), "txn client");
        assert!(panics(|| txns(0).id(1 << 32)), "txn counter");
        assert!(panics(|| replicated_puts(1 << 28).id(0)), "replica group");
        assert!(
            panics(|| replicated_puts(0).id(1 << 32)),
            "replicated counter"
        );
        assert!(panics(|| lease_keys(1 << 20).id(0)), "lease shard");
        assert!(panics(|| lease_keys(0).id(1 << 44)), "lease object");
    }

    #[test]
    fn splitters_invert_log_ids() {
        for (server, lane, index) in [(0, 0, 0), (0, 7, 5), (5, 0, 9), (63, 4095, u32::MAX as u64)]
        {
            let id = log_lane(server, lane).id(index);
            assert_eq!(server_of(id), server as u32);
            assert_eq!(lane_of(id), ((server as u64) << 12) | lane as u64);
            assert_eq!(index_of(id), index);
        }
    }
}
