//! YCSB-T-style transactional mix over the durable transaction layer:
//! each transaction reads `reads_per_txn` zipfian keys, writes
//! `writes_per_txn` zipfian keys, then commits through durable 2PC.
//! Aborted transactions are *not* retried — the abort rate is the
//! measurement (it is what the `fig_txn` sweep reports against shard
//! count and skew).

use std::rc::Rc;

use prdma::txn::TxnOutcome;
use prdma::ShardedClient;
use prdma_rnic::Payload;
use prdma_simnet::{Histogram, SimDuration, SimHandle, Summary};

use crate::dist::{workload_rng, Zipfian};

/// Transactional mix parameters.
#[derive(Debug, Clone)]
pub struct TxnMixConfig {
    /// Transactions each client attempts.
    pub txns: u64,
    /// Keys read (with OCC version capture) per transaction.
    pub reads_per_txn: usize,
    /// Keys written per transaction.
    pub writes_per_txn: usize,
    /// Keyspace size (global object ids `0..objects`).
    pub objects: u64,
    /// Value size in bytes.
    pub value_bytes: u64,
    /// Zipfian skew of the key choice (both reads and writes).
    pub theta: f64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for TxnMixConfig {
    fn default() -> Self {
        TxnMixConfig {
            txns: 2_000,
            reads_per_txn: 2,
            writes_per_txn: 2,
            objects: 10_000,
            value_bytes: 128,
            theta: 0.99,
            seed: 42,
        }
    }
}

/// Results of one transactional-mix run (all clients pooled).
#[derive(Debug, Clone)]
pub struct TxnMixResult {
    /// Transactions attempted.
    pub attempted: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (conflict or validation failure).
    pub aborted: u64,
    /// Commit latency summary (committed transactions only, measured
    /// from `commit()` entry to ACK).
    pub latency: Summary,
    /// Total simulated duration.
    pub elapsed: SimDuration,
    /// Committed-transaction throughput in K-txns per simulated second.
    pub ktps: f64,
}

impl TxnMixResult {
    /// Aborts as a fraction of attempts.
    pub fn abort_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.aborted as f64 / self.attempted as f64
        }
    }
}

/// Run the transactional mix: every client drives `cfg.txns`
/// transactions concurrently (one task per client), keys drawn
/// zipfian(θ) over the shared keyspace so clients genuinely collide on
/// hot keys.
pub async fn run_txn_mix(
    h: &SimHandle,
    clients: &[Rc<ShardedClient>],
    cfg: &TxnMixConfig,
) -> TxnMixResult {
    let t0 = h.now();
    let mut joins = Vec::with_capacity(clients.len());
    for (i, client) in clients.iter().enumerate() {
        let client = Rc::clone(client);
        let cfg = cfg.clone();
        let h = h.clone();
        joins.push(
            h.clone()
                .spawn(async move { run_one_client(&h, &client, i, cfg).await }),
        );
    }
    let mut hist = Histogram::new();
    let mut attempted = 0u64;
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for j in joins {
        let (a, c, ab, h_client) = j.await;
        attempted += a;
        committed += c;
        aborted += ab;
        hist.merge(&h_client);
    }
    let elapsed = h.now() - t0;
    let ktps = if elapsed > SimDuration::ZERO {
        committed as f64 / elapsed.as_secs_f64() / 1e3
    } else {
        0.0
    };
    TxnMixResult {
        attempted,
        committed,
        aborted,
        latency: hist.summary(),
        elapsed,
        ktps,
    }
}

async fn run_one_client(
    h: &SimHandle,
    client: &ShardedClient,
    index: usize,
    cfg: TxnMixConfig,
) -> (u64, u64, u64, Histogram) {
    let mut rng = workload_rng(cfg.seed.wrapping_add(index as u64 * 7919));
    let zipf = Zipfian::new(cfg.objects, cfg.theta);
    let mut hist = Histogram::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for _ in 0..cfg.txns {
        let mut txn = client.begin();
        for _ in 0..cfg.reads_per_txn {
            let key = zipf.sample(&mut rng);
            let _ = client.read(&mut txn, key, cfg.value_bytes).await;
        }
        for w in 0..cfg.writes_per_txn {
            let key = zipf.sample(&mut rng);
            txn.put(
                key,
                &Payload::synthetic(cfg.value_bytes, key ^ ((w as u64) << 48)),
            );
        }
        let t0 = h.now();
        match client.commit(txn).await {
            Ok(TxnOutcome::Committed) => {
                hist.record_duration(h.now() - t0);
                committed += 1;
            }
            Ok(TxnOutcome::Aborted(_)) | Err(_) => aborted += 1,
        }
    }
    (cfg.txns, committed, aborted, hist)
}
