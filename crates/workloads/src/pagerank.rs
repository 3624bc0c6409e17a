//! PageRank over remote graph data (paper Section 5.3, Fig. 10).
//!
//! The graph lives in the remote server's PM; the compute node keeps the
//! rank vectors in local memory and fetches the graph through RPCs each
//! iteration (the paper's setup). The rank arithmetic is executed for
//! real; only the data movement is simulated.

use prdma::{Request, RpcClient};
use prdma_simnet::{SimDuration, SimHandle};

use crate::graph::Graph;

/// Damping factor.
const DAMPING: f64 = 0.85;
/// RPC fetch granularity in bytes (the client pulls the CSR in pages).
const PAGE_BYTES: u64 = 4096;
/// Per-edge local compute charged to the client CPU, in nanoseconds
/// (models the "compute-intensive" client the paper emphasizes).
const NS_PER_EDGE: f64 = 4.0;

/// Result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Total simulated execution time.
    pub elapsed: SimDuration,
    /// Number of RPC fetches issued.
    pub fetches: u64,
    /// Final ranks (sums to ~1).
    pub ranks: Vec<f64>,
}

/// Run `iterations` rounds of PageRank with the graph's pages fetched via
/// `client` each round (the paper does not fix a count; 10 is typical).
pub async fn run_pagerank(
    client: &dyn RpcClient,
    h: &SimHandle,
    graph: &Graph,
    iterations: u32,
) -> PageRankResult {
    let n = graph.nodes as usize;
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let total_bytes = graph.stored_bytes();
    let pages = total_bytes.div_ceil(PAGE_BYTES);
    let mut fetches = 0u64;
    let t0 = h.now();

    for _ in 0..iterations {
        // Fetch the graph pages from the remote PM.
        for p in 0..pages {
            let len = PAGE_BYTES.min(total_bytes - p * PAGE_BYTES);
            client
                .call(Request::Get { obj: p, len })
                .await
                .expect("graph fetch failed");
            fetches += 1;
        }
        // Local compute: the real rank update (dangling-node mass is
        // redistributed uniformly so ranks stay a distribution).
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0f64;
        for v in 0..graph.nodes {
            let deg = graph.degree(v);
            if deg == 0 {
                dangling += ranks[v as usize];
                continue;
            }
            let share = ranks[v as usize] / deg as f64;
            for &t in graph.neighbors(v) {
                next[t as usize] += share;
            }
        }
        let base = (1.0 - DAMPING + DAMPING * dangling) / n as f64;
        for (r, nx) in ranks.iter_mut().zip(next.iter()) {
            *r = base + DAMPING * nx;
        }
        let compute = SimDuration::from_nanos((graph.edges() as f64 * NS_PER_EDGE).round() as u64);
        h.sleep(compute).await;
    }

    PageRankResult {
        elapsed: h.now() - t0,
        fetches,
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generate_power_law;
    use prdma::ServerProfile;
    use prdma_baselines::{build_system, SystemKind, SystemOpts};
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_simnet::Sim;

    fn run(kind: SystemKind, iterations: u32) -> PageRankResult {
        let mut sim = Sim::new(8);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(4096, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let g = generate_power_law(500, 3000, 1);
        let h = sim.handle();
        sim.block_on(async move { run_pagerank(client.as_ref(), &h, &g, iterations).await })
    }

    #[test]
    fn ranks_form_a_distribution() {
        let r = run(SystemKind::WFlush, 10);
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "rank sum {sum}");
        assert!(r.ranks.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn fetch_count_matches_pages_times_iterations() {
        let r = run(SystemKind::Farm, 3);
        // 501*8 + 3000*4 = 16008 bytes -> 4 pages of 4096
        assert_eq!(r.fetches, 4 * 3);
    }

    #[test]
    fn more_iterations_take_longer() {
        let r3 = run(SystemKind::Farm, 3);
        let r6 = run(SystemKind::Farm, 6);
        assert!(r6.elapsed > r3.elapsed);
    }
}
