//! PageRank with the graph stored in remote persistent memory, fetched
//! through RPCs each iteration (the paper's Fig. 10 setup, small scale).
//!
//! Run: `cargo run --example pagerank`

use prdma_suite::baselines::{build_system, SystemKind, SystemOpts};
use prdma_suite::core::ServerProfile;
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::simnet::Sim;
use prdma_suite::workloads::graph::{generate, GraphDataset};
use prdma_suite::workloads::pagerank::run_pagerank;
use std::rc::Rc;

fn main() {
    let dataset = GraphDataset::WordAssociation2011;
    let graph = Rc::new(generate(dataset, 2021));
    println!(
        "dataset {}: {} nodes, {} edges ({} KB stored in remote PM)\n",
        dataset.name(),
        graph.nodes,
        graph.edges(),
        graph.stored_bytes() / 1024
    );

    println!("{:<14} {:>14} {:>10}", "system", "time(sim s)", "fetches");
    let mut top_node = 0u32;
    for kind in [SystemKind::Farm, SystemKind::Darpc, SystemKind::WFlush] {
        let mut sim = Sim::new(9);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(4096, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        let graph = Rc::clone(&graph);
        let r = sim.block_on(async move { run_pagerank(client.as_ref(), &h, &graph, 10).await });
        println!(
            "{:<14} {:>14.3} {:>10}",
            kind.name(),
            r.elapsed.as_secs_f64(),
            r.fetches
        );
        top_node = r
            .ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i as u32)
            .unwrap();
    }
    println!("\nhighest-ranked node: {top_node} (identical across systems — the");
    println!("RPC layer changes data movement, never results)");
}
