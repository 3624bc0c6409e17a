//! # prdma-baselines
//!
//! The nine state-of-the-art RDMA RPC systems the SC '21 paper compares
//! against (Table 1, Fig. 2), re-implemented on the PRDMA-RS substrate:
//! DaRPC, FaRM, Herd, FaSST, L5, RFP, ScaleRPC, Octopus, and LITE.
//!
//! Each system reproduces the *protocol schedule* that determines its
//! performance: which verbs carry requests and replies, who polls or gets
//! interrupted, and — crucially — that **persistence is coupled to RPC
//! completion**: the client learns its data is durable only after the
//! server has parsed, copied, persisted, processed, and replied. The
//! paper's durable RPCs (in the `prdma` crate) break exactly this
//! coupling.
//!
//! Everything but that schedule is one client (`common::BaselineClient`:
//! endpoints, the server-side put/get handling, journaling, naming),
//! built by one builder from a per-[`SystemKind`] table of QP transports.
//! Each system module holds only what Fig. 2 says differs — the
//! request-in and reply-out legs, as one `async fn roundtrip` over the
//! shared client (DESIGN.md §20).
//!
//! The [`SystemKind`] registry ([`build_system`]) builds any of the
//! thirteen systems behind the common [`prdma::RpcClient`] interface.

#![warn(missing_docs)]

pub mod common;
mod darpc;
mod farm;
mod fasst;
mod herd;
mod l5;
mod octopus;
mod registry;
mod rfp;
mod scalerpc;

pub use registry::{build_sharded_system, build_system, SystemKind, SystemOpts};

#[cfg(test)]
mod tests {
    use super::*;
    use prdma::{Request, ServerProfile};
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_rnic::Payload;
    use prdma_simnet::{Sim, SimTime};

    fn run_ops(kind: SystemKind, profile: ServerProfile, size: u64, ops: u64) -> SimTime {
        let mut sim = Sim::new(17);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(size, profile);
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..ops {
                let req = if i % 2 == 0 {
                    Request::Put {
                        obj: i,
                        data: Payload::synthetic(size, i),
                    }
                } else {
                    Request::Get {
                        obj: i - 1,
                        len: size,
                    }
                };
                client.call(req).await.unwrap();
            }
            h.now()
        })
    }

    #[test]
    fn every_evaluated_system_completes_a_mixed_workload() {
        for kind in SystemKind::PAPER_EVAL {
            let t = run_ops(kind, ServerProfile::light(), 1024, 10);
            assert!(t > SimTime::ZERO, "{kind:?} did no simulated work");
        }
    }

    #[test]
    fn table1_only_systems_work_too() {
        for kind in [SystemKind::Herd, SystemKind::Lite] {
            let t = run_ops(kind, ServerProfile::light(), 1024, 6);
            assert!(t > SimTime::ZERO, "{kind:?}");
        }
    }

    #[test]
    fn baseline_put_persists_real_bytes() {
        for kind in [
            SystemKind::Darpc,
            SystemKind::Farm,
            SystemKind::L5,
            SystemKind::Octopus,
        ] {
            let mut sim = Sim::new(3);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
            let opts = SystemOpts::for_object_size(4096, ServerProfile::light());
            let client = build_system(&cluster, kind, 1, 0, 0, &opts);
            let pm = cluster.node(0).pm.clone();
            sim.block_on(async move {
                client
                    .call(Request::Put {
                        obj: 2,
                        data: Payload::from_bytes(vec![0x7E; 128]),
                    })
                    .await
                    .unwrap();
            });
            // The object store is the first PM allocation; slot 2 of 4096.
            let region = cluster.node(0).alloc.lookup("objects").unwrap();
            let got = pm.read_persistent_view(region.offset + 2 * 4096, 128);
            assert_eq!(got, vec![0x7E; 128], "{kind:?}");
        }
    }

    #[test]
    fn fasst_rejects_large_objects() {
        let mut sim = Sim::new(3);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(65536, ServerProfile::light());
        let client = build_system(&cluster, SystemKind::Fasst, 1, 0, 0, &opts);
        let err = sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 0,
                    data: Payload::synthetic(65536, 0),
                })
                .await
                .err()
                .unwrap()
        });
        assert!(matches!(err, prdma::RpcError::Unsupported(_)));
    }

    #[test]
    fn durable_rpcs_beat_their_family_under_heavy_load() {
        // The paper's headline: with 100us processing, durable RPC puts
        // decouple from processing and complete much faster.
        let ops = 20;
        let t_wflush = run_ops(SystemKind::WFlush, ServerProfile::heavy(), 1024, ops);
        let t_farm = run_ops(SystemKind::Farm, ServerProfile::heavy(), 1024, ops);
        assert!(
            t_wflush < t_farm,
            "WFlush {t_wflush} !< FaRM {t_farm} under heavy load"
        );
        let t_sflush = run_ops(SystemKind::SFlush, ServerProfile::heavy(), 1024, ops);
        let t_darpc = run_ops(SystemKind::Darpc, ServerProfile::heavy(), 1024, ops);
        assert!(
            t_sflush < t_darpc,
            "SFlush {t_sflush} !< DaRPC {t_darpc} under heavy load"
        );
    }

    /// Build a 2-node cluster with `rate` injected packet loss on the
    /// given node's NIC (loss applies to messages *towards* that node,
    /// UC/UD only — RC retransmits in hardware).
    fn lossy_setup(
        seed: u64,
        kind: SystemKind,
        size: u64,
        loss: &[(usize, f64)],
    ) -> (Sim, Box<dyn prdma::RpcClient>, Cluster) {
        let sim = Sim::new(seed);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let forever = SimTime::from_nanos(u64::MAX / 2);
        for &(node, rate) in loss {
            cluster.node(node).rnic().inject_loss(rate, forever);
        }
        let opts = SystemOpts::for_object_size(size, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        (sim, client, cluster)
    }

    #[test]
    fn herd_and_fasst_ride_out_moderate_loss() {
        // 15% loss on both NICs: Herd loses UC requests (server side) and
        // UD reply fragments (client side); FaSST loses UD both ways.
        // Every op must still complete via the systems' own retries.
        for kind in [SystemKind::Herd, SystemKind::Fasst] {
            let (mut sim, client, cluster) = lossy_setup(23, kind, 512, &[(0, 0.15), (1, 0.15)]);
            let pm = cluster.node(0).pm.clone();
            sim.block_on(async move {
                for i in 0..20u64 {
                    let req = if i % 2 == 0 {
                        Request::Put {
                            obj: i % 4,
                            data: Payload::from_bytes(vec![0x40 + i as u8; 64]),
                        }
                    } else {
                        Request::Get {
                            obj: i % 4,
                            len: 64,
                        }
                    };
                    client.call(req).await.unwrap_or_else(|e| {
                        panic!("{kind:?} op {i} failed under moderate loss: {e}")
                    });
                }
            });
            // The last put's real bytes landed despite the lossy wire.
            let region = cluster.node(0).alloc.lookup("objects").unwrap();
            let got = pm.read_persistent_view(region.offset + 2 * 512, 64);
            assert_eq!(got, vec![0x40 + 18; 64], "{kind:?}");
        }
    }

    #[test]
    fn herd_total_reply_loss_errors_instead_of_hanging() {
        // Replies towards the client always drop: the reply-fragment loop
        // must give up with TimedOut, not spin forever.
        let (mut sim, client, _cluster) = lossy_setup(29, SystemKind::Herd, 512, &[(1, 1.0)]);
        let err = sim.block_on(async move {
            client
                .call(Request::Get { obj: 0, len: 64 })
                .await
                .expect_err("total reply loss cannot succeed")
        });
        assert_eq!(err, prdma::RpcError::TimedOut);
    }

    #[test]
    fn fasst_total_request_loss_times_out() {
        // Requests towards the server always drop: FaSST's bounded retry
        // must surface TimedOut (a *failure*, not an unsupported shape).
        let (mut sim, client, _cluster) = lossy_setup(31, SystemKind::Fasst, 512, &[(0, 1.0)]);
        let err = sim.block_on(async move {
            client
                .call(Request::Get { obj: 0, len: 64 })
                .await
                .expect_err("total request loss cannot succeed")
        });
        assert_eq!(err, prdma::RpcError::TimedOut);
    }

    #[test]
    fn scalerpc_is_unaffected_by_datagram_loss() {
        // ScaleRPC runs RC in both directions: injected datagram loss
        // costs at most hardware retransmits, never a failed op.
        let (mut sim, client, _cluster) =
            lossy_setup(37, SystemKind::ScaleRpc, 512, &[(0, 0.9), (1, 0.9)]);
        sim.block_on(async move {
            for i in 0..10u64 {
                let req = if i % 2 == 0 {
                    Request::Put {
                        obj: i,
                        data: Payload::synthetic(512, i),
                    }
                } else {
                    Request::Get {
                        obj: i - 1,
                        len: 512,
                    }
                };
                client.call(req).await.expect("RC rides out loss");
            }
        });
    }

    #[test]
    fn darpc_rtt_roughly_double_farm_small_objects() {
        // Fig 20: two-sided DaRPC pays ~2x the effective RTT of FaRM.
        let t_darpc = run_ops(SystemKind::Darpc, ServerProfile::light(), 64, 10);
        let t_farm = run_ops(SystemKind::Farm, ServerProfile::light(), 64, 10);
        let ratio = t_darpc.as_nanos() as f64 / t_farm.as_nanos() as f64;
        assert!(
            (1.1..3.5).contains(&ratio),
            "DaRPC/FaRM ratio {ratio} out of band"
        );
    }
}
