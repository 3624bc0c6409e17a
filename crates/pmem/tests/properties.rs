//! Property-based tests of the PM device's persistence semantics: for any
//! interleaving of DMA writes, cache writes, flushes, and crashes, the
//! persistence domain must behave like real PM.
//!
//! Cases are generated with the in-tree deterministic `SmallRng` rather
//! than an external property-testing framework, so the suite builds
//! offline and every failure is reproducible from the printed case seed.

use prdma_pmem::PmDevice;
use prdma_simnet::rng::SmallRng;
use prdma_simnet::{Journal, Sim, Tracer};

const CAP: u64 = 8 * 1024;

#[derive(Debug, Clone)]
enum Op {
    /// DMA straight to the persistence domain.
    DmaWrite { addr: u64, len: u64, fill: u8 },
    /// CPU store into the cache overlay.
    CacheWrite { addr: u64, len: u64, fill: u8 },
    /// Flush a range.
    Clflush { addr: u64, len: u64 },
    /// Power failure.
    Crash,
}

fn random_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..4) {
        0 => Op::DmaWrite {
            addr: rng.gen_range(0..CAP - 256),
            len: rng.gen_range(1u64..256),
            fill: rng.gen_range(0u32..=255) as u8,
        },
        1 => Op::CacheWrite {
            addr: rng.gen_range(0..CAP - 256),
            len: rng.gen_range(1u64..256),
            fill: rng.gen_range(0u32..=255) as u8,
        },
        2 => Op::Clflush {
            addr: rng.gen_range(0..CAP - 256),
            len: rng.gen_range(1u64..256),
        },
        _ => Op::Crash,
    }
}

/// A shadow model over two byte arrays (media, cache-overlay) must agree
/// with the device after any op sequence.
#[test]
fn device_matches_shadow_model() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x0DEF_ACED + case);
        let n = rng.gen_range(1usize..40);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();

        let mut sim = Sim::new(1);
        let pm = PmDevice::new(sim.handle(), CAP, Tracer::new(sim.handle()), Journal::off());
        let pm2 = pm.clone();
        let ops2 = ops.clone();

        // Shadow: media bytes + optional overlay bytes (None = clean).
        let mut media = vec![0u8; CAP as usize];
        let mut overlay: Vec<Option<u8>> = vec![None; CAP as usize];
        let line = 64usize;

        sim.block_on(async move {
            for op in ops2 {
                match op {
                    Op::DmaWrite { addr, len, fill } => {
                        pm2.dma_write_persistent(addr, &vec![fill; len as usize])
                            .await
                            .unwrap();
                    }
                    Op::CacheWrite { addr, len, fill } => {
                        pm2.cache_write(addr, &vec![fill; len as usize]).unwrap();
                    }
                    Op::Clflush { addr, len } => {
                        pm2.clflush(addr, len).await.unwrap();
                    }
                    Op::Crash => {
                        pm2.crash();
                    }
                }
            }
        });

        for op in &ops {
            match *op {
                Op::DmaWrite { addr, len, fill } => {
                    for i in addr..addr + len {
                        media[i as usize] = fill;
                        // DMA commit invalidates overlapping dirty lines.
                    }
                    let first = (addr as usize) / line;
                    let last = ((addr + len - 1) as usize) / line;
                    for l in first..=last {
                        let end = ((l + 1) * line).min(CAP as usize);
                        overlay[l * line..end].fill(None);
                    }
                }
                Op::CacheWrite { addr, len, fill } => {
                    for i in addr..addr + len {
                        overlay[i as usize] = Some(fill);
                    }
                }
                Op::Clflush { addr, len } => {
                    // Whole overlapping lines flush: every dirty byte of a
                    // line containing any address in range becomes media.
                    let first = (addr as usize) / line;
                    let last = ((addr + len - 1) as usize) / line;
                    for l in first..=last {
                        let dirty = (l * line..((l + 1) * line).min(CAP as usize))
                            .any(|b| overlay[b].is_some());
                        if dirty {
                            for b in l * line..((l + 1) * line).min(CAP as usize) {
                                if let Some(v) = overlay[b].take() {
                                    media[b] = v;
                                }
                            }
                        }
                    }
                }
                Op::Crash => {
                    overlay.fill(None);
                }
            }
        }

        // Compare persistent views byte for byte.
        let got = pm.read_persistent_view(0, CAP);
        assert_eq!(&got, &media, "case {case}: persistent view diverged");

        // Volatile view = overlay over media... except cache lines are
        // whole-line granular: a cache write pulls the whole line, so the
        // volatile view equals overlay-if-set else media (our shadow
        // tracks bytes; line pull copies media which matches either way).
        let vol = pm.read_volatile_view(0, CAP);
        for i in 0..CAP as usize {
            let want = overlay[i].unwrap_or(media[i]);
            assert_eq!(vol[i], want, "case {case}: volatile divergence at {i}");
        }
    }
}

/// `is_persisted` is monotone under clflush and crash: after flushing a
/// range (or crashing), the range reports persisted.
#[test]
fn flush_then_persisted() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xF1A5_4000 + case);
        let addr = rng.gen_range(0..CAP - 512);
        let len = rng.gen_range(1u64..512);

        let mut sim = Sim::new(2);
        let pm = PmDevice::new(sim.handle(), CAP, Tracer::new(sim.handle()), Journal::off());
        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.cache_write(addr, &vec![0xAB; len as usize]).unwrap();
            assert!(!pm2.is_persisted(addr, len));
            pm2.clflush(addr, len).await.unwrap();
            assert!(pm2.is_persisted(addr, len));
        });
        assert_eq!(
            pm.read_persistent_view(addr, len),
            vec![0xAB; len as usize],
            "case {case}"
        );
    }
}
