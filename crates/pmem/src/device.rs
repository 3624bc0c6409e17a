//! The persistent-memory device model.
//!
//! The model separates **volatile** state (dirty CPU cache lines holding
//! data that DDIO or a CPU store placed in the LLC) from **persistent**
//! state (bytes that have reached the media / persistence domain). A
//! [`PmDevice::crash`] call discards the volatile overlay, exactly like a
//! power failure: only what was flushed (or DMA'd directly, with DDIO off)
//! survives.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use prdma_simnet::journal::{EventKind, Journal, Subsystem, NO_ID};
use prdma_simnet::trace::{Phase, Span, Tracer};
use prdma_simnet::{FifoResource, SimDuration, SimHandle};

use crate::overlay::DirtyLines;
use crate::sparse::SparseBytes;

// Timing calibrated to a bank of Intel Optane DC Persistent Memory DIMMs
// in App Direct mode (the paper's testbed: 1 TB per server).

/// Media read latency (first access, uncached).
const READ_LATENCY: SimDuration = SimDuration::from_nanos(170);
/// Media write latency (until the write is in the persistence domain).
const WRITE_LATENCY: SimDuration = SimDuration::from_nanos(300);
/// Read bandwidth in Gbit/s (30 GB/s).
const READ_GBPS: f64 = 240.0;
/// Write bandwidth in Gbit/s: 12 GB/s over 6 interleaved DIMMs, the
/// well-known Optane write-bandwidth cap.
const WRITE_GBPS: f64 = 96.0;
/// CPU cache line size in bytes.
const CACHELINE: u64 = 64;
/// Per-line issue cost of `clflush`/`clwb` on the CPU, excluding the
/// media write it triggers.
const CLFLUSH_ISSUE: SimDuration = SimDuration::from_nanos(30);
/// Concurrent media ports (interleaved DIMMs behind one iMC).
const MEDIA_PORTS: usize = 6;

/// Errors raised by the PM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmError {
    /// Access past the end of the device.
    OutOfBounds {
        /// Requested start address.
        addr: u64,
        /// Requested length.
        len: u64,
        /// Device capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for PmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "PM access out of bounds: [{addr}, {addr}+{len}) beyond capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for PmError {}

struct PmInner {
    handle: SimHandle,
    capacity: u64,
    /// The persistence domain: survives crashes.
    media: RefCell<SparseBytes>,
    /// Volatile overlay: the dirty cache lines and their bytes. Populated
    /// by CPU stores and by DDIO-routed DMA. Lost on crash.
    dirty: RefCell<DirtyLines>,
    /// FIFO media write/read ports (bandwidth contention).
    media_port: FifoResource,
    bytes_persisted: Cell<u64>,
    crashes: Cell<u64>,
    /// The node's latency-breakdown sink.
    tracer: Tracer,
    /// The node's event journal.
    journal: Journal,
}

/// A simulated persistent-memory device. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct PmDevice {
    inner: Rc<PmInner>,
}

impl PmDevice {
    /// Create a device of `capacity` bytes on the given simulation,
    /// recording media service time as [`Phase::PmMedia`] into `tracer`
    /// and every commit of bytes to the persistence domain as a `PmWrite`
    /// into `journal`.
    pub fn new(handle: SimHandle, capacity: u64, tracer: Tracer, journal: Journal) -> Self {
        let media_port = FifoResource::new(handle.clone(), MEDIA_PORTS);
        PmDevice {
            inner: Rc::new(PmInner {
                handle,
                capacity,
                media: RefCell::new(SparseBytes::new(capacity)),
                dirty: RefCell::new(DirtyLines::new(CACHELINE)),
                media_port,
                bytes_persisted: Cell::new(0),
                crashes: Cell::new(0),
                tracer,
                journal,
            }),
        }
    }

    /// The node's tracer (lets layers above the device — e.g. the RNIC
    /// and the redo log — record their phases against the same sink).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    fn media_span(&self) -> Span {
        self.inner.tracer.span(Phase::PmMedia)
    }

    /// The node's journal (lets layers above the device record their
    /// events against the same sink).
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Journal a commit of `bytes` into the persistence domain. Kept in
    /// lockstep with the `bytes_persisted` accounting.
    fn jot_pm_write(&self, bytes: u64) {
        let j = &self.inner.journal;
        j.record(Subsystem::Pm, EventKind::PmWrite, NO_ID, NO_ID, bytes);
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    fn check(&self, addr: u64, len: u64) -> Result<(), PmError> {
        let capacity = self.inner.capacity;
        if addr.checked_add(len).is_none_or(|end| end > capacity) {
            Err(PmError::OutOfBounds {
                addr,
                len,
                capacity,
            })
        } else {
            Ok(())
        }
    }

    /// Time the media needs to absorb a write of `len` bytes.
    pub fn media_write_time(&self, len: u64) -> SimDuration {
        WRITE_LATENCY + prdma_simnet::transfer_time(len, WRITE_GBPS)
    }

    /// Time the media needs to produce a read of `len` bytes.
    pub fn media_read_time(&self, len: u64) -> SimDuration {
        READ_LATENCY + prdma_simnet::transfer_time(len, READ_GBPS)
    }

    /// DMA a buffer straight into the persistence domain (the DDIO-disabled
    /// RNIC path). Resolves once the data is durable.
    pub async fn dma_write_persistent(&self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.check(addr, data.len() as u64)?;
        let t = self.media_write_time(data.len() as u64);
        {
            let _span = self.media_span();
            self.inner.media_port.process(t).await;
        }
        // DMA snoops the cache: overlapping dirty lines are invalidated
        // (commit_persistent does both the media write and the snoop).
        self.commit_persistent(addr, data)?;
        self.inner
            .bytes_persisted
            .set(self.inner.bytes_persisted.get() + data.len() as u64);
        self.jot_pm_write(data.len() as u64);
        Ok(())
    }

    /// Model the *time* of a durable write of `len` bytes without touching
    /// contents — used for synthetic benchmark payloads, where only the
    /// schedule matters. Occupies a media port like a real write.
    pub async fn simulate_write_time(&self, len: u64) {
        let t = self.media_write_time(len);
        {
            let _span = self.media_span();
            self.inner.media_port.process(t).await;
        }
        self.inner
            .bytes_persisted
            .set(self.inner.bytes_persisted.get() + len);
        self.jot_pm_write(len);
    }

    /// Place content in the persistence domain with zero simulated time —
    /// for callers that account the media time separately via
    /// [`simulate_write_time`](Self::simulate_write_time) (e.g. a DMA
    /// engine placing the inline parts of a composite payload).
    pub fn commit_persistent(&self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.check(addr, data.len() as u64)?;
        self.inner.media.borrow_mut().write(addr, data);
        // Drop any dirty cache lines shadowing this range so the volatile
        // view agrees with the media. This runs on every DMA placement.
        // The overlay is rarely empty (a completed log slot keeps its
        // done-state line dirty until the slot is reused) but the range
        // placed is almost always clean, so the common case is a few
        // words of the dirty bitset read and nothing else.
        if let Some((first, last)) = self.lines(addr, data.len() as u64) {
            let mut dirty = self.inner.dirty.borrow_mut();
            dirty.remove_range(first, last, |_, _| {});
        }
        Ok(())
    }

    /// Model the time of a media read of `len` bytes without copying.
    pub async fn simulate_read_time(&self, len: u64) {
        let t = self.media_read_time(len);
        let _span = self.media_span();
        self.inner.media_port.process(t).await;
    }

    /// Model the time of a `clflush` over `len` dirty bytes without content
    /// bookkeeping (synthetic payload path, DDIO enabled).
    pub async fn simulate_clflush_time(&self, len: u64) {
        if len == 0 {
            return;
        }
        let _span = self.media_span();
        let lines = len.div_ceil(CACHELINE);
        self.inner.handle.sleep(CLFLUSH_ISSUE * lines).await;
        let t = self.media_write_time(lines * CACHELINE);
        self.inner.media_port.process(t).await;
        self.inner
            .bytes_persisted
            .set(self.inner.bytes_persisted.get() + lines * CACHELINE);
        self.jot_pm_write(lines * CACHELINE);
    }

    /// A CPU store (or DDIO-routed DMA): lands in the volatile cache
    /// overlay instantly. The *caller* accounts for CPU/DMA time; durability
    /// requires a subsequent [`clflush`](Self::clflush).
    pub fn cache_write(&self, addr: u64, data: &[u8]) -> Result<(), PmError> {
        self.check(addr, data.len() as u64)?;
        let mut dirty = self.inner.dirty.borrow_mut();
        let media = self.inner.media.borrow();
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let lineno = a / CACHELINE;
            let in_line = (a - lineno * CACHELINE) as usize;
            let n = (CACHELINE as usize - in_line).min(data.len() - off);
            // A line dirtied here starts from what the media holds.
            let bytes = dirty.dirty(lineno, |fresh| media.read_into(lineno * CACHELINE, fresh));
            bytes[in_line..in_line + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Flush every cache line overlapping `[addr, addr+len)` to the media
    /// (`clflush`/`clwb` + the media write). Resolves when durable.
    pub async fn clflush(&self, addr: u64, len: u64) -> Result<(), PmError> {
        if len == 0 {
            return Ok(());
        }
        self.check(addr, len)?;
        // Take the dirty lines in range (they may be sparse) out of the
        // overlay first: line numbers, and their bytes back to back.
        let (mut linenos, mut flushed) = (Vec::new(), Vec::new());
        let (first, last) = self.lines(addr, len).expect("len > 0");
        self.inner
            .dirty
            .borrow_mut()
            .remove_range(first, last, |lineno, bytes| {
                linenos.push(lineno);
                flushed.extend_from_slice(bytes);
            });
        if linenos.is_empty() {
            return Ok(());
        }
        let _span = self.media_span();
        // Issue cost per line on the CPU, then one media transfer.
        let issue = CLFLUSH_ISSUE * linenos.len() as u64;
        self.inner.handle.sleep(issue).await;
        let t = self.media_write_time(flushed.len() as u64);
        self.inner.media_port.process(t).await;
        for (lineno, data) in linenos.iter().zip(flushed.chunks_exact(CACHELINE as usize)) {
            self.commit_to_media(lineno * CACHELINE, data);
        }
        Ok(())
    }

    /// Timed read: cached lines are free, uncached bytes pay media latency.
    pub async fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, PmError> {
        self.check(addr, len)?;
        let cached = self.covered_by_cache(addr, len);
        if !cached {
            let t = self.media_read_time(len);
            let _span = self.media_span();
            self.inner.media_port.process(t).await;
        }
        Ok(self.read_volatile_view(addr, len))
    }

    /// What the CPU would see right now (cache overlay over media);
    /// zero-time, for protocol logic and assertions.
    pub fn read_volatile_view(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = self.inner.media.borrow().read(addr, len);
        self.overlay_onto(addr, &mut out);
        out
    }

    /// [`read_volatile_view`](Self::read_volatile_view) into `out`, for
    /// fixed-size reads on a hot path (a log header, a commit word).
    pub fn copy_volatile_view(&self, addr: u64, out: &mut [u8]) {
        self.inner.media.borrow().read_into(addr, out);
        self.overlay_onto(addr, out);
    }

    /// Lay the dirty lines overlapping `[addr, addr + out.len())` over
    /// `out`, which holds the media's bytes for that range.
    fn overlay_onto(&self, addr: u64, out: &mut [u8]) {
        let len = out.len() as u64;
        let Some((first, last)) = self.lines(addr, len) else {
            return;
        };
        let dirty = self.inner.dirty.borrow();
        for (lineno, bytes) in dirty.in_range(first, last) {
            let line_base = lineno * CACHELINE;
            // overlap of [line_base, line_base+CACHELINE) with [addr, addr+len)
            let lo = line_base.max(addr);
            let hi = (line_base + CACHELINE).min(addr + len);
            let src = (lo - line_base) as usize..(hi - line_base) as usize;
            let dst = (lo - addr) as usize..(hi - addr) as usize;
            out[dst].copy_from_slice(&bytes[src]);
        }
    }

    /// What would survive a crash right now (media only); zero-time.
    pub fn read_persistent_view(&self, addr: u64, len: u64) -> Vec<u8> {
        self.inner.media.borrow().read(addr, len)
    }

    /// [`read_persistent_view`](Self::read_persistent_view) into `out`.
    pub fn copy_persistent_view(&self, addr: u64, out: &mut [u8]) {
        self.inner.media.borrow().read_into(addr, out);
    }

    /// True iff no dirty (unflushed) cache line overlaps `[addr, addr+len)`.
    pub fn is_persisted(&self, addr: u64, len: u64) -> bool {
        self.lines(addr, len).is_none_or(|(first, last)| {
            self.inner
                .dirty
                .borrow()
                .in_range(first, last)
                .next()
                .is_none()
        })
    }

    /// Power failure: every dirty cache line is lost; media is retained.
    pub fn crash(&self) {
        self.inner.dirty.borrow_mut().clear();
        self.inner.crashes.set(self.inner.crashes.get() + 1);
    }

    /// Total bytes committed to the persistence domain.
    pub fn bytes_persisted(&self) -> u64 {
        self.inner.bytes_persisted.get()
    }

    /// Accumulated media-port busy time (write/flush/read service time) —
    /// used by latency-breakdown accounting.
    pub fn media_busy_time(&self) -> SimDuration {
        self.inner.media_port.busy_time()
    }

    /// Number of crashes injected so far.
    pub fn crashes(&self) -> u64 {
        self.inner.crashes.get()
    }

    fn commit_to_media(&self, addr: u64, data: &[u8]) {
        self.inner.media.borrow_mut().write(addr, data);
        self.inner
            .bytes_persisted
            .set(self.inner.bytes_persisted.get() + data.len() as u64);
        self.jot_pm_write(data.len() as u64);
    }

    fn covered_by_cache(&self, addr: u64, len: u64) -> bool {
        self.lines(addr, len).is_none_or(|(first, last)| {
            let dirty = self.inner.dirty.borrow();
            (first..=last).all(|l| dirty.contains(l))
        })
    }

    /// First and last cache line of `[addr, addr+len)`; `None` when empty.
    fn lines(&self, addr: u64, len: u64) -> Option<(u64, u64)> {
        (len > 0).then(|| (addr / CACHELINE, (addr + len - 1) / CACHELINE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_simnet::Sim;

    fn small_device(sim: &Sim) -> PmDevice {
        device(sim, 1 << 20)
    }

    fn device(sim: &Sim, capacity: u64) -> PmDevice {
        PmDevice::new(
            sim.handle(),
            capacity,
            Tracer::new(sim.handle()),
            Journal::off(),
        )
    }

    #[test]
    fn dma_write_is_immediately_persistent() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.dma_write_persistent(100, b"hello").await.unwrap();
        });
        assert_eq!(pm.read_persistent_view(100, 5), b"hello");
        pm.crash();
        assert_eq!(pm.read_persistent_view(100, 5), b"hello");
    }

    #[test]
    fn dma_write_takes_media_time() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let h = sim.handle();
        let t = sim.block_on(async move {
            pm.dma_write_persistent(0, &[0u8; 8192]).await.unwrap();
            h.now()
        });
        // 300ns latency + 8192B at 12 GB/s (~683ns transfer)
        assert!(t.as_nanos() > 900, "t = {t:?}");
    }

    #[test]
    fn cache_write_is_volatile_until_flushed() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        pm.cache_write(4096, b"dirty").unwrap();
        assert_eq!(pm.read_volatile_view(4096, 5), b"dirty");
        assert_ne!(pm.read_persistent_view(4096, 5), b"dirty");
        assert!(!pm.is_persisted(4096, 5));

        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.clflush(4096, 5).await.unwrap();
        });
        assert!(pm.is_persisted(4096, 5));
        assert_eq!(pm.read_persistent_view(4096, 5), b"dirty");
    }

    #[test]
    fn crash_drops_dirty_lines() {
        let sim = Sim::new(1);
        let pm = small_device(&sim);
        pm.cache_write(0, b"will-be-lost").unwrap();
        pm.crash();
        assert_eq!(pm.read_volatile_view(0, 12), vec![0u8; 12]);
        assert_eq!(pm.crashes(), 1);
    }

    #[test]
    fn cache_write_spanning_lines_preserves_neighbors() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.block_on(async move {
            // Persist a baseline, then dirty a range crossing a 64B boundary.
            pm2.dma_write_persistent(0, &[0xAA; 192]).await.unwrap();
            pm2.cache_write(60, &[0xBB; 8]).unwrap();
            pm2.clflush(60, 8).await.unwrap();
        });
        let got = pm.read_persistent_view(56, 16);
        assert_eq!(&got[..4], &[0xAA; 4]);
        assert_eq!(&got[4..12], &[0xBB; 8]);
        assert_eq!(&got[12..], &[0xAA; 4]);
    }

    #[test]
    fn clflush_of_clean_range_is_noop() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let h = sim.handle();
        let pm2 = pm.clone();
        let t = sim.block_on(async move {
            pm2.clflush(0, 4096).await.unwrap();
            h.now()
        });
        assert_eq!(t.as_nanos(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let sim = Sim::new(1);
        let pm = small_device(&sim);
        let cap = pm.capacity();
        assert!(matches!(
            pm.cache_write(cap - 2, b"xyz"),
            Err(PmError::OutOfBounds { .. })
        ));
        // overflow-safe
        assert!(pm.check(u64::MAX, 2).is_err());
    }

    #[test]
    fn timed_read_pays_media_latency_when_uncached() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let h = sim.handle();
        let pm2 = pm.clone();
        let (t_uncached, t_cached) = sim.block_on(async move {
            let t0 = h.now();
            pm2.read(0, 64).await.unwrap();
            let t1 = h.now();
            pm2.cache_write(128, &[1; 64]).unwrap();
            let t2 = h.now();
            pm2.read(128, 64).await.unwrap();
            let t3 = h.now();
            (t1 - t0, t3 - t2)
        });
        assert!(t_uncached.as_nanos() >= 170);
        assert_eq!(t_cached.as_nanos(), 0);
    }

    #[test]
    fn device_outlives_a_dropped_sim() {
        // A task parked forever holds a device clone (and, through it, a
        // `SimHandle`). Dropping the `Sim` must free the task's clone; the
        // clone the test kept still reads the persisted bytes.
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.spawn(async move {
            pm2.dma_write_persistent(64, b"kept").await.unwrap();
            prdma_simnet::Notify::new().notified().await;
        });
        sim.run();
        assert_eq!(Rc::strong_count(&pm.inner), 2);
        drop(sim);
        assert_eq!(Rc::strong_count(&pm.inner), 1, "parked task leaked");
        assert_eq!(pm.read_persistent_view(64, 4), b"kept");
    }

    /// The overlay this device had before `DirtyLines` — an ordered map
    /// from line number to line bytes over a flat media image — kept as
    /// the reference the device is checked against.
    struct MapModel {
        line: u64,
        media: Vec<u8>,
        dirty: std::collections::BTreeMap<u64, Vec<u8>>,
        bytes_persisted: u64,
    }

    impl MapModel {
        fn lines(&self, addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
            addr / self.line..=(addr + len - 1) / self.line
        }

        fn commit_persistent(&mut self, addr: u64, data: &[u8]) {
            self.media[addr as usize..][..data.len()].copy_from_slice(data);
            if !data.is_empty() {
                let lines = self.lines(addr, data.len() as u64);
                self.dirty.retain(|l, _| !lines.contains(l));
            }
        }

        fn cache_write(&mut self, addr: u64, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                let a = addr + i as u64;
                let base = (a / self.line * self.line) as usize;
                let bytes = self
                    .dirty
                    .entry(a / self.line)
                    .or_insert_with(|| self.media[base..base + self.line as usize].to_vec());
                bytes[a as usize - base] = b;
            }
        }

        fn clflush(&mut self, addr: u64, len: u64) {
            if len == 0 {
                return;
            }
            for l in self.lines(addr, len) {
                if let Some(bytes) = self.dirty.remove(&l) {
                    self.media[(l * self.line) as usize..][..bytes.len()].copy_from_slice(&bytes);
                    self.bytes_persisted += self.line;
                }
            }
        }

        fn volatile_view(&self, addr: u64, len: u64) -> Vec<u8> {
            let mut out = self.media[addr as usize..(addr + len) as usize].to_vec();
            if len == 0 {
                return out;
            }
            for (&l, bytes) in self.dirty.range(self.lines(addr, len)) {
                for (i, &b) in bytes.iter().enumerate() {
                    let a = l * self.line + i as u64;
                    if (addr..addr + len).contains(&a) {
                        out[(a - addr) as usize] = b;
                    }
                }
            }
            out
        }

        fn is_persisted(&self, addr: u64, len: u64) -> bool {
            len == 0 || self.dirty.range(self.lines(addr, len)).next().is_none()
        }
    }

    #[test]
    fn overlay_matches_the_btreemap_model_under_random_ops() {
        use prdma_simnet::rng::SmallRng;
        // Three bitset chunks (4 096 lines of 64 B each) and two lines of
        // a fourth; ops cluster around the chunk seams and both ends.
        const CAPACITY: u64 = 3 * 4096 * 64 + 128;
        const WINDOW: u64 = 1024;
        let windows = [0, 4096 * 64 - 500, 2 * 4096 * 64 - 300, CAPACITY - WINDOW];
        for case in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0x0D1E_0000 + case);
            let mut sim = Sim::new(case);
            let pm = device(&sim, CAPACITY);
            let mut model = MapModel {
                line: CACHELINE,
                media: vec![0; CAPACITY as usize],
                dirty: Default::default(),
                bytes_persisted: 0,
            };
            for step in 0..1_500 {
                let window = windows[rng.gen_range(0..windows.len())];
                let len = match rng.gen_range(0..8u64) {
                    0 => 0,
                    1..=5 => rng.gen_range(1..=16u64),
                    _ => rng.gen_range(17..=300u64),
                };
                let addr = window + rng.gen_range(0..=WINDOW - len);
                let data: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
                match rng.gen_range(0..32u64) {
                    0 => {
                        pm.crash();
                        model.dirty.clear();
                    }
                    1..=14 => {
                        pm.cache_write(addr, &data).unwrap();
                        model.cache_write(addr, &data);
                    }
                    15..=22 => {
                        let pm2 = pm.clone();
                        sim.block_on(async move { pm2.clflush(addr, len).await.unwrap() });
                        model.clflush(addr, len);
                    }
                    _ => {
                        pm.commit_persistent(addr, &data).unwrap();
                        model.commit_persistent(addr, &data);
                    }
                }
                let at = format!("case {case} step {step}");
                // The window just touched every step, all four now and then.
                for w in windows
                    .into_iter()
                    .filter(|&w| w == window || step % 32 == 0)
                {
                    assert_eq!(
                        pm.read_volatile_view(w, WINDOW),
                        model.volatile_view(w, WINDOW),
                        "{at}: volatile view of window {w}"
                    );
                    assert_eq!(
                        pm.read_persistent_view(w, WINDOW),
                        model.media[w as usize..(w + WINDOW) as usize],
                        "{at}: persistent view of window {w}"
                    );
                }
                assert_eq!(
                    pm.is_persisted(addr, len),
                    model.is_persisted(addr, len),
                    "{at}"
                );
                let probe = window + rng.gen_range(0..WINDOW);
                assert_eq!(
                    pm.is_persisted(probe, 1),
                    model.is_persisted(probe, 1),
                    "{at}"
                );
                assert_eq!(pm.is_persisted(0, CAPACITY), model.dirty.is_empty(), "{at}");
                assert_eq!(pm.bytes_persisted(), model.bytes_persisted, "{at}");
            }
            assert_eq!(
                pm.read_volatile_view(0, CAPACITY),
                model.volatile_view(0, CAPACITY)
            );
            assert_eq!(pm.read_persistent_view(0, CAPACITY), model.media);
        }
    }

    #[test]
    fn bytes_persisted_accounting() {
        let mut sim = Sim::new(1);
        let pm = small_device(&sim);
        let pm2 = pm.clone();
        sim.block_on(async move {
            pm2.dma_write_persistent(0, &[1; 100]).await.unwrap();
            pm2.cache_write(200, &[2; 10]).unwrap();
            pm2.clflush(200, 10).await.unwrap();
        });
        // 100 direct + one 64B flushed line
        assert_eq!(pm.bytes_persisted(), 164);
    }
}
