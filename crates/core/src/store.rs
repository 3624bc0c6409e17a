//! A fixed-slot object store over persistent memory — the "application
//! memory" the paper's RPCs ultimately serve (KV pairs, graph chunks,
//! file blocks).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use prdma_node::Node;
use prdma_pmem::{PmDevice, PmRegion, VolatileMemory};
use prdma_rnic::{Payload, RdmaError, RdmaResult};

/// Objects stored in equal-sized PM slots.
///
/// When the configured region cannot hold `object_count * slot_size`
/// (benchmarks use up to 50 K × 64 KB = 3.2 GB of *simulated* objects),
/// slots wrap modulo the region: timing stays exact while host memory stays
/// bounded. Content correctness tests use object counts that fit.
///
/// Wrapping is safe only while payloads are timing-only. Content-bearing
/// (inline) puts track which live object owns each slot they touch; an
/// inline put landing on a slot that wrapped onto a *different* live object
/// fails with [`RdmaError::SlotAliased`] instead of silently corrupting it.
/// The owner map belongs to one store and its clones. Every connection
/// [`open`](ObjectStore::open)s a store of its own, so the check covers
/// the puts one connection applies: two connections sharing a region do
/// not see each other's claims.
#[derive(Clone)]
pub struct ObjectStore {
    pm: PmDevice,
    region: PmRegion,
    slot_size: u64,
    slots_in_region: u64,
    /// slot index → global id of the live object whose content it holds.
    owners: Rc<RefCell<HashMap<u64, u64>>>,
}

impl ObjectStore {
    /// Build a store of `slot_size`-byte objects over `region`.
    pub fn new(pm: PmDevice, region: PmRegion, slot_size: u64) -> Self {
        assert!(slot_size > 0 && region.len >= slot_size, "region too small");
        ObjectStore {
            pm,
            region,
            slots_in_region: region.len / slot_size,
            slot_size,
            owners: Rc::new(RefCell::new(HashMap::new())),
        }
    }

    /// A store of `slot_size`-byte objects over `node`'s PM region `name`:
    /// the region an earlier store of that name allocated, or else a new
    /// one of `capacity` bytes (at most what the PM has left).
    pub fn open(node: &Node, name: &str, capacity: u64, slot_size: u64) -> Self {
        let region = node.alloc.lookup(name).unwrap_or_else(|| {
            let capacity = capacity.min(node.alloc.remaining());
            let region = node.alloc.alloc(name, capacity, 64);
            region.expect("PM too small for object store")
        });
        ObjectStore::new(node.pm.clone(), region, slot_size)
    }

    /// Object slots the region holds before ids wrap; size regions to
    /// `objects * slot_size` to keep content-bearing workloads below this.
    pub fn slots_in_region(&self) -> u64 {
        self.slots_in_region
    }

    /// Object slot size in bytes.
    pub fn slot_size(&self) -> u64 {
        self.slot_size
    }

    /// Device address of `obj_id`'s slot.
    pub fn addr(&self, obj_id: u64) -> u64 {
        self.region.offset + (obj_id % self.slots_in_region) * self.slot_size
    }

    /// Durably store `data` into `obj_id`'s slot (CPU-side apply path:
    /// media write time; content placed when the payload is inline).
    ///
    /// Fails with [`RdmaError::SlotAliased`] when `data` carries real
    /// content and `obj_id`'s slot wrapped onto a different live object.
    pub async fn put(&self, obj_id: u64, data: &Payload) -> RdmaResult<()> {
        if data.has_inline() {
            self.claim_slot(obj_id)?;
        }
        let len = data.len().min(self.slot_size);
        self.pm.simulate_write_time(len).await;
        let base = self.addr(obj_id);
        data.try_for_each_inline(|off, bytes| {
            if off < self.slot_size {
                let n = bytes.len().min((self.slot_size - off) as usize);
                self.pm.commit_persistent(base + off, &bytes[..n])?;
            }
            Ok(())
        })
    }

    /// Timed read of `len` bytes of each of the `count` objects from
    /// `obj_id` on (at least one: a Get is a range of one), one media read
    /// per object, in order. The payload is timing-only, as long as the
    /// bytes read.
    pub async fn read_range(&self, obj_id: u64, count: u32, len: u64) -> Payload {
        let (n, len) = (count.max(1) as u64, len.min(self.slot_size));
        for _ in 0..n {
            self.pm.simulate_read_time(len).await;
        }
        Payload::synthetic(n * len, obj_id)
    }

    /// Timed read returning real bytes (correctness paths).
    pub async fn get_bytes(&self, obj_id: u64, len: u64) -> RdmaResult<Vec<u8>> {
        let len = len.min(self.slot_size);
        let bytes = self.pm.read(self.addr(obj_id), len).await?;
        Ok(bytes)
    }

    /// Record `obj_id` as the live content owner of its slot, rejecting
    /// the claim when a different live object already occupies it.
    fn claim_slot(&self, obj_id: u64) -> RdmaResult<()> {
        let slot = obj_id % self.slots_in_region;
        let mut owners = self.owners.borrow_mut();
        match owners.get(&slot) {
            // Two distinct ids can share a slot only by wrapping.
            Some(&occupant) if occupant != obj_id => Err(RdmaError::SlotAliased {
                obj: obj_id,
                occupant,
            }),
            _ => {
                owners.insert(slot, obj_id);
                Ok(())
            }
        }
    }

    /// What `obj_id` holds in the persistence domain right now (zero-time;
    /// assertions only).
    pub fn persistent_bytes(&self, obj_id: u64, len: u64) -> Vec<u8> {
        self.pm
            .read_persistent_view(self.addr(obj_id), len.min(self.slot_size))
    }
}

/// Size of the epoch header at the start of every mirror slot.
pub const MIRROR_HEADER_BYTES: u64 = 8;

/// Published-object slots in a shard's mirror region.
pub const MIRROR_SLOTS: u64 = 1024;

/// Payload bytes per slot of a shard's mirror region (header excluded).
pub const MIRROR_VALUE_BYTES: u64 = 4096;

/// Bytes one slot of a shard's mirror region occupies in server DRAM
/// (header included).
pub const MIRROR_SLOT_BYTES: u64 = MIRROR_HEADER_BYTES + MIRROR_VALUE_BYTES;

/// A server-side DRAM mirror of hot, stable objects, readable by clients
/// with a one-sided RDMA READ (no server CPU involvement).
///
/// Each published object occupies one fixed-size slot: an 8-byte
/// little-endian lease-epoch header followed by the (synthetic) object
/// bytes. The server rewrites the header whenever a durable put bumps the
/// key's lease epoch, so a client comparing the header against its leased
/// epoch detects staleness without a server round trip and falls back to
/// the durable RPC path. Shared across clones (one region per shard
/// server); all state is `BTreeMap`-ordered for deterministic replay.
#[derive(Clone)]
pub struct MirrorRegion {
    inner: Rc<MirrorInner>,
}

struct MirrorInner {
    dram: VolatileMemory,
    base: u64,
    slot_size: u64,
    slots: u64,
    /// obj id → slot index, in publication order.
    published: RefCell<BTreeMap<u64, u64>>,
    next_slot: Cell<u64>,
}

impl MirrorRegion {
    /// A mirror of `slots` slots of `slot_size` bytes each (header
    /// included), starting at `base` in the server's DRAM.
    pub fn new(dram: VolatileMemory, base: u64, slot_size: u64, slots: u64) -> Self {
        assert!(slot_size > MIRROR_HEADER_BYTES, "slot too small for header");
        assert!(
            base + slot_size * slots <= dram.capacity(),
            "mirror region exceeds DRAM capacity"
        );
        MirrorRegion {
            inner: Rc::new(MirrorInner {
                dram,
                base,
                slot_size,
                slots,
                published: RefCell::new(BTreeMap::new()),
                next_slot: Cell::new(0),
            }),
        }
    }

    /// Payload bytes a slot can mirror (slot size minus the header).
    pub fn value_capacity(&self) -> u64 {
        self.inner.slot_size - MIRROR_HEADER_BYTES
    }

    /// Publish `obj` at `epoch`, assigning a slot on first publication.
    /// Returns the slot's DRAM address, or `None` when the region is full
    /// (callers fall back to the durable RPC path).
    pub fn publish(&self, obj: u64, epoch: u64) -> Option<u64> {
        let slot = {
            let mut published = self.inner.published.borrow_mut();
            match published.get(&obj) {
                Some(&s) => s,
                None => {
                    let s = self.inner.next_slot.get();
                    if s >= self.inner.slots {
                        return None;
                    }
                    self.inner.next_slot.set(s + 1);
                    published.insert(obj, s);
                    s
                }
            }
        };
        let addr = self.inner.base + slot * self.inner.slot_size;
        self.inner.dram.write(addr, &epoch.to_le_bytes());
        Some(addr)
    }

    /// Rewrite the epoch header of `obj`'s slot, if published. Called by
    /// the put path at epoch-bump time so in-flight mirror reads observe
    /// the revocation.
    pub fn refresh(&self, obj: u64, epoch: u64) {
        if let Some(&slot) = self.inner.published.borrow().get(&obj) {
            let addr = self.inner.base + slot * self.inner.slot_size;
            self.inner.dram.write(addr, &epoch.to_le_bytes());
        }
    }

    /// DRAM address of `obj`'s slot, if published.
    pub fn addr_of(&self, obj: u64) -> Option<u64> {
        self.inner
            .published
            .borrow()
            .get(&obj)
            .map(|&slot| self.inner.base + slot * self.inner.slot_size)
    }

    /// Objects currently published.
    pub fn published_count(&self) -> usize {
        self.inner.published.borrow().len()
    }

    /// Decode the epoch header from raw mirror-slot bytes (client side,
    /// after a one-sided read).
    pub fn decode_epoch(bytes: &[u8]) -> Option<u64> {
        bytes
            .get(..MIRROR_HEADER_BYTES as usize)
            .map(|h| u64::from_le_bytes(h.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_pmem::DaxAllocator;
    use prdma_simnet::Sim;

    fn store_fixture(sim: &Sim) -> ObjectStore {
        let tracer = prdma_simnet::Tracer::new(sim.handle());
        let pm = PmDevice::new(sim.handle(), 1 << 20, tracer, prdma_simnet::Journal::off());
        let alloc = DaxAllocator::new(&pm);
        let region = alloc.alloc("objects", 64 * 1024, 64).unwrap();
        ObjectStore::new(pm, region, 1024)
    }

    #[test]
    fn put_then_get_roundtrip() {
        let mut sim = Sim::new(1);
        let store = store_fixture(&sim);
        let s = store.clone();
        sim.block_on(async move {
            s.put(5, &Payload::from_bytes(b"object five".to_vec()))
                .await
                .unwrap();
            let bytes = s.get_bytes(5, 11).await.unwrap();
            assert_eq!(bytes, b"object five");
        });
        assert_eq!(store.persistent_bytes(5, 11), b"object five");
    }

    #[test]
    fn distinct_objects_do_not_collide_within_region() {
        let mut sim = Sim::new(1);
        let store = store_fixture(&sim);
        let s = store.clone();
        sim.block_on(async move {
            s.put(0, &Payload::from_bytes(vec![0xAA; 16]))
                .await
                .unwrap();
            s.put(1, &Payload::from_bytes(vec![0xBB; 16]))
                .await
                .unwrap();
            assert_eq!(s.get_bytes(0, 16).await.unwrap(), vec![0xAA; 16]);
            assert_eq!(s.get_bytes(1, 16).await.unwrap(), vec![0xBB; 16]);
        });
    }

    #[test]
    fn oversized_ids_wrap_instead_of_failing() {
        let mut sim = Sim::new(1);
        let store = store_fixture(&sim); // 64 slots
        let s = store.clone();
        sim.block_on(async move {
            s.put(1_000_000, &Payload::synthetic(512, 9)).await.unwrap();
        });
        assert_eq!(store.addr(1_000_000), store.addr(1_000_000 % 64));
    }

    #[test]
    fn inline_put_on_wrapped_slot_with_live_occupant_fails() {
        let mut sim = Sim::new(1);
        let store = store_fixture(&sim); // 64 slots
        let s = store.clone();
        sim.block_on(async move {
            s.put(3, &Payload::from_bytes(vec![0xAA; 16]))
                .await
                .unwrap();
            // Object 67 wraps onto object 3's slot: rejected, not corrupted.
            let err = s
                .put(67, &Payload::from_bytes(vec![0xBB; 16]))
                .await
                .unwrap_err();
            assert_eq!(
                err,
                prdma_rnic::RdmaError::SlotAliased {
                    obj: 67,
                    occupant: 3
                }
            );
            assert_eq!(s.persistent_bytes(3, 16), vec![0xAA; 16]);
            // Re-writing the live owner itself is fine.
            s.put(3, &Payload::from_bytes(vec![0xCC; 16]))
                .await
                .unwrap();
            // Timing-only payloads still wrap freely (no content at risk).
            s.put(131, &Payload::synthetic(512, 131)).await.unwrap();
        });
    }

    #[test]
    fn mirror_publish_refresh_and_capacity() {
        let dram = VolatileMemory::new(1 << 16);
        let m = MirrorRegion::new(dram.clone(), 1024, 72, 2);
        assert_eq!(m.value_capacity(), 64);
        let a = m.publish(7, 3).unwrap();
        assert_eq!(a, 1024);
        assert_eq!(MirrorRegion::decode_epoch(&dram.read(a, 8)), Some(3));
        // Re-publication keeps the slot; refresh rewrites the header.
        assert_eq!(m.publish(7, 4), Some(a));
        m.refresh(7, 5);
        assert_eq!(MirrorRegion::decode_epoch(&dram.read(a, 8)), Some(5));
        // Second slot fits, third publication is declined.
        assert_eq!(m.publish(8, 0), Some(1024 + 72));
        assert_eq!(m.publish(9, 0), None);
        assert_eq!(m.published_count(), 2);
        assert_eq!(m.addr_of(8), Some(1024 + 72));
        assert_eq!(m.addr_of(9), None);
    }

    #[test]
    fn oversized_payload_truncated_to_slot() {
        let mut sim = Sim::new(1);
        let store = store_fixture(&sim);
        let s = store.clone();
        sim.block_on(async move {
            s.put(2, &Payload::from_bytes(vec![1; 5000])).await.unwrap();
            // Slot is 1024; neighbor slot 3 must be untouched.
            assert_eq!(s.persistent_bytes(3, 8), vec![0; 8]);
        });
    }
}
