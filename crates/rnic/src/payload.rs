//! Message payloads.
//!
//! Correctness tests carry real bytes end to end; benchmark workloads use
//! synthetic payloads that carry only a length and an identity tag, so a
//! 300 K-operation 64 KB experiment costs no memory traffic in the host —
//! only simulated time.

use std::rc::Rc;

/// A message payload: real bytes, a synthetic (length, tag) marker, or a
/// sequential composition of both (e.g. a real log-entry header followed by
/// a synthetic data body, carried in one RDMA write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Actual content, shared without copying.
    Inline(Rc<[u8]>),
    /// Timing-only payload: `len` simulated bytes identified by `tag`.
    Synthetic {
        /// Simulated payload size in bytes.
        len: u64,
        /// Application-chosen identity (e.g. object id) for assertions.
        tag: u64,
    },
    /// Parts laid out back to back at the destination.
    Composite(Rc<[Payload]>),
}

impl Payload {
    /// A payload from owned bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Payload::Inline(bytes.into())
    }

    /// A payload holding a copy of `bytes`, in one allocation.
    pub fn from_slice(bytes: &[u8]) -> Self {
        Payload::Inline(bytes.into())
    }

    /// A timing-only payload of `len` bytes tagged `tag`.
    pub fn synthetic(len: u64, tag: u64) -> Self {
        Payload::Synthetic { len, tag }
    }

    /// A composite payload from parts laid out back to back.
    pub fn composite(parts: Vec<Payload>) -> Self {
        Payload::Composite(parts.into())
    }

    /// [`composite`](Self::composite) of a fixed number of parts, in one
    /// allocation.
    pub fn composite_of<const N: usize>(parts: [Payload; N]) -> Self {
        Payload::Composite(Rc::new(parts))
    }

    /// Payload size in (simulated) bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(b) => b.len() as u64,
            Payload::Synthetic { len, .. } => *len,
            Payload::Composite(parts) => parts.iter().map(Payload::len).sum(),
        }
    }

    /// True if the payload is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, if this payload carries real content.
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Payload::Inline(b) => Some(b),
            Payload::Synthetic { .. } | Payload::Composite(_) => None,
        }
    }

    /// The identity tag of a synthetic payload.
    pub fn tag(&self) -> Option<u64> {
        match self {
            Payload::Inline(_) | Payload::Composite(_) => None,
            Payload::Synthetic { tag, .. } => Some(*tag),
        }
    }

    /// Hand `place` every inline content span as `(offset, bytes)` relative
    /// to the payload start, in layout order — what a DMA engine must
    /// actually put in memory — stopping at its first error. Borrows the
    /// spans where they are; nothing is collected.
    pub fn try_for_each_inline<'a, E>(
        &'a self,
        mut place: impl FnMut(u64, &'a [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.visit_inline(0, &mut place)
    }

    fn visit_inline<'a, E>(
        &'a self,
        base: u64,
        place: &mut impl FnMut(u64, &'a [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Payload::Inline(b) => place(base, b),
            Payload::Synthetic { .. } => Ok(()),
            Payload::Composite(parts) => {
                let mut off = base;
                for p in parts.iter() {
                    p.visit_inline(off, place)?;
                    off += p.len();
                }
                Ok(())
            }
        }
    }

    /// Whether any part carries real content.
    pub fn has_inline(&self) -> bool {
        self.try_for_each_inline(|_, _| Err(())).is_err()
    }

    /// The spans [`try_for_each_inline`](Self::try_for_each_inline)
    /// visits, collected (for tests that index or slice them).
    pub fn inline_parts(&self) -> Vec<(u64, &[u8])> {
        let mut out = Vec::new();
        let _ = self.try_for_each_inline(|off, bytes| {
            out.push((off, bytes));
            Ok::<(), std::convert::Infallible>(())
        });
        out
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::from_slice(v)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_payload_exposes_bytes() {
        let p = Payload::from_bytes(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(p.tag(), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn synthetic_payload_has_len_and_tag_only() {
        let p = Payload::synthetic(65536, 42);
        assert_eq!(p.len(), 65536);
        assert_eq!(p.bytes(), None);
        assert_eq!(p.tag(), Some(42));
    }

    #[test]
    fn inline_spans_are_visited_in_layout_order_until_an_error() {
        let nested = Payload::composite(vec![
            Payload::from_bytes(vec![1; 3]),
            Payload::synthetic(100, 0),
            Payload::composite(vec![
                Payload::synthetic(5, 0),
                Payload::from_bytes(vec![2; 4]),
            ]),
            Payload::from_bytes(vec![3; 2]),
        ]);
        assert_eq!(
            nested.inline_parts(),
            [(0, &[1u8; 3][..]), (108, &[2; 4]), (112, &[3; 2])]
        );
        let mut seen = Vec::new();
        let stopped = nested.try_for_each_inline(|off, _| {
            seen.push(off);
            if off == 108 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!((stopped, seen), (Err("stop"), vec![0, 108]));
        assert!(nested.has_inline());
        assert!(!Payload::composite(vec![Payload::synthetic(9, 1)]).has_inline());
    }

    #[test]
    fn clone_shares_inline_bytes() {
        let p = Payload::from_bytes(vec![9; 1000]);
        let q = p.clone();
        if let (Payload::Inline(a), Payload::Inline(b)) = (&p, &q) {
            assert!(Rc::ptr_eq(a, b));
        } else {
            panic!("expected inline payloads");
        }
    }
}
