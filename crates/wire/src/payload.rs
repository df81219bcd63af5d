//! [`Payload`]: the shared, immutable byte buffer every encoded message
//! travels in.

use crate::{Wire, WireError};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable byte buffer shared by reference count: a view (`start..end`)
/// into one heap buffer that any number of handles keep alive. Cloning and
/// [`Payload::slice`] bump the count and copy nothing, which is what lets a
/// rank encode its snapshot once and post that one buffer to every rank
/// that reads it, and lets a receiver keep a contribution — in a frame slot,
/// in a cache — in the buffer it arrived in. The buffer is freed when its
/// last handle drops. Dereferences to `[u8]`.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Payload {
    /// A handle on `range` of this view (indices relative to the view),
    /// sharing the same buffer.
    ///
    /// # Panics
    /// Panics if `range` does not lie inside the view.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of range");
        Payload {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Replace this handle's bytes with what `fill` appends to an empty
    /// buffer: in place when no other handle shares the buffer (no
    /// allocation once it is large enough), into a fresh buffer otherwise —
    /// so a byte another holder can see never changes. Afterwards the
    /// handle views everything `fill` wrote.
    pub fn refill(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        match Arc::get_mut(&mut self.buf) {
            Some(buf) => {
                buf.clear();
                fill(buf);
            }
            None => {
                let mut buf = Vec::new();
                fill(&mut buf);
                self.buf = Arc::new(buf);
            }
        }
        self.start = 0;
        self.end = self.buf.len();
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

/// Takes ownership of the buffer — no byte is copied.
impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        let end = bytes.len();
        Payload { buf: Arc::new(bytes), start: 0, end }
    }
}

/// Copies the bytes into a fresh buffer (the one copy a borrowed payload
/// costs, since the transport keeps it after the caller returns).
impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        bytes.to_vec().into()
    }
}

impl From<&Vec<u8>> for Payload {
    fn from(bytes: &Vec<u8>) -> Self {
        bytes.as_slice().into()
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        bytes.as_slice().into()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Payloads run to megabytes; a dump shows how much, not what.
        write!(f, "Payload({} B)", self.len())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// Same bytes on the wire as `Vec<u8>`; decoding copies into a buffer of
/// its own.
impl Wire for Payload {
    fn encode(&self, buf: &mut Vec<u8>) {
        u8::encode_slice(self, buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Vec::<u8>::decode(buf).map(Payload::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_shares_one_buffer_across_clones_and_slices() {
        let bytes: Vec<u8> = (0..32).collect();
        let at = bytes.as_ptr();
        let whole = Payload::from(bytes);
        assert_eq!(whole.as_ptr(), at, "From<Vec<u8>> must take the buffer, not copy it");
        let copy = whole.clone();
        let mid = whole.slice(8..24);
        let inner = mid.slice(4..8);
        assert_eq!(copy.as_ptr(), at);
        assert_eq!(mid.as_ptr(), at.wrapping_add(8));
        assert_eq!(inner, vec![12u8, 13, 14, 15]);
        assert!(whole.slice(32..32).is_empty());
        // The views outlive the handle they were cut from.
        drop((whole, copy, mid));
        assert_eq!(inner[0], 12);
        // A borrowed source is copied: the transport keeps it.
        let local = [1u8, 2, 3];
        assert_ne!(Payload::from(&local).as_ptr(), local.as_ptr());
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn payload_slice_is_bounds_checked() {
        let _ = Payload::from(vec![0u8; 4]).slice(2..5);
    }

    #[test]
    fn payload_is_vec_u8_on_the_wire() {
        for bytes in [vec![], vec![7u8], (0..200).collect::<Vec<u8>>()] {
            let wire = bytes.to_bytes();
            assert_eq!(Payload::from(bytes.clone()).to_bytes(), wire);
            assert_eq!(Payload::from_bytes(&wire).unwrap(), bytes);
            // A view encodes its own bytes, not the buffer it sits in.
            let padded: Vec<u8> = [&[9u8; 3][..], &bytes, &[9u8; 2]].concat();
            let view = Payload::from(padded).slice(3..3 + bytes.len());
            assert_eq!(view.to_bytes(), wire);
        }
        let mut hostile = Vec::new();
        0x8000_0000u32.encode(&mut hostile);
        assert!(Payload::from_bytes(&hostile).is_err());
    }

    #[test]
    fn refill_rewrites_a_sole_handle_in_place_and_never_a_shared_one() {
        let mut mine = Payload::from(Vec::with_capacity(64));
        mine.refill(|b| b.extend_from_slice(&[1, 2, 3]));
        let at = mine.as_ptr();
        assert_eq!(mine, vec![1u8, 2, 3]);
        // Sole handle: the same allocation, rewritten.
        mine.refill(|b| b.extend_from_slice(&[4, 5]));
        assert_eq!((mine.as_ptr(), &mine[..]), (at, &[4u8, 5][..]));
        // Shared: the other holder keeps its bytes, the refill moves out.
        let reader = mine.clone();
        mine.refill(|b| b.extend_from_slice(&[6, 7, 8, 9]));
        assert_eq!(reader, vec![4u8, 5]);
        assert_eq!(mine, vec![6u8, 7, 8, 9]);
        assert_ne!(mine.as_ptr(), reader.as_ptr());
        // A slice is a handle too, and a refill views the whole new buffer.
        let mut view = Payload::from(vec![0u8; 8]).slice(2..4);
        view.refill(|b| b.extend_from_slice(&[1; 5]));
        assert_eq!(view.len(), 5);
    }
}
