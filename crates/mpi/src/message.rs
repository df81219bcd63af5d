//! Message envelope, its shared payload buffer, and the tag space.

use crate::wire::{Wire, WireError};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Message tag (user tags live below [`ReservedTags::RESERVED_BASE`]).
pub type Tag = u32;

/// Reserved tag constants used by the collective implementations.
pub struct ReservedTags;

impl ReservedTags {
    /// First reserved tag; user tags must stay below this.
    pub const RESERVED_BASE: Tag = 0xF000_0000;
    /// Barrier fan-in/fan-out.
    pub const BARRIER: Tag = Self::RESERVED_BASE;
    /// Gather fan-in.
    pub const GATHER: Tag = Self::RESERVED_BASE + 2;
    /// The snapshot exchange: each rank's contribution, posted straight to
    /// the ranks that read it (and the benchmark-only allgather's fan-in
    /// and broadcast).
    pub const ALLGATHER: Tag = Self::RESERVED_BASE + 3;
}

/// An immutable byte buffer shared by reference count: a view (`start..end`)
/// into one heap buffer that any number of handles keep alive. Cloning and
/// [`Payload::slice`] bump the count and copy nothing, which is what lets a
/// rank encode its snapshot once and post that one buffer to every rank
/// that reads it, and lets a receiver cache a contribution without copying.
/// The buffer is freed when its last handle drops. Dereferences to `[u8]`.
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

/// One message in flight between two ranks of a communicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Communicator context id (isolates subgroup traffic).
    pub context: u16,
    /// Sender's rank *within that communicator's group*.
    pub src: usize,
    /// User or reserved tag.
    pub tag: Tag,
    /// Encoded payload.
    pub payload: Payload,
}

impl Envelope {
    /// Build an envelope around an owned buffer (moved in, not copied).
    pub fn new(context: u16, src: usize, tag: Tag, payload: Vec<u8>) -> Self {
        Self { context, src, tag, payload: payload.into() }
    }

    /// Does this envelope match a receive posted for `(context, src, tag)`?
    /// `src = None` means receive-from-any.
    pub fn matches(&self, context: u16, src: Option<usize>, tag: Tag) -> bool {
        self.context == context && self.tag == tag && src.is_none_or(|s| s == self.src)
    }
}

impl Envelope {
    /// Wire size of everything that precedes the payload bytes: context,
    /// source rank, tag, payload length.
    pub(crate) const HEADER_LEN: usize = 2 + 8 + 4 + 4;

    /// The [`Envelope::HEADER_LEN`] bytes that precede the payload.
    pub(crate) fn header(&self) -> [u8; Self::HEADER_LEN] {
        let mut h = [0u8; Self::HEADER_LEN];
        h[..2].copy_from_slice(&self.context.to_le_bytes());
        h[2..10].copy_from_slice(&(self.src as u64).to_le_bytes());
        h[10..14].copy_from_slice(&self.tag.to_le_bytes());
        h[14..].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        h
    }

    /// Decode a header: `(context, src, tag, payload length)`.
    pub(crate) fn decode_header(
        buf: &mut &[u8],
    ) -> Result<(u16, usize, Tag, usize), WireError> {
        Ok((
            u16::decode(buf)?,
            usize::decode(buf)?,
            Tag::decode(buf)?,
            u32::decode(buf)? as usize,
        ))
    }
}

/// Envelopes cross process boundaries on socket transports, so they encode
/// with the same little-endian codec as every payload: the header, then the
/// payload copied as one slice.
impl Wire for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.header());
        buf.extend_from_slice(&self.payload);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let (context, src, tag, len) = Self::decode_header(buf)?;
        let (body, rest) =
            buf.split_at_checked(len).ok_or(WireError::new("envelope payload"))?;
        *buf = rest;
        let payload = Payload::from(body);
        Ok(Self { context, src, tag, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_rules() {
        let env = Envelope::new(3, 2, 7, vec![1, 2, 3]);
        assert!(env.matches(3, Some(2), 7));
        assert!(env.matches(3, None, 7));
        assert!(!env.matches(4, Some(2), 7), "wrong context");
        assert!(!env.matches(3, Some(1), 7), "wrong source");
        assert!(!env.matches(3, Some(2), 8), "wrong tag");
    }

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
    fn envelope_wire_round_trip() {
        for env in [
            Envelope::new(0, 0, 0, vec![]),
            Envelope::new(7, 3, ReservedTags::ALLGATHER, vec![1, 2, 3]),
            Envelope::new(u16::MAX, usize::MAX, u32::MAX, vec![0xAB; 1024]),
        ] {
            let back = Envelope::from_bytes(&env.to_bytes()).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn envelope_decode_rejects_truncation() {
        let bytes = Envelope::new(1, 2, 3, vec![9; 16]).to_bytes();
        for cut in 0..bytes.len() {
            assert!(Envelope::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn reserved_tags_are_distinct_and_high() {
        let tags = [ReservedTags::BARRIER, ReservedTags::GATHER, ReservedTags::ALLGATHER];
        for (i, a) in tags.iter().enumerate() {
            assert!(*a >= ReservedTags::RESERVED_BASE);
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
