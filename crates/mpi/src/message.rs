//! Message envelope and tag space.

use crate::wire::{Wire, WireError};
use bytes::{Buf, BufMut};

/// Message tag (user tags live below [`ReservedTags::RESERVED_BASE`]).
pub type Tag = u32;

/// Reserved tag constants used by the collective implementations.
pub struct ReservedTags;

impl ReservedTags {
    /// First reserved tag; user tags must stay below this.
    pub const RESERVED_BASE: Tag = 0xF000_0000;
    /// Barrier fan-in/fan-out.
    pub const BARRIER: Tag = Self::RESERVED_BASE;
    /// Broadcast payloads.
    pub const BCAST: Tag = Self::RESERVED_BASE + 1;
    /// Gather fan-in.
    pub const GATHER: Tag = Self::RESERVED_BASE + 2;
    /// Allgather = gather + bcast second phase.
    pub const ALLGATHER: Tag = Self::RESERVED_BASE + 3;
    /// Reduce fan-in.
    pub const REDUCE: Tag = Self::RESERVED_BASE + 4;
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
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Build an envelope.
    pub fn new(context: u16, src: usize, tag: Tag, payload: Vec<u8>) -> Self {
        Self { context, src, tag, payload }
    }

    /// Does this envelope match a receive posted for `(context, src, tag)`?
    /// `src = None` means receive-from-any.
    pub fn matches(&self, context: u16, src: Option<usize>, tag: Tag) -> bool {
        self.context == context && self.tag == tag && src.is_none_or(|s| s == self.src)
    }
}

/// Envelopes cross process boundaries on socket transports, so they encode
/// with the same little-endian codec as every payload. The payload gets a
/// `u32` length prefix and is copied as one slice (not element-wise) — this
/// is the hot path of the TCP transport.
impl Wire for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.context.encode(buf);
        self.src.encode(buf);
        self.tag.encode(buf);
        (self.payload.len() as u32).encode(buf);
        buf.put_slice(&self.payload);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let context = u16::decode(buf)?;
        let src = usize::decode(buf)?;
        let tag = Tag::decode(buf)?;
        let len = u32::decode(buf)? as usize;
        if buf.remaining() < len {
            return Err(WireError::new("envelope payload"));
        }
        let payload = buf[..len].to_vec();
        buf.advance(len);
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
        let tags = [
            ReservedTags::BARRIER,
            ReservedTags::BCAST,
            ReservedTags::GATHER,
            ReservedTags::ALLGATHER,
            ReservedTags::REDUCE,
        ];
        for (i, a) in tags.iter().enumerate() {
            assert!(*a >= ReservedTags::RESERVED_BASE);
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
