//! Message envelope and the tag space. The payload buffer an envelope
//! carries is the codec's [`Payload`].

use crate::wire::{Wire, WireError};
pub use lipiz_wire::Payload;

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
