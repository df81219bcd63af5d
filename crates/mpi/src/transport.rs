//! The delivery-substrate abstraction behind [`crate::comm::Comm`], plus the
//! stream framing shared by socket transports.
//!
//! A [`Transport`] moves [`Envelope`]s between world ranks and hands each
//! rank a [`Mailbox`] for selective receives. Two implementations exist:
//!
//! * [`crate::comm::Fabric`] — the in-process fabric (every rank is a thread
//!   of one OS process, one mailbox per rank);
//! * [`crate::tcp::TcpFabric`] — a real multi-process transport (every rank
//!   is an OS process, envelopes travel as length-prefixed frames over TCP).
//!
//! Everything above this layer — communicators, collectives, the master/
//! slave runtime — is transport-agnostic, which is what lets the
//! `driver_equivalence` and `distributed_process` suites prove the two
//! backends byte-identical.
//!
//! # Framing, and how a payload byte moves through it
//!
//! A frame is `[u32-le body length][envelope header][payload]`
//! ([`encode_frame`] is the definition). An envelope's payload is a shared
//! [`crate::message::Payload`], and neither side of a socket stages a
//! frame: the sender writes the 22 header bytes and the payload — wherever
//! it lives, typically a snapshot other links are sending too — with one
//! vectored write, and [`FrameDecoder`] copies arriving payload
//! bytes straight into the buffer the decoded envelope will own, growing it
//! only as bytes arrive. [`MAX_FRAME_LEN`] is enforced by both ends.

use crate::endpoint::Mailbox;
use crate::fault::FaultState;
use crate::message::Envelope;
use crate::wire::{Wire, WireError};
use std::collections::VecDeque;
use std::fmt;

/// An envelope-delivery substrate for one universe of world ranks.
///
/// Implementations must be safe to use from every thread of a rank
/// concurrently (the slave runtime sends from two threads at once).
pub trait Transport: fmt::Debug + Send + Sync {
    /// Number of world ranks in the universe.
    fn world_size(&self) -> usize;

    /// Deliver `env` to world rank `dst`. Delivery to an unreachable peer
    /// (e.g. a disconnected TCP slave) drops the envelope silently — the
    /// runtime's heartbeat deadline, not the transport, reports dead peers.
    fn deliver(&self, dst: usize, env: Envelope);

    /// The receive mailbox of world rank `r`.
    ///
    /// # Panics
    /// Socket transports host only their own rank and panic for any other
    /// `r`; the in-process fabric hosts all ranks.
    fn mailbox(&self, r: usize) -> &Mailbox;

    /// The installed fault-injection state, if this universe runs under a
    /// [`crate::fault::FaultPlan`]. The communicator consults it on every
    /// outgoing envelope; `None` (the default) means a fault-free universe
    /// with zero per-send overhead beyond this call.
    fn fault_state(&self) -> Option<&FaultState> {
        None
    }

    /// Transport hook fired when the fault layer severs the `src -> dst`
    /// direction: in-process fabrics mark the receiver's mailbox so blocked
    /// receives fail as [`crate::endpoint::PeerLost`], exactly like a torn
    /// TCP connection would on a socket transport. Default: no-op.
    fn note_severed(&self, _dst_world: usize, _src_world: usize) {}

    /// Arm fault injection after construction (no-op default). Ranks of a
    /// multi-process universe learn their [`crate::fault::FaultPlan`] from
    /// the wire configuration, which only arrives once the transport is
    /// already bootstrapped; implementations install the plan at most once
    /// and ignore empty plans.
    fn install_fault_plan(&self, _plan: crate::fault::FaultPlan) {}
}

/// Upper bound on a frame body, enforced on both sides: a sender refuses to
/// write a larger frame ([`encode_frame`] panics) and a receiver rejects a
/// larger length prefix before buffering anything for it. The largest
/// message a run sends is one encoded snapshot (2,203,757 bytes at Table-I
/// size) or one slave's `SlaveResult` — neither grows with the grid, so
/// this bound limits no grid size; it exists to refuse a hostile or corrupt
/// length prefix.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Bytes of a frame that precede the payload: the `u32` body length, then
/// the envelope header.
pub(crate) const FRAME_HEADER_LEN: usize = 4 + Envelope::HEADER_LEN;

/// The [`FRAME_HEADER_LEN`] bytes that open `env`'s frame, or the body
/// length when it exceeds [`MAX_FRAME_LEN`] (nothing may be written then:
/// the receiver would drop the connection and the sender never learn why).
pub(crate) fn frame_header(env: &Envelope) -> Result<[u8; FRAME_HEADER_LEN], usize> {
    let body_len = Envelope::HEADER_LEN + env.payload.len();
    if body_len > MAX_FRAME_LEN {
        return Err(body_len);
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    header[4..].copy_from_slice(&env.header());
    Ok(header)
}

/// Append one length-prefixed frame carrying `env` to `out`:
/// `[u32-le body length][body = Envelope wire encoding]`.
///
/// # Panics
/// Panics if the body exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(env: &Envelope, out: &mut Vec<u8>) {
    let header = frame_header(env).unwrap_or_else(|len| {
        panic!("frame body of {len} B exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN} B)")
    });
    out.extend_from_slice(&header);
    out.extend_from_slice(&env.payload);
}

/// The frame whose payload is still arriving.
#[derive(Debug)]
struct PartialFrame {
    context: u16,
    src: usize,
    tag: crate::message::Tag,
    payload: Vec<u8>,
    /// Payload length the header announced.
    want: usize,
}

/// Incremental frame decoder: feed arbitrary stream chunks with
/// [`FrameDecoder::extend`], pop complete envelopes with
/// [`FrameDecoder::next_frame`]. Tolerates any chunking of the byte stream —
/// 1-byte reads, frames split across reads, many frames coalesced into one
/// read — which the property suite exercises adversarially.
///
/// Payload bytes go straight from the chunk into the buffer the envelope
/// will own — a frame is never staged whole and copied out. That buffer
/// grows with the bytes actually received (at most doubling), never to the
/// length an untrusted header merely announces.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Header bytes of the next frame, until all of them are in.
    header: Vec<u8>,
    filling: Option<PartialFrame>,
    /// Complete envelopes not yet popped.
    ready: VecDeque<Envelope>,
    /// The stream is corrupt from here on; reported once `ready` drains.
    corrupt: Option<WireError>,
}

impl FrameDecoder {
    /// New empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw stream bytes. Bytes after a corrupt header are dropped:
    /// frame boundaries cannot be re-synchronized.
    pub fn extend(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() && self.corrupt.is_none() {
            let Some(frame) = self.filling.as_mut() else {
                // The length prefix is judged the moment it is complete,
                // the rest of the header once that is.
                let goal = if self.header.len() < 4 { 4 } else { FRAME_HEADER_LEN };
                let take = (goal - self.header.len()).min(bytes.len());
                self.header.extend_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
                if self.header.len() == goal {
                    match parse_frame_header(&self.header) {
                        Ok(Some(frame)) => {
                            self.filling = Some(frame);
                            self.header.clear();
                            self.finish_if_full();
                        }
                        Ok(None) => {}
                        Err(e) => self.corrupt = Some(e),
                    }
                }
                continue;
            };
            let missing = frame.want - frame.payload.len();
            let take = missing.min(bytes.len());
            if frame.payload.capacity() - frame.payload.len() < take {
                // Double, but never past the announced length and never
                // by more than this chunk makes necessary.
                let grow = frame.payload.len().max(take).min(missing);
                frame.payload.reserve_exact(grow);
            }
            frame.payload.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.finish_if_full();
        }
    }

    /// Move the frame being filled to the ready queue once its payload is
    /// complete (immediately, for an empty payload).
    fn finish_if_full(&mut self) {
        if self.filling.as_ref().is_some_and(|f| f.payload.len() == f.want) {
            let f = self.filling.take().expect("checked above");
            self.ready.push_back(Envelope::new(f.context, f.src, f.tag, f.payload));
        }
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn pending(&self) -> usize {
        self.header.len()
            + self.filling.as_ref().map_or(0, |f| FRAME_HEADER_LEN + f.payload.len())
    }

    /// Decode the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes"; an error means the stream is
    /// corrupt (bad length prefix or malformed envelope) and the connection
    /// must be torn down — frame boundaries cannot be re-synchronized.
    pub fn next_frame(&mut self) -> Result<Option<Envelope>, WireError> {
        match self.ready.pop_front() {
            Some(env) => Ok(Some(env)),
            None => self.corrupt.clone().map_or(Ok(None), Err),
        }
    }
}

/// Validate as much of a frame header as has arrived: the body length (the
/// first four bytes) must respect [`MAX_FRAME_LEN`], and — once all
/// [`FRAME_HEADER_LEN`] bytes are in — be exactly the envelope header plus
/// the payload length that header announces. `Ok(None)` asks for the rest.
fn parse_frame_header(header: &[u8]) -> Result<Option<PartialFrame>, WireError> {
    let mut buf = header;
    let body_len = u32::decode(&mut buf)? as usize;
    if body_len > MAX_FRAME_LEN {
        return Err(WireError::new("frame length"));
    }
    if body_len < Envelope::HEADER_LEN {
        return Err(WireError::new("envelope header"));
    }
    if buf.is_empty() {
        return Ok(None);
    }
    let (context, src, tag, want) = Envelope::decode_header(&mut buf)?;
    if body_len != Envelope::HEADER_LEN + want {
        return Err(WireError::new("envelope payload"));
    }
    Ok(Some(PartialFrame { context, src, tag, payload: Vec::new(), want }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u32, n: usize) -> Envelope {
        Envelope::new(2, src, tag, (0..n).map(|i| i as u8).collect())
    }

    #[test]
    fn frame_round_trips_whole() {
        let e = env(3, 42, 17);
        let mut stream = Vec::new();
        encode_frame(&e, &mut stream);
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap(), Some(e));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let envelopes = vec![env(0, 1, 0), env(1, 2, 33), env(2, 3, 5)];
        let mut stream = Vec::new();
        for e in &envelopes {
            encode_frame(e, &mut stream);
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &stream {
            dec.extend(std::slice::from_ref(b));
            while let Some(e) = dec.next_frame().unwrap() {
                out.push(e);
            }
        }
        assert_eq!(out, envelopes);
    }

    #[test]
    fn coalesced_frames_in_one_chunk() {
        let envelopes: Vec<Envelope> = (0..8).map(|i| env(i, i as u32, i * 3)).collect();
        let mut stream = Vec::new();
        for e in &envelopes {
            encode_frame(e, &mut stream);
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        let mut out = Vec::new();
        while let Some(e) = dec.next_frame().unwrap() {
            out.push(e);
        }
        assert_eq!(out, envelopes);
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(u32::MAX).to_le_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn corrupt_body_rejected() {
        // A frame whose body is one byte short of a valid envelope.
        let mut stream = Vec::new();
        encode_frame(&env(1, 2, 3), &mut stream);
        let last = stream.len() - 1;
        stream[0] -= 1; // shrink declared length by one byte
        let mut dec = FrameDecoder::new();
        dec.extend(&stream[..last]);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_never_reserves_what_it_has_not_received() {
        // A header announcing a 512 MiB payload, followed by 1000 bytes of
        // it: the buffer being filled may hold (at most double) what has
        // arrived, never what was announced.
        let announced = 512 << 20;
        let mut stream = Vec::new();
        ((Envelope::HEADER_LEN + announced) as u32).encode(&mut stream);
        stream.extend_from_slice(&Envelope::new(1, 2, 3, Vec::new()).header());
        let len_at = stream.len() - 4;
        stream[len_at..].copy_from_slice(&(announced as u32).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        for chunk in [&[0xABu8; 600][..], &[0xCD; 400]] {
            dec.extend(chunk);
            assert_eq!(dec.next_frame().unwrap(), None);
        }
        let filling = dec.filling.as_ref().expect("payload still arriving");
        assert_eq!(filling.payload.len(), 1000);
        assert!(filling.payload.capacity() <= 2000, "{}", filling.payload.capacity());
        assert_eq!(dec.pending(), FRAME_HEADER_LEN + 1000);
    }

    #[test]
    fn frames_before_a_corrupt_one_still_come_out() {
        let mut stream = Vec::new();
        encode_frame(&env(1, 2, 3), &mut stream);
        stream.extend_from_slice(&3u32.to_le_bytes()); // body shorter than a header
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap(), Some(env(1, 2, 3)));
        assert!(dec.next_frame().is_err());
        dec.extend(&[0; 64]);
        assert!(dec.next_frame().is_err(), "a corrupt stream stays corrupt");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_LEN (1073741824 B)")]
    fn oversize_frames_are_refused_by_the_sender() {
        // Zeroed pages are never touched: the header check comes first.
        let e = Envelope::new(0, 1, 2, vec![0u8; MAX_FRAME_LEN - Envelope::HEADER_LEN + 1]);
        encode_frame(&e, &mut Vec::new());
    }

    #[test]
    fn the_largest_legal_frame_header_is_accepted() {
        let e = Envelope::new(0, 1, 2, vec![0u8; MAX_FRAME_LEN - Envelope::HEADER_LEN]);
        let header = frame_header(&e).expect("exactly at the limit");
        assert_eq!(header[..4], (MAX_FRAME_LEN as u32).to_le_bytes());
    }

    #[test]
    fn compaction_keeps_decoding_correct() {
        // Interleave extend/next_frame so the consumed prefix gets compacted
        // mid-stream; every envelope must still come out intact and in order.
        let envelopes: Vec<Envelope> = (0..64).map(|i| env(i, 7, i % 19)).collect();
        let mut stream = Vec::new();
        for e in &envelopes {
            encode_frame(e, &mut stream);
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(13) {
            dec.extend(chunk);
            while let Some(e) = dec.next_frame().unwrap() {
                out.push(e);
            }
        }
        assert_eq!(out, envelopes);
    }
}
