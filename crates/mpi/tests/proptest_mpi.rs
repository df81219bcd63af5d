//! Property tests for the message-passing substrate: delivery
//! exactly-once, collective consistency under arbitrary payloads, and
//! frame-decoder totality. (The codec's own properties live with the codec,
//! in `crates/wire/tests/`.)

use lipiz_mpi::transport::{encode_frame, FrameDecoder};
use lipiz_mpi::{Comm, Envelope, RecvFrom, Universe};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_message_delivered_exactly_once(
        payloads in proptest::collection::vec(0u32..1000, 1..16)
    ) {
        // Rank 0 sends each payload once; rank 1 must receive exactly the
        // same multiset, in order (FIFO per src/tag).
        let received = Universe::run(2, |comm: Comm| {
            if comm.rank() == 0 {
                for p in &payloads {
                    comm.send(1, 3, p);
                }
                vec![]
            } else {
                (0..payloads.len())
                    .map(|_| comm.recv::<u32>(RecvFrom::Rank(0), 3).0)
                    .collect()
            }
        });
        prop_assert_eq!(&received[1], &payloads);
    }

    #[test]
    fn allgather_is_rank_indexed(
        values in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 2..6)
    ) {
        let n = values.len();
        let results = Universe::run(n, |comm: Comm| {
            comm.allgather_bytes(values[comm.rank()].as_slice())
        });
        for r in &results {
            prop_assert_eq!(r, &values);
        }
    }

    #[test]
    fn gather_is_rank_indexed_at_any_root(
        root in 0usize..4,
        values in proptest::collection::vec(any::<u64>(), 4..5),
    ) {
        let results = Universe::run(4, |comm: Comm| comm.gather(root, &values[comm.rank()]));
        for (rank, r) in results.iter().enumerate() {
            prop_assert_eq!(r.as_ref(), (rank == root).then_some(&values));
        }
    }

    #[test]
    fn framing_survives_arbitrary_stream_chunking(
        raw_envs in proptest::collection::vec(
            (any::<u16>(), 0usize..64, any::<u32>(), proptest::collection::vec(any::<u8>(), 0..96)),
            1..12,
        ),
        cuts in proptest::collection::vec(1usize..257, 1..48),
    ) {
        // The TCP reader sees an arbitrary re-chunking of the frame stream:
        // 1-byte reads, frames split across reads, several frames coalesced
        // into one read. Whatever the chunking, the decoder must hand back
        // exactly the sent envelopes, in order.
        let envelopes: Vec<Envelope> = raw_envs
            .into_iter()
            .map(|(context, src, tag, payload)| Envelope::new(context, src, tag, payload))
            .collect();
        let mut stream = Vec::new();
        for env in &envelopes {
            encode_frame(env, &mut stream);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut cut_idx = 0;
        while offset < stream.len() {
            let step = cuts[cut_idx % cuts.len()].min(stream.len() - offset);
            decoder.extend(&stream[offset..offset + step]);
            offset += step;
            cut_idx += 1;
            while let Some(env) = decoder.next_frame().expect("valid stream") {
                decoded.push(env);
            }
        }
        prop_assert_eq!(decoded, envelopes);
        prop_assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn frame_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(1usize..33, 1..16),
    ) {
        // Totality under hostile input: arbitrary bytes fed in arbitrary
        // chunks must yield Ok or Err — never a panic, never an infinite
        // loop — and after an error the decoder stays inert.
        let mut decoder = FrameDecoder::new();
        let mut offset = 0;
        let mut cut_idx = 0;
        let mut dead = false;
        while offset < bytes.len() && !dead {
            let step = cuts[cut_idx % cuts.len()].min(bytes.len() - offset);
            decoder.extend(&bytes[offset..offset + step]);
            offset += step;
            cut_idx += 1;
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        dead = true; // a real reader drops the connection here
                        break;
                    }
                }
            }
        }
    }
}
