//! Property tests for the message-passing substrate: codec totality,
//! delivery exactly-once, and collective consistency under arbitrary
//! payloads.

use lipiz_mpi::transport::{encode_frame, FrameDecoder};
use lipiz_mpi::wire::Wire;
use lipiz_mpi::{Comm, Envelope, RecvFrom, Universe};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Totality: arbitrary bytes must decode to Ok or Err, never panic.
        let _ = Vec::<f32>::from_bytes(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = Option::<Vec<u64>>::from_bytes(&bytes);
        let _ = <(u32, Vec<u8>, bool)>::from_bytes(&bytes);
    }

    #[test]
    fn bulk_sequences_round_trip_arbitrary_bytes_and_bit_patterns(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        bits in proptest::collection::vec(any::<u32>(), 0..200),
        parts in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..8),
    ) {
        // The bulk `u8`/`f32` paths against the layout spelled out by hand
        // (u32-le count, then the elements), and back — f32s compared as
        // bits, so a NaN payload or a -0.0 that changed would show.
        let mut want = (bytes.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&bytes);
        prop_assert_eq!(&bytes.to_bytes(), &want);
        prop_assert_eq!(&Vec::<u8>::from_bytes(&want).unwrap(), &bytes);

        let floats: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut want = (bits.len() as u32).to_le_bytes().to_vec();
        for b in &bits {
            want.extend_from_slice(&b.to_le_bytes());
        }
        prop_assert_eq!(&floats.to_bytes(), &want);
        let back: Vec<u32> =
            Vec::<f32>::from_bytes(&want).unwrap().iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(&back, &bits);

        prop_assert_eq!(&Vec::<Vec<u8>>::from_bytes(&parts.to_bytes()).unwrap(), &parts);
        // A recycled, dirty target ends up holding exactly the decoded data.
        let mut recycled = vec![f32::NAN; 77];
        f32::decode_into(&mut &floats.to_bytes()[..], &mut recycled).unwrap();
        prop_assert_eq!(
            recycled.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            bits
        );
    }

    #[test]
    fn tuple_roundtrip(a in any::<u32>(), b in any::<i64>(), s in ".{0,32}") {
        let v = (a, b, s.clone());
        let back = <(u32, i64, String)>::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(back, v);
    }

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
    fn allgather_is_rank_indexed(values in proptest::collection::vec(any::<u16>(), 2..6)) {
        let n = values.len();
        let results = Universe::run(n, |comm: Comm| {
            comm.allgather(&values[comm.rank()])
        });
        for r in &results {
            prop_assert_eq!(r, &values);
        }
    }

    #[test]
    fn allreduce_sum_matches_local_sum(values in proptest::collection::vec(0i64..1000, 2..6)) {
        let n = values.len();
        let expected: i64 = values.iter().sum();
        let results = Universe::run(n, |comm: Comm| {
            comm.allreduce(&values[comm.rank()], |a, b| a + b)
        });
        for r in results {
            prop_assert_eq!(r, expected);
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

    #[test]
    fn bcast_from_any_root(root in 0usize..4, value in any::<u64>()) {
        let results = Universe::run(4, |comm: Comm| {
            let v = (comm.rank() == root).then_some(value);
            comm.bcast(root, v)
        });
        for r in results {
            prop_assert_eq!(r, value);
        }
    }
}
