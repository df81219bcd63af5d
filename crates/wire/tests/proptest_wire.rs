//! Property tests for the wire codec: decode totality on garbage, and the
//! bulk sequence paths against the layout spelled out by hand.

use lipiz_wire::Wire;
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
}
