//! Binary wire codec.
//!
//! Every value that crosses a rank boundary or lands in a checkpoint
//! implements [`Wire`]. The format is little-endian, length-prefixed, and
//! self-contained — the moral equivalent of an MPI derived datatype. This
//! crate holds the trait and its impls for primitives and containers, and
//! [`Payload`], the shared buffer encoded bytes travel and rest in. It
//! depends on nothing, so every other crate of the workspace can declare a
//! type's encoding next to the type itself (usually with [`wire_struct!`]),
//! and name the buffer its bytes arrive in.

mod payload;

pub use payload::Payload;
use std::fmt;

/// Decoding error: truncated or malformed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was being decoded.
    pub what: &'static str,
}

impl WireError {
    /// Construct an error for the given context.
    pub fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.what)
    }
}

impl std::error::Error for WireError {}

/// Types that can be serialized to / deserialized from a byte stream.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Encode into a reusable scratch buffer: clears `buf` but keeps its
    /// capacity. The scratch-reuse counterpart of [`Wire::to_bytes`] for
    /// callers that encode the same message type repeatedly.
    fn to_bytes_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        self.encode(buf);
    }

    /// Decode from a complete buffer, requiring full consumption.
    fn from_bytes(mut buf: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireError::new("trailing bytes"));
        }
        Ok(v)
    }

    /// Append `items` as one length-prefixed sequence — the encoding of
    /// `Vec<Self>`, which calls this. The default encodes element by
    /// element; `u8` and `f32` (payload bodies and genomes, the bytes that
    /// dominate every snapshot exchange) override it with one bulk copy
    /// producing the identical bytes.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        (items.len() as u32).encode(buf);
        for item in items {
            item.encode(buf);
        }
    }

    /// Decode one length-prefixed sequence from the front of `buf` into
    /// `out`, replacing its contents but keeping its capacity — the
    /// decoding of `Vec<Self>`, which calls this with an empty vector. A
    /// length the remaining bytes cannot back is refused before anything
    /// is reserved for it. On error `out` holds an unspecified prefix.
    fn decode_into(buf: &mut &[u8], out: &mut Vec<Self>) -> Result<(), WireError> {
        // Each element needs ≥ 1 byte.
        let len = sequence_len(buf, 1)?;
        out.clear();
        out.reserve(len);
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Ok(())
    }
}

/// Read a sequence's `u32` length prefix and refuse it unless `len`
/// elements of `elem_size` bytes each are actually there — the guard
/// against hostile lengths, checked before any allocation.
pub fn sequence_len(buf: &mut &[u8], elem_size: usize) -> Result<usize, WireError> {
    let len = u32::decode(buf)? as usize;
    match len.checked_mul(elem_size) {
        Some(bytes) if bytes <= buf.len() => Ok(len),
        _ => Err(WireError::new("vec length")),
    }
}

/// Split `n` bytes off the front of `buf`, or refuse with `what`.
fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
    let (head, tail) = buf.split_at_checked(n).ok_or(WireError::new(what))?;
    *buf = tail;
    Ok(head)
}

macro_rules! impl_wire_primitive {
    ($ty:ty $(, { $($bulk:tt)* })?) => {
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(buf, size_of::<$ty>(), stringify!($ty))?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized by take")))
            }
            $($($bulk)*)?
        }
    };
}

impl_wire_primitive!(u8, {
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        (items.len() as u32).encode(buf);
        buf.extend_from_slice(items);
    }
    fn decode_into(buf: &mut &[u8], out: &mut Vec<Self>) -> Result<(), WireError> {
        let len = sequence_len(buf, 1)?;
        out.clear();
        out.extend_from_slice(take(buf, len, "vec length")?);
        Ok(())
    }
});
impl_wire_primitive!(u16);
impl_wire_primitive!(u32);
impl_wire_primitive!(u64);
impl_wire_primitive!(i32);
impl_wire_primitive!(i64);
impl_wire_primitive!(f32, {
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        (items.len() as u32).encode(buf);
        // Size the tail once, then convert in fixed-width chunks: the loop
        // compiles to a straight copy on little-endian hosts and keeps
        // every bit pattern (NaN payloads, -0.0, subnormals) as it is.
        let at = buf.len();
        buf.resize(at + items.len() * 4, 0);
        for (dst, v) in buf[at..].chunks_exact_mut(4).zip(items) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
    fn decode_into(buf: &mut &[u8], out: &mut Vec<Self>) -> Result<(), WireError> {
        let len = sequence_len(buf, 4)?;
        out.clear();
        out.extend(
            take(buf, len * 4, "vec length")?
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        );
        Ok(())
    }
});
impl_wire_primitive!(f64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        u8::from(*self).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::new("bool")),
        }
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| WireError::new("usize overflow"))
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        u8::encode_slice(self.as_bytes(), buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(buf)? as usize;
        let bytes = take(buf, len, "string body")?.to_vec();
        String::from_utf8(bytes).map_err(|_| WireError::new("string utf8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        T::encode_slice(self, buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let mut out = Vec::new();
        T::decode_into(buf, &mut out)?;
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError::new("option discriminant")),
        }
    }
}

/// Fixed-size word arrays (RNG state words, histogram buckets) encode as
/// their elements back to back: the length is part of the type, so no
/// prefix is written.
impl<const N: usize> Wire for [u64; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for word in self {
            word.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let mut words = [0u64; N];
        for word in &mut words {
            *word = u64::decode(buf)?;
        }
        Ok(words)
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

/// Implement [`Wire`] for a plain struct by encoding fields in order.
///
/// ```
/// use lipiz_wire::{wire_struct, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f32, y: f32 }
/// wire_struct!(Point { x, y });
///
/// let p = Point { x: 1.0, y: -2.0 };
/// assert_eq!(Point::from_bytes(&p.to_bytes()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::Wire::encode(&self.$field, buf);)+
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok(Self {
                    $($field: $crate::Wire::decode(buf)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(42u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-7i32);
        round_trip(i64::MIN);
        round_trip(std::f32::consts::PI);
        round_trip(std::f64::consts::E);
        round_trip(true);
        round_trip(false);
        round_trip(123usize);
        round_trip(());
    }

    #[test]
    fn containers_round_trip() {
        round_trip("hello MPI".to_string());
        round_trip(String::new());
        round_trip(vec![1.0f32, -2.5, 3.25]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((1u32, 2.5f64));
        round_trip((1u8, "x".to_string(), vec![3u64]));
        round_trip(vec![vec![1u8, 2], vec![], vec![3]]);
    }

    #[test]
    fn word_arrays_encode_without_a_prefix() {
        let words = [1u64, u64::MAX, 0, 0xDEAD_BEEF];
        round_trip(words);
        let by_hand: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(words.to_bytes(), by_hand);
        assert!(<[u64; 4]>::from_bytes(&by_hand[..31]).is_err());
        round_trip([0u64; 0]);
    }

    #[test]
    fn truncated_buffers_error() {
        let bytes = 0xDEAD_BEEFu32.to_bytes();
        assert!(u32::from_bytes(&bytes[..3]).is_err());
        let s = "hello".to_string().to_bytes();
        assert!(String::from_bytes(&s[..6]).is_err());
        let v = vec![1u64, 2, 3].to_bytes();
        assert!(Vec::<u64>::from_bytes(&v[..10]).is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(0);
        assert!(u8::from_bytes(&bytes).is_err());
    }

    #[test]
    fn hostile_vec_length_rejected() {
        // Claims 2^31 elements with a 4-byte body.
        let mut bytes = Vec::new();
        (0x8000_0000u32).encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Vec::<u8>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_discriminants_rejected() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[9]).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        (2u32).encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(String::from_bytes(&bytes).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u32,
        b: Vec<f32>,
        c: String,
    }
    wire_struct!(Demo { a, b, c });

    #[test]
    fn wire_struct_macro_round_trips() {
        round_trip(Demo { a: 5, b: vec![1.5, -2.5], c: "demo".into() });
    }

    #[test]
    fn to_bytes_into_reuses_capacity() {
        let v = vec![1.5f32; 256];
        let mut scratch = Vec::new();
        v.to_bytes_into(&mut scratch);
        assert_eq!(scratch, v.to_bytes());
        let cap = scratch.capacity();
        let ptr = scratch.as_ptr();
        v.to_bytes_into(&mut scratch);
        assert_eq!(scratch, v.to_bytes());
        assert_eq!(scratch.capacity(), cap);
        assert_eq!(scratch.as_ptr(), ptr, "scratch was reallocated");
    }

    /// Encodes and decodes through `T`'s element codec only, so sequences
    /// of it take the provided (per-element) `encode_slice`/`decode_into` —
    /// the reference the bulk overrides must match byte for byte.
    #[derive(Debug, Clone, PartialEq)]
    struct PerElement<T>(T);

    impl<T: Wire> Wire for PerElement<T> {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            T::decode(buf).map(PerElement)
        }
    }

    fn per_element<T: Clone>(v: &[T]) -> Vec<PerElement<T>> {
        v.iter().cloned().map(PerElement).collect()
    }

    #[test]
    fn bulk_codecs_match_the_per_element_bytes() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(bytes.to_bytes(), per_element(&bytes).to_bytes());
        // Every class of bit pattern: quiet and signalling NaNs with
        // payloads, infinities, both zeros, subnormals. `fast_tanh`
        // propagates NaN on purpose; the codec must not launder it.
        let bits = [
            0x7FC0_0001u32,
            0xFFC0_1234,
            0x7F80_0001,
            0x7F80_0000,
            0xFF80_0000,
            0x8000_0000,
            0,
            1,
            0x807F_FFFF,
            0x3F80_0000,
        ];
        let floats: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let wire = floats.to_bytes();
        assert_eq!(wire, per_element(&floats).to_bytes());
        let back = Vec::<f32>::from_bytes(&wire).unwrap();
        assert_eq!(back.iter().map(|f| f.to_bits()).collect::<Vec<_>>(), bits);
        let nested = vec![vec![1u8, 2], vec![], vec![3], vec![]];
        let reference: Vec<_> = nested.iter().map(|p| PerElement(per_element(p))).collect();
        assert_eq!(nested.to_bytes(), reference.to_bytes());
        assert_eq!(Vec::<Vec<u8>>::from_bytes(&nested.to_bytes()).unwrap(), nested);
    }

    #[test]
    fn hostile_lengths_are_refused_before_anything_is_reserved() {
        // Claims 2^31 elements over a 4-byte body: bulk and per-element
        // paths both refuse, and the caller's vector was never grown.
        let mut wire = Vec::new();
        0x8000_0000u32.encode(&mut wire);
        wire.extend_from_slice(&[0; 4]);
        fn refused<T: Wire>(wire: &[u8]) {
            let mut out: Vec<T> = Vec::new();
            assert!(T::decode_into(&mut &wire[..], &mut out).is_err());
            assert_eq!(out.capacity(), 0, "reserved for a length that was never backed");
        }
        refused::<u8>(&wire);
        refused::<f32>(&wire);
        refused::<PerElement<u8>>(&wire);
        refused::<Vec<u8>>(&wire);
        // Two f32s announced, seven bytes there.
        let mut short = vec![1.0f32, 2.0].to_bytes();
        short.pop();
        refused::<f32>(&short);
    }

    #[test]
    fn every_truncation_of_a_sequence_is_refused() {
        fn all_cuts_fail<T: Wire + fmt::Debug>(v: &T) {
            let wire = v.to_bytes();
            for cut in 0..wire.len() {
                assert!(T::from_bytes(&wire[..cut]).is_err(), "{v:?} cut at {cut}");
            }
        }
        all_cuts_fail(&vec![7u8; 9]);
        all_cuts_fail(&vec![1.5f32, -2.5, f32::NAN]);
        all_cuts_fail(&vec![vec![1u8, 2, 3], vec![], vec![4]]);
    }

    #[test]
    fn decode_into_a_dirty_larger_vec_leaves_exactly_the_decoded_contents() {
        let floats = vec![0.25f32, -1.0, 3.5];
        let mut out = vec![9.0f32; 64];
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        let mut wire = floats.to_bytes();
        wire.push(0xEE); // the cursor stops at the sequence's end
        let mut buf = &wire[..];
        f32::decode_into(&mut buf, &mut out).unwrap();
        assert_eq!(out, floats);
        assert_eq!(buf, [0xEE]);
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap), "buffer was not reused");

        let mut out = vec![0xAAu8; 64];
        u8::decode_into(&mut &vec![1u8, 2, 3].to_bytes()[..], &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        let mut out = vec![PerElement(0u8); 64];
        PerElement::<u8>::decode_into(&mut &vec![4u8, 5].to_bytes()[..], &mut out).unwrap();
        assert_eq!(out, per_element(&[4u8, 5]));
    }

    #[test]
    fn f32_vec_is_compact() {
        // 4-byte length prefix + 4 bytes per element: genomes ship tight.
        let v = vec![0.0f32; 1000];
        assert_eq!(v.to_bytes().len(), 4 + 4000);
    }
}
