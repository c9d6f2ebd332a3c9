//! Byte-level payload codec: what [`crate::Comm`] hands a transport.
//!
//! A [`crate::Transport`] moves bytes — between threads or between
//! processes — so every payload that crosses a [`crate::Comm`] boundary
//! must be encodable. [`WirePayload`] is that contract: a fixed
//! little-endian encoding with bit-exact round-trips (floats travel as
//! their IEEE-754 bit patterns), so a value folded on the receiving rank is
//! *the same bits* the sender held, whichever transport carried it.
//!
//! The encoding is deliberately simple — this is the payload layer, not the
//! compact application codec of `infomap_distributed::codec` (which rides
//! on top as pre-encoded `Vec<u8>` buckets).

use std::mem::size_of;

/// Decode failure: the buffer was shorter than the encoding requires or
/// carried an invalid discriminant. Transports surface this as
/// `FrameCorrupt`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDecodeError {
    /// What was being decoded when the buffer ran dry.
    pub context: &'static str,
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload decode failed at {}", self.context)
    }
}

impl std::error::Error for WireDecodeError {}

/// A value that can cross a byte-level transport.
///
/// Implementations must round-trip exactly: `decode(encode(v)) == v` bit
/// for bit, and `decode` must consume precisely the bytes `encode`
/// produced (so values can be concatenated).
pub trait WirePayload: Sized {
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `buf`, advancing it.
    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError>;

    /// Encode `items` back to back — the body of a `Vec<Self>` after its
    /// length. `u8` overrides this with one copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        // Exact for the fixed-size scalars and tuples most runs are made of.
        out.reserve(std::mem::size_of_val(items));
        for item in items {
            item.encode_into(out);
        }
    }

    /// Decode `len` values from the front of `buf`. `u8` overrides this
    /// with one bounds-checked copy.
    fn decode_run(buf: &mut &[u8], len: usize) -> Result<Vec<Self>, WireDecodeError> {
        // Guard against a corrupt length claiming more items than the
        // buffer could possibly hold (each item needs ≥ 1 byte unless
        // zero-sized).
        let mut items = Vec::with_capacity(len.min(buf.len().max(64)));
        for _ in 0..len {
            items.push(Self::decode_from(buf)?);
        }
        Ok(items)
    }

    /// A bucket's `items` encoded back to back, as the body of a collective
    /// frame that grows in place. `u8` overrides this: the bucket is the
    /// body, no copy. Items must encode to at least one byte each, or the
    /// body could not tell how many there were.
    fn encode_body(items: Vec<Self>) -> Vec<u8> {
        let mut out = Vec::new();
        Self::encode_slice(&items, &mut out);
        assert!(
            items.is_empty() || !out.is_empty(),
            "a bucket of zero-byte items cannot travel"
        );
        out
    }

    /// [`WirePayload::encode_body`]'s inverse over a frame cut to its
    /// body: every item up to the end. `u8` overrides this: the body is the
    /// bucket, no copy. The first item sizes the rest, exactly for the
    /// fixed-size items buckets are made of.
    fn decode_body(body: Vec<u8>) -> Result<Vec<Self>, WireDecodeError> {
        let mut cursor = &body[..];
        let mut items = Vec::new();
        while !cursor.is_empty() {
            let before = cursor.len();
            items.push(Self::decode_from(&mut cursor)?);
            let used = before - cursor.len();
            if used == 0 {
                return Err(WireDecodeError {
                    context: "zero-byte item in a body",
                });
            }
            if items.len() == 1 {
                items.reserve_exact(body.len() / used - 1);
            }
        }
        Ok(items)
    }

    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode a value that must occupy the whole buffer.
    fn decode_all(mut buf: &[u8]) -> Result<Self, WireDecodeError> {
        let v = Self::decode_from(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireDecodeError {
                context: "trailing bytes after payload",
            });
        }
        Ok(v)
    }
}

fn take<'a>(
    buf: &mut &'a [u8],
    n: usize,
    context: &'static str,
) -> Result<&'a [u8], WireDecodeError> {
    if buf.len() < n {
        return Err(WireDecodeError { context });
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

macro_rules! int_payload {
    ($($t:ty),* $(,)?) => {$(
        impl WirePayload for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
                let raw = take(buf, size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(raw.try_into().unwrap()))
            }
        }
    )*};
}

int_payload!(u16, u32, u64, u128, i8, i16, i32, i64, i128);

/// Bytes travel as themselves, and a run of them as one copy: every
/// pre-encoded codec bucket is a `Vec<u8>`.
impl WirePayload for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        Ok(take(buf, 1, "u8")?[0])
    }

    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn decode_run(buf: &mut &[u8], len: usize) -> Result<Vec<Self>, WireDecodeError> {
        Ok(take(buf, len, "u8 run")?.to_vec())
    }

    fn encode_body(items: Vec<Self>) -> Vec<u8> {
        items
    }

    fn decode_body(body: Vec<u8>) -> Result<Vec<Self>, WireDecodeError> {
        Ok(body)
    }
}

/// `usize` travels as a `u64` so 32- and 64-bit hosts interoperate.
impl WirePayload for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        Ok(u64::decode_from(buf)? as usize)
    }
}

impl WirePayload for f64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        Ok(f64::from_bits(u64::decode_from(buf)?))
    }
}

impl WirePayload for f32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        Ok(f32::from_bits(u32::decode_from(buf)?))
    }
}

impl WirePayload for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        match u8::decode_from(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireDecodeError { context: "bool" }),
        }
    }
}

impl WirePayload for () {
    fn encode_into(&self, _out: &mut Vec<u8>) {}

    fn decode_from(_buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        Ok(())
    }
}

impl<T: WirePayload> WirePayload for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        T::encode_slice(self, out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        let len = u64::decode_from(buf)? as usize;
        T::decode_run(buf, len)
    }
}

impl<T: WirePayload> WirePayload for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        match u8::decode_from(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(buf)?)),
            _ => Err(WireDecodeError { context: "Option" }),
        }
    }
}

impl WirePayload for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        decode_str(buf).map(str::to_owned)
    }
}

/// A string as `String` encodes it: length, then the UTF-8 bytes.
pub(crate) fn encode_str(s: &str, out: &mut Vec<u8>) {
    (s.len() as u64).encode_into(out);
    out.extend_from_slice(s.as_bytes());
}

/// [`encode_str`]'s inverse, borrowing from the buffer.
pub(crate) fn decode_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, WireDecodeError> {
    let len = u64::decode_from(buf)? as usize;
    std::str::from_utf8(take(buf, len, "String")?).map_err(|_| WireDecodeError {
        context: "String utf8",
    })
}

impl<T: WirePayload, const N: usize> WirePayload for [T; N] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
        T::decode_run(buf, N)?
            .try_into()
            .map_err(|_| WireDecodeError { context: "array" })
    }
}

macro_rules! tuple_payload {
    ($($name:ident),+) => {
        impl<$($name: WirePayload),+> WirePayload for ($($name,)+) {
            fn encode_into(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode_into(out);)+
            }

            fn decode_from(buf: &mut &[u8]) -> Result<Self, WireDecodeError> {
                Ok(($($name::decode_from(buf)?,)+))
            }
        }
    };
}

tuple_payload!(A);
tuple_payload!(A, B);
tuple_payload!(A, B, C);
tuple_payload!(A, B, C, D);
tuple_payload!(A, B, C, D, E);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WirePayload + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode_to_vec();
        assert_eq!(T::decode_all(&bytes).unwrap(), v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0xdead_beef_u32);
        roundtrip(u64::MAX);
        roundtrip(-5_i64);
        roundtrip(1.5_f64);
        roundtrip(true);
        roundtrip(());
    }

    #[test]
    fn float_bit_patterns_survive() {
        for v in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE] {
            let bytes = v.encode_to_vec();
            let back = f64::decode_all(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1_u64, 2, 3]);
        roundtrip(vec![vec![1_u8], vec![], vec![2, 3]]);
        roundtrip(Some(7_u32));
        roundtrip(None::<u32>);
        roundtrip("héllo".to_string());
        roundtrip((1_u32, 2.5_f64, vec![3_u64]));
    }

    #[test]
    fn byte_runs_roundtrip_with_unchanged_wire_bytes() {
        let blob: Vec<u8> = (0..=255).collect();
        roundtrip(blob.clone());
        roundtrip(Vec::<u8>::new());
        roundtrip([7_u8; 5]);
        // Same bytes the per-item loop produced: length, then the run.
        let mut expect = (blob.len() as u64).to_le_bytes().to_vec();
        expect.extend_from_slice(&blob);
        assert_eq!(blob.encode_to_vec(), expect);
    }

    #[test]
    fn byte_run_longer_than_the_buffer_is_an_error_not_an_allocation() {
        // A claim of 2^60 bytes over a 3-byte body: an allocation sized by
        // the claim would abort the process before the error came back.
        let mut bytes = (1_u64 << 60).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            Vec::<u8>::decode_all(&bytes),
            Err(WireDecodeError { context: "u8 run" })
        );
        assert!(Vec::<u64>::decode_all(&bytes).is_err());
    }

    #[test]
    fn bodies_roundtrip_and_bytes_are_their_own_body() {
        let arcs = vec![(1_u32, 2_u32, 0.5_f64), (3, 4, 1.25)];
        let body = <(u32, u32, f64)>::encode_body(arcs.clone());
        assert_eq!(body.len(), 2 * 16);
        assert_eq!(<(u32, u32, f64)>::decode_body(body).unwrap(), arcs);
        let bucket: Vec<u8> = vec![9, 8, 7];
        let at = bucket.as_ptr();
        let body = u8::encode_body(bucket);
        assert_eq!(body.as_ptr(), at, "a byte bucket is copied");
        assert_eq!(u8::decode_body(body).unwrap(), [9, 8, 7]);
        assert!(u64::decode_body(vec![1, 2, 3]).is_err());
        assert_eq!(<()>::decode_body(vec![]).unwrap(), []);
    }

    #[test]
    fn truncated_buffers_error() {
        let bytes = vec![1_u64, 2, 3].encode_to_vec();
        assert!(Vec::<u64>::decode_all(&bytes[..bytes.len() - 1]).is_err());
        assert!(u64::decode_all(&[0; 4]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7_u32.encode_to_vec();
        bytes.push(0);
        assert!(u32::decode_all(&bytes).is_err());
    }

    #[test]
    fn concatenated_values_decode_in_sequence() {
        let mut bytes = Vec::new();
        1_u32.encode_into(&mut bytes);
        (2.5_f64, 3_u64).encode_into(&mut bytes);
        let mut cursor = &bytes[..];
        assert_eq!(u32::decode_from(&mut cursor).unwrap(), 1);
        assert_eq!(
            <(f64, u64)>::decode_from(&mut cursor).unwrap(),
            (2.5, 3_u64)
        );
        assert!(cursor.is_empty());
    }
}
