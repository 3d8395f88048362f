//! Binary matrix file format.
//!
//! The paper's tasks read/write matrices as files; this codec is the wire
//! and disk representation used across the simulated filesystems and HTTP
//! payloads: magic `SWFM`, u32 rows, u32 cols, little-endian i64 entries.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::matrix::Matrix;

/// Magic prefix of encoded matrices.
pub const MAGIC: &[u8; 4] = b"SWFM";

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Payload too short or missing magic.
    BadHeader,
    /// Payload length disagrees with the header shape.
    Truncated {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad matrix header"),
            CodecError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated matrix payload: expected {expected}B, got {actual}B"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode a matrix.
pub fn encode(m: &Matrix) -> Bytes {
    let cells = m.as_slice();
    let total = cells.len().saturating_mul(8).saturating_add(12);
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    buf.resize(total, 0);
    for (dst, v) in buf[12..].as_chunks_mut::<8>().0.iter_mut().zip(cells) {
        *dst = v.to_le_bytes();
    }
    Bytes::from(buf)
}

/// Decode a matrix.
pub fn decode(mut data: Bytes) -> Result<Matrix, CodecError> {
    if data.len() < 12 || &data[..4] != MAGIC {
        return Err(CodecError::BadHeader);
    }
    data.advance(4);
    let rows = data.get_u32_le() as usize;
    let cols = data.get_u32_le() as usize;
    // A crafted header can claim up to (2³²−1)² cells; the byte count must
    // be computed checked or a hostile payload panics the decoder.
    let expected = rows
        .checked_mul(cols)
        .and_then(|cells| cells.checked_mul(8))
        .ok_or(CodecError::BadHeader)?;
    if data.len() != expected {
        return Err(CodecError::Truncated {
            expected,
            actual: data.len(),
        });
    }
    let cells = data.as_chunks::<8>().0;
    let v = cells.iter().map(|&c| i64::from_le_bytes(c)).collect();
    Ok(Matrix::from_vec(rows, cols, v))
}

/// Size in bytes of an encoded `r × c` matrix (for data-movement models).
pub const fn encoded_size(r: usize, c: usize) -> usize {
    12 + r * c * 8
}

/// Encode a pair of matrices into one request payload (the paper passes
/// both input matrices by value in the invocation request).
pub fn encode_pair(a: &Matrix, b: &Matrix) -> Bytes {
    let ea = encode(a);
    let eb = encode(b);
    let mut buf = BytesMut::with_capacity(ea.len().saturating_add(eb.len()).saturating_add(8));
    buf.put_u64_le(ea.len() as u64);
    buf.put_slice(&ea);
    buf.put_slice(&eb);
    buf.freeze()
}

/// Decode a pair encoded by [`encode_pair`].
pub fn decode_pair(mut data: Bytes) -> Result<(Matrix, Matrix), CodecError> {
    if data.len() < 8 {
        return Err(CodecError::BadHeader);
    }
    let alen = data.get_u64_le() as usize;
    if data.len() < alen {
        return Err(CodecError::Truncated {
            expected: alen,
            actual: data.len(),
        });
    }
    let a = decode(data.split_to(alen))?;
    let b = decode(data)?;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swf_simcore::DetRng;

    #[test]
    fn roundtrip() {
        let mut rng = DetRng::new(5, "codec");
        let m = Matrix::random(13, 7, &mut rng, -100, 100);
        let enc = encode(&m);
        assert_eq!(enc.len(), encoded_size(13, 7));
        assert_eq!(decode(enc).unwrap(), m);
    }

    #[test]
    fn paper_matrix_size_is_under_a_megabyte() {
        // 350×350 × 8B ≈ 980 KB — the pass-by-value payload of one input.
        let sz = encoded_size(350, 350);
        assert_eq!(sz, 12 + 350 * 350 * 8);
        assert!(sz < 1_000_000);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert_eq!(
            decode(Bytes::from_static(b"XX")),
            Err(CodecError::BadHeader)
        );
        assert_eq!(
            decode(Bytes::from_static(b"NOPE12345678")),
            Err(CodecError::BadHeader)
        );
        let m = Matrix::identity(3);
        let enc = encode(&m);
        let cut = enc.slice(0..enc.len() - 4);
        assert!(matches!(decode(cut), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn pair_roundtrip() {
        let mut rng = DetRng::new(6, "pair");
        let a = Matrix::random(4, 5, &mut rng, -10, 10);
        let b = Matrix::random(5, 6, &mut rng, -10, 10);
        let enc = encode_pair(&a, &b);
        let (da, db) = decode_pair(enc).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
    }

    #[test]
    fn pair_bad_inputs() {
        assert!(decode_pair(Bytes::from_static(b"xy")).is_err());
        let mut buf = bytes::BytesMut::new();
        use bytes::BufMut;
        buf.put_u64_le(1_000_000);
        buf.put_slice(b"short");
        assert!(matches!(
            decode_pair(buf.freeze()),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn degenerate_shapes_roundtrip() {
        for (r, c) in [(0, 0), (0, 5), (5, 0), (1, 1)] {
            let m = Matrix::from_vec(r, c, vec![7; r * c]);
            let dec = decode(encode(&m)).unwrap();
            assert_eq!(dec.rows(), r);
            assert_eq!(dec.cols(), c);
            assert_eq!(dec, m);
        }
    }

    #[test]
    fn huge_claimed_shape_is_an_error_not_a_panic() {
        // Header claims u32::MAX × u32::MAX cells: expected-byte arithmetic
        // would overflow usize without checked math.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        buf.put_i64_le(1);
        assert_eq!(decode(buf.freeze()), Err(CodecError::BadHeader));
    }

    /// A well-formed header (magic, rows, cols) followed by `body`.
    fn document(rows: u32, cols: u32, body: &[u8]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(rows);
        buf.put_u32_le(cols);
        buf.put_slice(body);
        buf.freeze()
    }

    fn full_range(r: usize, c: usize, seed: u64, stream: &str) -> Matrix {
        let mut rng = DetRng::new(seed, stream);
        Matrix::random(r, c, &mut rng, i64::MIN, i64::MAX)
    }

    #[test]
    fn encoding_is_magic_shape_then_little_endian_cells() {
        let m = Matrix::from_vec(1, 3, vec![1, -2, i64::MIN]);
        let mut want = b"SWFM\x01\0\0\0\x03\0\0\0".to_vec();
        for v in [1i64, -2, i64::MIN] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(encode(&m).as_ref(), want.as_slice());
    }

    #[test]
    fn odd_trailing_bytes_are_rejected() {
        let m = full_range(2, 3, 2, "trail");
        let pair = encode_pair(&m, &m);
        for extra in 1..=9 {
            let mut long = encode(&m).to_vec();
            long.extend(std::iter::repeat_n(0xA5, extra));
            assert_eq!(
                decode(Bytes::from(long)),
                Err(CodecError::Truncated {
                    expected: 48,
                    actual: 48 + extra
                })
            );
            let mut long = pair.to_vec();
            long.extend(std::iter::repeat_n(0xA5, extra));
            assert!(decode_pair(Bytes::from(long)).is_err());
        }
    }

    #[test]
    fn pair_length_prefix_mutations_are_typed_errors() {
        let m = full_range(2, 2, 3, "prefix");
        let pair = encode_pair(&m, &m).to_vec();
        for alen in [0u64, 1, 11, 12, 43, 45, u64::MAX] {
            let mut bad = pair.clone();
            bad[..8].copy_from_slice(&alen.to_le_bytes());
            assert!(decode_pair(Bytes::from(bad)).is_err(), "alen {alen}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn roundtrip_prop(seed in 0u64..500, r in 0usize..20, c in 0usize..20) {
            // Full-range entries, and 0×n / n×0 shapes.
            let m = full_range(r, c, seed, "rt");
            let enc = encode(&m);
            prop_assert_eq!(enc.len(), encoded_size(r, c));
            prop_assert_eq!(decode(enc).unwrap(), m);
        }

        #[test]
        fn pair_roundtrip_prop(seed in 0u64..500, n in 0usize..9, k in 0usize..9, m in 0usize..9) {
            let a = full_range(n, k, seed, "pa");
            let b = full_range(k, m, seed, "pb");
            let (da, db) = decode_pair(encode_pair(&a, &b)).unwrap();
            prop_assert_eq!(da, a);
            prop_assert_eq!(db, b);
        }

        #[test]
        fn truncation_never_panics(seed in 0u64..500, r in 0usize..6, c in 0usize..6) {
            // Every proper prefix of a valid document, alone and in a pair,
            // decodes to a typed error, never a panic or a bogus matrix.
            let a = full_range(r, c, seed, "cut-a");
            let b = full_range(c, r, seed, "cut-b");
            let enc = encode(&a);
            for keep in 0..enc.len() {
                let want = if keep < 12 {
                    CodecError::BadHeader
                } else {
                    CodecError::Truncated { expected: r * c * 8, actual: keep - 12 }
                };
                prop_assert_eq!(decode(enc.slice(0..keep)), Err(want));
            }
            let pair = encode_pair(&a, &b);
            for keep in 0..pair.len() {
                prop_assert!(decode_pair(pair.slice(0..keep)).is_err(), "pair prefix {}", keep);
            }
        }

        #[test]
        fn random_bytes_never_panic(junk in prop::collection::vec(any::<u8>(), 0..96)) {
            prop_assert!(decode(Bytes::from(junk.clone())).is_err());
            prop_assert!(decode_pair(Bytes::from(junk)).is_err());
        }

        #[test]
        fn random_bodies_behind_the_magic_never_panic(
            rows in any::<u32>(),
            cols in any::<u32>(),
            body in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            // Shape arithmetic over the whole u32 domain, including
            // `rows × cols × 8` overflowing usize.
            let expected = (rows as usize)
                .checked_mul(cols as usize)
                .and_then(|cells| cells.checked_mul(8));
            let got = decode(document(rows, cols, &body));
            match expected {
                None => prop_assert_eq!(got, Err(CodecError::BadHeader)),
                Some(e) if e == body.len() => {
                    let m = got.unwrap();
                    prop_assert_eq!((m.rows(), m.cols()), (rows as usize, cols as usize));
                }
                Some(e) => prop_assert_eq!(
                    got,
                    Err(CodecError::Truncated { expected: e, actual: body.len() })
                ),
            }
        }

        #[test]
        fn header_mutations_are_typed_errors(
            seed in 0u64..500,
            r in 1usize..8,
            c in 1usize..8,
            at in 0usize..12,
            flip in 1u8..=255,
        ) {
            // One corrupted header byte: a bad magic, or a shape that no
            // longer matches the body (possibly an overflowing one).
            let m = full_range(r, c, seed, "hdr");
            let mut bad = encode(&m).to_vec();
            bad[at] ^= flip;
            let got = decode(Bytes::from(bad));
            prop_assert!(got.is_err(), "byte {} ^ {:#x} decoded", at, flip);
            if at < 4 {
                prop_assert_eq!(got, Err(CodecError::BadHeader));
            }
        }
    }
}
