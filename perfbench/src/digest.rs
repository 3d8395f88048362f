//! FNV-1a digests of virtual results and payload bytes.

/// An FNV-1a hasher over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word.
    pub fn eat(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a byte string, eight bytes at a time, then its length.
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.eat(u64::from_le_bytes(w.try_into().expect("chunk of eight")));
        }
        for &b in words.remainder() {
            self.eat(b as u64);
        }
        self.eat(bytes.len() as u64);
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn of_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.eat_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_tell_apart_content_and_length() {
        assert_ne!(of_bytes(b"abcdefgh"), of_bytes(b"abcdefgi"));
        assert_ne!(of_bytes(&[0u8; 8]), of_bytes(&[0u8; 9]));
        assert_eq!(of_bytes(b"same bytes"), of_bytes(b"same bytes"));
    }
}
