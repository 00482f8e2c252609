//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the checksum
//! framing every durable record and snapshot carries.
//!
//! Table-driven, with the table built by a `const fn` at compile time so the
//! hot path is one shift/xor/lookup per byte and the crate stays dependency
//! free.

#![expect(
    clippy::indexing_slicing,
    reason = "the table index is masked to 8 bits on the line above and TABLE has 256 entries"
)]

/// The 256-entry lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i: u32 = 0;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i as usize] = crc;
        i += 1;
    }
    table
}

/// The CRC-32 of `bytes` (initial value `!0`, final complement — the
/// standard zlib/IEEE convention).
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::checksum;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = checksum(b"exploratory-training");
        let mut bytes = b"exploratory-training".to_vec();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(checksum(&bytes), base, "flip at byte {i} bit {bit}");
                bytes[i] ^= 1 << bit;
            }
        }
    }
}
