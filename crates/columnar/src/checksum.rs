//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-4.
//!
//! Guards block payloads on the simulated disk, the VFT wire, DFS blobs and
//! the model codec, so every stored or shipped byte passes through here at
//! least once. Four 256-entry tables (4 KB, resident in L1 beside the data
//! stream) consume one little-endian word per step — the kernel zlib shipped
//! for years — at ~0.94 GB/s where the bytewise loop it replaces did ~0.35.
//! Same polynomial, same values: nothing stored or shipped changes.
//!
//! Wider slicing (by-16: ~1.9 GB/s) and PCLMULQDQ folding (~20 GB/s) were
//! measured and are deliberately left for later steps; DESIGN.md, "Cold byte
//! path", records why and what each step is expected to buy. A local
//! implementation keeps the dependency footprint to the sanctioned crates.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the crc
/// state after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut state = !0u32;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        let x = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = t[3][(x & 0xFF) as usize]
            ^ t[2][((x >> 8) & 0xFF) as usize]
            ^ t[1][((x >> 16) & 0xFF) as usize]
            ^ t[0][(x >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bit-at-a-time definition — shares no table or code with
    /// the production path.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        for f in [crc32, crc32_reference] {
            // Standard CRC-32/IEEE check value.
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"a"), 0xE8B7_BE43);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
            assert_eq!(f(&[0u8; 4096]), 0xC71C_0011);
        }
    }

    #[test]
    fn sensitivity_to_single_bit() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
        let mut long = vec![7u8; 1000];
        let before = crc32(&long);
        long[999] ^= 1;
        assert_ne!(crc32(&long), before);
    }

    #[test]
    fn every_short_length_agrees_at_every_offset() {
        // Every word/tail split at all alignments of the first word.
        let buf: Vec<u8> = (0..400u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=(buf.len() - 16) {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start={start} len={len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// sliced ≡ bitwise reference for arbitrary contents and lengths
        /// 0..=8192, at every start offset 0..16 of an over-allocated buffer
        /// (so every alignment and every tail length are covered).
        #[test]
        fn sliced_and_reference_agree(
            len in 0usize..=8192,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..len + 16)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 32) as u8
                })
                .collect();
            for start in 0..16 {
                let s = &buf[start..start + len];
                prop_assert_eq!(crc32(s), crc32_reference(s));
            }
        }
    }
}
