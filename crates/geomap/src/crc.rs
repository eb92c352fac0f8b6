//! IEEE CRC32 (the zlib/PNG polynomial), the one checksum every framed
//! record in the workspace carries: map snapshots here, and the
//! middleware's transport frames, WAL records and server snapshots.
//! Self-contained because the offline build bakes in no checksum crate.

/// Slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, `TABLES[j]` advances a byte j positions further, so eight
/// bytes fold in one step. Checksumming every frame on the transport
/// hot path is what pays for the extra 7 KiB.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xff) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// IEEE CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Streaming CRC32: folds `bytes` into a running checksum, so a digest
/// over a whole frame sequence needs no concatenated copy. Eight bytes
/// per table step (slice-by-8), byte-at-a-time on the tail.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = crc ^ 0xffff_ffff;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answer() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot_across_slice_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = crc32(&data);
        for cut in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32_update(0, a), b), whole, "cut at {cut}");
        }
    }
}
