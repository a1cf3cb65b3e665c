//! Write-ahead-log record framing.
//!
//! Every record is framed as
//!
//! ```text
//! ┌──────────┬───────────┬─────────────┐
//! │ len: u32 │ crc32: u32│ payload …   │   (big-endian integers)
//! └──────────┴───────────┴─────────────┘
//! ```
//!
//! where the CRC covers the payload bytes only. The framing gives the two
//! recovery properties the service layer builds on:
//!
//! * **torn tails are not errors** — a crash mid-append leaves a final
//!   frame whose bytes simply run out; [`scan`] stops there and returns
//!   every complete record before it (the WAL convention: an unfinished
//!   append never happened);
//! * **corruption is typed, never silent** — a complete frame whose
//!   checksum does not match its payload is a [`StoreError::Corrupt`],
//!   carrying the byte offset, so a recovery caller can distinguish "clean
//!   prefix" from "the log itself is damaged" and never reconstructs state
//!   from damaged bytes.
//!
//! No frame holds an empty payload ([`frame`] refuses one), so an
//! all-zero header is never a record. A log that is zero from a frame
//! boundary to its end is a torn tail: some filesystems grow a file before
//! its data reaches the disk and leave zeros after a power loss. A zero
//! header followed by anything non-zero is corruption.

use crate::StoreError;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Frames `payload` as one WAL record. An empty payload is refused
/// ([`StoreError::EmptyRecord`]): its frame would read back as a zeroed
/// tail.
pub fn frame(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    if payload.is_empty() {
        return Err(StoreError::EmptyRecord);
    }
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// What terminated a [`scan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tail {
    /// The log ended exactly on a frame boundary.
    Clean,
    /// The log ended inside a frame (crash mid-append), or is zero from a
    /// frame boundary to its end; `torn_at` is the offset of that frame's
    /// header.
    Torn {
        /// Byte offset of the torn frame.
        torn_at: usize,
    },
}

/// Decodes a WAL byte stream into its complete record payloads.
///
/// A frame whose bytes run out, or an all-zero rest of the log, is a torn
/// tail (reported, not an error); a complete frame whose checksum
/// mismatches, or an empty frame with non-zero bytes after it, is
/// [`StoreError::Corrupt`].
pub fn scan(bytes: &[u8]) -> Result<(Vec<&[u8]>, Tail), StoreError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + FRAME_HEADER > bytes.len() {
            return Ok((records, Tail::Torn { torn_at: pos }));
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 {
            if bytes[pos..].iter().all(|&b| b == 0) {
                return Ok((records, Tail::Torn { torn_at: pos }));
            }
            return Err(StoreError::Corrupt {
                what: "wal frame with an empty payload",
                offset: pos as u64,
            });
        }
        let start = pos + FRAME_HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            return Ok((records, Tail::Torn { torn_at: pos }));
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return Err(StoreError::Corrupt {
                what: "wal record checksum mismatch",
                offset: pos as u64,
            });
        }
        records.push(payload);
        pos = end;
    }
    Ok((records, Tail::Clean))
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the classic
/// table-driven implementation, built once at first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_scan_roundtrip() {
        let mut log = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![b"one".to_vec(), vec![0], vec![0xAB; 300]];
        for p in &payloads {
            log.extend_from_slice(&frame(p).unwrap());
        }
        let (records, tail) = scan(&log).unwrap();
        assert_eq!(tail, Tail::Clean);
        assert_eq!(records.len(), 3);
        for (r, p) in records.iter().zip(&payloads) {
            assert_eq!(r, &p.as_slice());
        }
    }

    #[test]
    fn torn_tail_is_a_clean_prefix() {
        let mut log = frame(b"committed").unwrap();
        let torn_at = log.len();
        log.extend_from_slice(&frame(b"in flight").unwrap()[..5]);
        let (records, tail) = scan(&log).unwrap();
        assert_eq!(records, vec![b"committed".as_slice()]);
        assert_eq!(tail, Tail::Torn { torn_at });
    }

    #[test]
    fn bitflip_is_typed_corruption() {
        let mut log = frame(b"precious bytes").unwrap();
        *log.last_mut().unwrap() ^= 0x40;
        match scan(&log) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_reads_as_torn() {
        // A length pointing past the buffer cannot be distinguished from a
        // crash that cut the payload short — prefix semantics, not panic.
        let mut log = frame(b"ok").unwrap();
        log.extend_from_slice(&u32::MAX.to_be_bytes());
        log.extend_from_slice(&[0u8; 8]);
        let (records, tail) = scan(&log).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(tail, Tail::Torn { .. }));
    }

    #[test]
    fn an_empty_payload_is_refused() {
        assert!(matches!(frame(b""), Err(StoreError::EmptyRecord)));
    }

    #[test]
    fn a_zero_filled_tail_is_torn() {
        let mut log = frame(b"committed").unwrap();
        let torn_at = log.len();
        for zeros in [8usize, 9, 4096] {
            let mut padded = log.clone();
            padded.resize(torn_at + zeros, 0);
            let (records, tail) = scan(&padded).unwrap();
            assert_eq!(records, vec![b"committed".as_slice()], "{zeros} zeros");
            assert_eq!(tail, Tail::Torn { torn_at }, "{zeros} zeros");
        }
        // A zero header with anything after it is not a padded tail.
        log.extend_from_slice(&[0u8; FRAME_HEADER]);
        log.extend_from_slice(&frame(b"next").unwrap());
        match scan(&log) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, torn_at as u64),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
