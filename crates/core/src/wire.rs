//! Wire encoding helpers and message-kind tags.
//!
//! Real payload bytes travel in the medium's packets; the *accounting*
//! size of each message is the paper's nominal size (from
//! `egka_energy::wire` and `egka_energy::complexity`), passed separately
//! as `nominal_bits`. The encodings here are honest little codecs
//! (length-prefixed big-endian integers), so the "actual bits" column of
//! the reports reflects a real serialization rather than the paper's
//! idealized sizes.

use bytes::Bytes;
use egka_bigint::Ubig;

use crate::ident::UserId;

/// Message kinds, one namespace across all protocols (a node participates
/// in exactly one protocol run at a time; rounds are strictly ordered).
pub mod kind {
    /// Initial GKA Round 1 broadcast `m_i`.
    pub const ROUND1: u16 = 1;
    /// Initial GKA Round 2 broadcast `m'_i`.
    pub const ROUND2: u16 = 2;
    /// "All members retransmit" — repeat of Round 1 after a failed check.
    pub const RETRY_ROUND1: u16 = 3;
    /// Repeat of Round 2 after a failed check.
    pub const RETRY_ROUND2: u16 = 4;

    /// Join Round 1: the newcomer's announcement `m_{n+1}`.
    pub const JOIN_ANNOUNCE: u16 = 10;
    /// Join Round 2: controller's `m'_1`.
    pub const JOIN_CONTROLLER: u16 = 11;
    /// Join Round 2: sponsor's `m''_n`.
    pub const JOIN_SPONSOR: u16 = 12;
    /// Join Round 3: sponsor → newcomer unicast `m'''_n`.
    pub const JOIN_HANDOFF: u16 = 13;

    /// Merge Round 1 controller broadcast (`m'_1` / `m'_{n+1}`).
    pub const MERGE_R1: u16 = 20;
    /// Merge Round 2 controller broadcast (`m''`).
    pub const MERGE_R2: u16 = 21;
    /// Merge Round 3 controller broadcast (`m'''`).
    pub const MERGE_R3: u16 = 22;

    /// Leave/Partition Round 1 (odd-indexed refresh).
    pub const LP_ROUND1: u16 = 30;
    /// Leave/Partition Round 2.
    pub const LP_ROUND2: u16 = 31;
}

/// Encoding error (truncated or malformed buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description of what failed.
    pub what: &'static str,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "malformed message: {}", self.what)
    }
}

impl std::error::Error for DecodeError {}

/// A byte-buffer writer for protocol messages.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a 32-bit identity.
    pub fn put_id(&mut self, id: UserId) -> &mut Self {
        self.buf.extend_from_slice(&id.to_bytes());
        self
    }

    /// Appends a length-prefixed big-endian integer (u16 length).
    pub fn put_ubig(&mut self, v: &Ubig) -> &mut Self {
        let bytes = v.to_bytes_be();
        debug_assert!(bytes.len() <= u16::MAX as usize);
        self.buf
            .extend_from_slice(&(bytes.len() as u16).to_be_bytes());
        self.buf.extend_from_slice(&bytes);
        self
    }

    /// Appends a length-prefixed opaque byte string (u16 length).
    pub fn put_bytes(&mut self, b: &[u8]) -> &mut Self {
        debug_assert!(b.len() <= u16::MAX as usize);
        self.buf.extend_from_slice(&(b.len() as u16).to_be_bytes());
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a length-prefixed opaque byte string with a u32 length —
    /// for state blobs (sealed sessions) that can outgrow the u16 wire
    /// prefix of [`Writer::put_bytes`].
    pub fn put_blob(&mut self, b: &[u8]) -> &mut Self {
        debug_assert!(b.len() <= u32::MAX as usize);
        self.buf.extend_from_slice(&(b.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a raw byte tag.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a 32-bit big-endian integer.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a 64-bit big-endian integer.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip —
    /// state codecs must never drift through decimal formatting).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.put_u64(v.to_bits())
    }

    /// Finishes into a shareable buffer.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// A cursor reader over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a 32-bit identity.
    pub fn get_id(&mut self) -> Result<UserId, DecodeError> {
        let b = self.take(4, "truncated id")?;
        Ok(UserId::from_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a length-prefixed big integer.
    pub fn get_ubig(&mut self) -> Result<Ubig, DecodeError> {
        let len = self.take(2, "truncated length")?;
        let len = u16::from_be_bytes([len[0], len[1]]) as usize;
        Ok(Ubig::from_bytes_be(self.take(len, "truncated integer")?))
    }

    /// Reads a length-prefixed opaque byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take(2, "truncated length")?;
        let len = u16::from_be_bytes([len[0], len[1]]) as usize;
        self.take(len, "truncated bytes")
    }

    /// Reads a u32-length-prefixed byte string written by
    /// [`Writer::put_blob`].
    pub fn get_blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take(4, "truncated blob length")?;
        let len = u32::from_be_bytes([len[0], len[1], len[2], len[3]]) as usize;
        self.take(len, "truncated blob")
    }

    /// Reads a raw byte tag.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "truncated tag")?[0])
    }

    /// Reads a 32-bit big-endian integer.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "truncated u32")?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a 64-bit big-endian integer.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "truncated u64")?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` bit pattern written by [`Writer::put_f64`].
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Fails unless the whole payload was consumed (catches codec drift).
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError {
                what: "trailing bytes",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_fields() {
        let z = Ubig::from_hex("deadbeefcafef00d").unwrap();
        let mut w = Writer::new();
        w.put_id(UserId(42)).put_ubig(&z).put_bytes(b"sig");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_id().unwrap(), UserId(42));
        assert_eq!(r.get_ubig().unwrap(), z);
        assert_eq!(r.get_bytes().unwrap(), b"sig");
        r.expect_end().unwrap();
    }

    #[test]
    fn zero_encodes_empty() {
        let mut w = Writer::new();
        w.put_ubig(&Ubig::zero());
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(r.get_ubig().unwrap().is_zero());
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = Writer::new();
        w.put_ubig(&Ubig::from_u64(0xffff));
        let buf = w.finish();
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert!(r.get_ubig().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_id(UserId(1)).put_bytes(b"x");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        let _ = r.get_id().unwrap();
        assert!(r.expect_end().is_err());
    }
}
