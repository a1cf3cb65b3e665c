//! HKDF (RFC 5869) over HMAC-SHA256.
//!
//! The dynamic GKA protocols derive AES keys from the current group key
//! `K ∈ Z_p^*`; HKDF gives a clean bridge from group elements to cipher keys.

use crate::digest::Digest;
use crate::hmac::Hmac;
use crate::sha256::Sha256;

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    Hmac::<Sha256>::mac(salt, ikm)
}

/// HKDF-Expand: derives `len` bytes from `prk` under `info`.
///
/// # Panics
/// Panics if `len > 255 * 32` (RFC 5869 limit).
pub fn hkdf_expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * Sha256::OUTPUT_SIZE, "HKDF output too long");
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    let keyed = Hmac::<Sha256>::new(prk);
    while out.len() < len {
        let mut h = keyed.clone();
        h.update(&t);
        h.update(info);
        h.update(&[counter]);
        t = h.finalize();
        let take = (len - out.len()).min(t.len());
        out.extend_from_slice(&t[..take]);
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    out
}

/// One-shot HKDF: extract-then-expand.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 Appendix A test vectors.

    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case3_zero_salt_info() {
        let ikm = [0x0b; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_lengths() {
        let prk = hkdf_extract(b"salt", b"ikm");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(hkdf_expand(&prk, b"info", len).len(), len);
        }
    }

    #[test]
    fn different_info_different_keys() {
        let prk = hkdf_extract(b"s", b"k");
        assert_ne!(hkdf_expand(&prk, b"a", 16), hkdf_expand(&prk, b"b", 16));
    }
}
