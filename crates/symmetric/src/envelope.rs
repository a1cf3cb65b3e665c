//! The `E_K(·)` envelope used by the paper's dynamic protocols.
//!
//! The paper writes `E_K(m)` for "symmetric key encryption of m under the
//! current group key K" and has receivers check an identity embedded in the
//! plaintext to validate the decryption. This module provides that envelope:
//! AES-128-CBC with a random IV plus an HMAC-SHA256 tag (encrypt-then-MAC),
//! with the encryption and MAC keys derived from the group-key bytes via
//! HKDF. The identity check the paper relies on is then performed by the
//! protocol layer on the decrypted plaintext. [`Envelope::seal_with_iv`]
//! writes the same format under a caller-chosen IV, for sealers that derive
//! a synthetic IV from the plaintext so that equal inputs seal to equal
//! bytes.

use egka_hash::{hkdf, Hmac, Sha256};
use rand::Rng;

use crate::aes::Aes;
use crate::modes::{cbc_decrypt, cbc_encrypt};

/// Length of the HMAC tag appended to each envelope (truncated SHA-256).
pub const TAG_LEN: usize = 16;

/// Envelope sealing/opening failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Ciphertext too short to contain IV + one block + tag.
    Truncated,
    /// The authentication tag did not verify.
    BadTag,
    /// CBC padding was malformed after a valid tag (should not happen).
    BadPadding,
}

impl core::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "envelope too short"),
            EnvelopeError::BadTag => write!(f, "envelope tag mismatch"),
            EnvelopeError::BadPadding => write!(f, "envelope padding invalid"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// A symmetric envelope keyed by raw group-key material.
#[derive(Clone)]
pub struct Envelope {
    enc: Aes,
    /// HMAC keyed once; each tag starts from a clone of it.
    mac: Hmac<Sha256>,
}

impl Envelope {
    /// Derives envelope keys from arbitrary key material (e.g. the group key
    /// `K` serialized as bytes).
    pub fn from_key_material(ikm: &[u8]) -> Self {
        let okm = hkdf(b"egka.envelope.v1", ikm, b"enc|mac", 16 + 32);
        Envelope {
            enc: Aes::new(&okm[..16]),
            mac: Hmac::new(&okm[16..]),
        }
    }

    fn tag(&self, body: &[u8]) -> Vec<u8> {
        let mut mac = self.mac.clone();
        mac.update(body);
        mac.finalize()
    }

    /// Seals `plaintext` under a random IV: returns `IV || ciphertext || tag`.
    pub fn seal<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        self.seal_with_iv(&iv, plaintext)
    }

    /// Seals `plaintext` under a caller-chosen IV, in the same format as
    /// [`Envelope::seal`]. CBC needs an IV the adversary cannot predict
    /// before seeing the plaintext, so `iv` must be random or a keyed
    /// function of the plaintext itself (a synthetic IV); a counter or any
    /// other public value is not enough.
    pub fn seal_with_iv(&self, iv: &[u8; 16], plaintext: &[u8]) -> Vec<u8> {
        let ct = cbc_encrypt(&self.enc, iv, plaintext);
        let mut out = Vec::with_capacity(16 + ct.len() + TAG_LEN);
        out.extend_from_slice(iv);
        out.extend_from_slice(&ct);
        let tag = self.tag(&out);
        out.extend_from_slice(&tag[..TAG_LEN]);
        out
    }

    /// Opens an envelope produced by [`Envelope::seal`].
    pub fn open(&self, sealed: &[u8]) -> Result<Vec<u8>, EnvelopeError> {
        if sealed.len() < 16 + 16 + TAG_LEN {
            return Err(EnvelopeError::Truncated);
        }
        let (body, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expect = self.tag(body);
        let ok = expect[..TAG_LEN]
            .iter()
            .zip(tag)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0;
        if !ok {
            return Err(EnvelopeError::BadTag);
        }
        let iv: [u8; 16] = body[..16].try_into().unwrap();
        cbc_decrypt(&self.enc, &iv, &body[16..]).ok_or(EnvelopeError::BadPadding)
    }

    /// Sealed size for a given plaintext length (used by the energy model to
    /// compute transmitted bits without materializing ciphertexts).
    pub fn sealed_len(plaintext_len: usize) -> usize {
        let padded = plaintext_len + (16 - plaintext_len % 16);
        16 + padded + TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let env = Envelope::from_key_material(b"group key material");
        for len in [0usize, 1, 15, 16, 17, 100] {
            let pt: Vec<u8> = (0..len as u8).collect();
            let sealed = env.seal(&mut rng, &pt);
            assert_eq!(sealed.len(), Envelope::sealed_len(len));
            assert_eq!(env.open(&sealed).unwrap(), pt);
        }
    }

    #[test]
    fn tampering_is_detected() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let env = Envelope::from_key_material(b"k");
        let mut sealed = env.seal(&mut rng, b"attack at dawn");
        for i in 0..sealed.len() {
            sealed[i] ^= 1;
            assert!(
                matches!(env.open(&sealed), Err(EnvelopeError::BadTag)),
                "byte {i}"
            );
            sealed[i] ^= 1;
        }
        assert!(env.open(&sealed).is_ok());
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        let env1 = Envelope::from_key_material(b"key one");
        let env2 = Envelope::from_key_material(b"key two");
        let sealed = env1.seal(&mut rng, b"secret");
        assert_eq!(env2.open(&sealed), Err(EnvelopeError::BadTag));
    }

    #[test]
    fn tags_match_the_one_shot_hmac_over_the_derived_key() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        for ikm in [&b"k"[..], b"group key material", &[0xa5; 96]] {
            let env = Envelope::from_key_material(ikm);
            let mac_key = &hkdf(b"egka.envelope.v1", ikm, b"enc|mac", 16 + 32)[16..];
            for len in [0usize, 1, 16, 100] {
                let sealed = env.seal(&mut rng, &vec![7u8; len]);
                let (body, tag) = sealed.split_at(sealed.len() - TAG_LEN);
                assert_eq!(tag, &Hmac::<Sha256>::mac(mac_key, body)[..TAG_LEN]);
            }
        }
    }

    #[test]
    fn truncated_rejected() {
        let env = Envelope::from_key_material(b"k");
        assert_eq!(env.open(&[0u8; 10]), Err(EnvelopeError::Truncated));
    }

    #[test]
    fn a_chosen_iv_seals_in_the_random_iv_format() {
        let env = Envelope::from_key_material(b"k");
        let iv = [0x5a; 16];
        let a = env.seal_with_iv(&iv, b"same message");
        assert_eq!(a, env.seal_with_iv(&iv, b"same message"));
        assert_eq!(&a[..16], &iv);
        assert_eq!(a.len(), Envelope::sealed_len(12));
        assert_eq!(env.open(&a).unwrap(), b"same message");
    }

    #[test]
    fn randomized_ivs_give_distinct_ciphertexts() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let env = Envelope::from_key_material(b"k");
        let a = env.seal(&mut rng, b"same message");
        let b = env.seal(&mut rng, b"same message");
        assert_ne!(a, b);
    }
}
