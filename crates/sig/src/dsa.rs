//! DSA over a Schnorr group (the paper's "1024-bit DSA" baseline).
//!
//! FIPS 186-style: 1024-bit `p`, 160-bit `q`, signature `(r, s)` of 2×160
//! bits (Table 3, note 1). The certificate-based BD baseline signs its
//! round-2 message with this scheme and ships a 263-byte DSA certificate.

use egka_bigint::{mod_mul, random_below, SchnorrGroup, Ubig};
use egka_hash::hash_to_below;
use rand::Rng;

/// Domain tag for message hashing.
const MSG_TAG: &[u8] = b"egka.dsa.msg.v1";

/// A DSA key pair over a Schnorr group.
#[derive(Clone, Debug)]
pub struct DsaKeyPair {
    /// Secret exponent `x ∈ [1, q)`.
    pub x: Ubig,
    /// Public key `y = g^x mod p`.
    pub y: Ubig,
}

/// A DSA signature `(r, s)`, both in `[1, q)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DsaSignature {
    /// `r = (g^k mod p) mod q`.
    pub r: Ubig,
    /// `s = k⁻¹·(H(m) + x·r) mod q`.
    pub s: Ubig,
}

/// DSA over a fixed Schnorr group.
#[derive(Clone, Debug)]
pub struct Dsa {
    group: SchnorrGroup,
}

impl Dsa {
    /// Wraps a (caller-validated) Schnorr group.
    pub fn new(group: SchnorrGroup) -> Self {
        Dsa { group }
    }

    /// The underlying group.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// `H(m) mod q` — DSA's truncated message hash.
    fn hash_msg(&self, msg: &[u8]) -> Ubig {
        hash_to_below(MSG_TAG, msg, &self.group.q)
    }

    /// Generates a key pair.
    pub fn keygen<R: Rng + ?Sized>(&self, rng: &mut R) -> DsaKeyPair {
        let x = loop {
            let x = random_below(rng, &self.group.q);
            if !x.is_zero() {
                break x;
            }
        };
        let y = self.group.g_pow(&x);
        DsaKeyPair { x, y }
    }

    /// Signs `msg` (retries internally on the measure-zero `r = 0` / `s = 0`
    /// degeneracies, per FIPS 186).
    pub fn sign<R: Rng + ?Sized>(&self, rng: &mut R, key: &DsaKeyPair, msg: &[u8]) -> DsaSignature {
        let q = &self.group.q;
        let h = self.hash_msg(msg);
        loop {
            let k = random_below(rng, q);
            if k.is_zero() {
                continue;
            }
            let r = self.group.g_pow(&k).rem_ref(q);
            if r.is_zero() {
                continue;
            }
            let k_inv = q.inverse(&k).expect("q prime, k != 0");
            let s = mod_mul(&k_inv, &h.add_ref(&mod_mul(&key.x, &r, q)), q);
            if s.is_zero() {
                continue;
            }
            return DsaSignature { r, s };
        }
    }

    /// Verifies `(r, s)` on `msg` under public key `y`.
    pub fn verify(&self, y: &Ubig, msg: &[u8], sig: &DsaSignature) -> bool {
        let (p, q) = (&self.group.p, &self.group.q);
        if sig.r.is_zero() || sig.r >= **q || sig.s.is_zero() || sig.s >= **q {
            return false;
        }
        let w = match q.inverse(&sig.s) {
            Some(w) => w,
            None => return false,
        };
        let h = self.hash_msg(msg);
        let u1 = mod_mul(&h, &w, q);
        let u2 = mod_mul(&sig.r, &w, q);
        let v = mod_mul(&self.group.g_pow(&u1), &p.pow(y, &u2), p).rem_ref(q);
        v == sig.r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    /// Small Schnorr group for fast tests.
    fn dsa() -> Dsa {
        let mut rng = ChaChaRng::seed_from_u64(0x445341);
        Dsa::new(egka_bigint::gen_schnorr_group(&mut rng, 256, 96))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let d = dsa();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let kp = d.keygen(&mut rng);
        let sig = d.sign(&mut rng, &kp, b"message");
        assert!(d.verify(&kp.y, b"message", &sig));
    }

    #[test]
    fn rejects_wrong_message() {
        let d = dsa();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let kp = d.keygen(&mut rng);
        let sig = d.sign(&mut rng, &kp, b"message");
        assert!(!d.verify(&kp.y, b"other", &sig));
    }

    #[test]
    fn rejects_wrong_key() {
        let d = dsa();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let kp1 = d.keygen(&mut rng);
        let kp2 = d.keygen(&mut rng);
        let sig = d.sign(&mut rng, &kp1, b"message");
        assert!(!d.verify(&kp2.y, b"message", &sig));
    }

    #[test]
    fn rejects_out_of_range_components() {
        let d = dsa();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let kp = d.keygen(&mut rng);
        let sig = d.sign(&mut rng, &kp, b"m");
        let bad_r = DsaSignature {
            r: Ubig::clone(&d.group().q),
            s: sig.s.clone(),
        };
        assert!(!d.verify(&kp.y, b"m", &bad_r));
        let bad_s = DsaSignature {
            r: sig.r.clone(),
            s: Ubig::zero(),
        };
        assert!(!d.verify(&kp.y, b"m", &bad_s));
    }

    #[test]
    fn signatures_are_randomized() {
        let d = dsa();
        let mut rng = ChaChaRng::seed_from_u64(5);
        let kp = d.keygen(&mut rng);
        let s1 = d.sign(&mut rng, &kp, b"m");
        let s2 = d.sign(&mut rng, &kp, b"m");
        assert_ne!(s1, s2, "fresh k per signature");
        assert!(d.verify(&kp.y, b"m", &s1) && d.verify(&kp.y, b"m", &s2));
    }

    #[test]
    fn tampered_signature_rejected() {
        let d = dsa();
        let mut rng = ChaChaRng::seed_from_u64(6);
        let kp = d.keygen(&mut rng);
        let mut sig = d.sign(&mut rng, &kp, b"m");
        sig.r = egka_bigint::mod_add(&sig.r, &Ubig::one(), &d.group().q);
        assert!(!d.verify(&kp.y, b"m", &sig));
    }
}
