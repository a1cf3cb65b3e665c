//! ECDSA (the paper's "160-bit ECDSA" baseline, on secp160r1).
//!
//! Signature `(r, s)` of 2×160 bits (Table 3, note 1); certificates are
//! 86 bytes. Table 2 prices signing at one scalar multiplication (8.8 mJ)
//! and verification at ~1.24 scalar multiplications (10.9 mJ) — our
//! verifier's fused double-scalar multiplication matches that shape.
//!
//! The order-`n` scalar arithmetic (`k⁻¹`, `s⁻¹`, `u1`, `u2`) runs on the
//! curve's fixed-limb Montgomery field ([`Curve::scalar_mul`],
//! [`Curve::scalar_inv`]).

use egka_bigint::Ubig;
use egka_ec::{Curve, Point};
use egka_hash::hash_to_below;
use rand::Rng;

/// Domain tag for message hashing.
const MSG_TAG: &[u8] = b"egka.ecdsa.msg.v1";

/// An ECDSA key pair.
#[derive(Clone, Debug)]
pub struct EcdsaKeyPair {
    /// Secret scalar `d ∈ [1, order)`.
    pub d: Ubig,
    /// Public point `Q = d·G`.
    pub q: Point,
}

/// An ECDSA signature `(r, s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcdsaSignature {
    /// `r = x(k·G) mod order`.
    pub r: Ubig,
    /// `s = k⁻¹·(H(m) + d·r) mod order`.
    pub s: Ubig,
}

/// ECDSA over a fixed curve.
#[derive(Clone, Debug)]
pub struct Ecdsa {
    curve: Curve,
}

impl Ecdsa {
    /// Wraps a curve (use [`egka_ec::secp160r1`] for the paper profile).
    pub fn new(curve: Curve) -> Self {
        Ecdsa { curve }
    }

    /// The underlying curve.
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    pub(crate) fn hash_msg(&self, msg: &[u8]) -> Ubig {
        hash_to_below(MSG_TAG, msg, self.curve.order())
    }

    /// Generates a key pair.
    pub fn keygen<R: Rng + ?Sized>(&self, rng: &mut R) -> EcdsaKeyPair {
        let d = self.curve.random_scalar(rng);
        let q = self.curve.mul_gen(&d);
        EcdsaKeyPair { d, q }
    }

    /// Signs `msg`.
    pub fn sign<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        key: &EcdsaKeyPair,
        msg: &[u8],
    ) -> EcdsaSignature {
        let c = &self.curve;
        let n = c.order();
        let h = self.hash_msg(msg);
        loop {
            let k = c.random_scalar(rng);
            let kg = c.mul_gen(&k);
            let Some((x, _)) = kg.xy() else { continue };
            let r = x.rem_ref(n);
            if r.is_zero() {
                continue;
            }
            let k_inv = c.scalar_inv(&k).expect("order prime, k != 0");
            let s = c.scalar_mul(&k_inv, &h.add_ref(&c.scalar_mul(&key.d, &r)));
            if s.is_zero() {
                continue;
            }
            return EcdsaSignature { r, s };
        }
    }

    /// Verifies `(r, s)` on `msg` under public point `q`.
    pub fn verify(&self, q: &Point, msg: &[u8], sig: &EcdsaSignature) -> bool {
        let n = self.curve.order();
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            return false;
        }
        if q.is_infinity() || !self.curve.is_on_curve(q) {
            return false;
        }
        let c = &self.curve;
        let Some(w) = c.scalar_inv(&sig.s) else {
            return false;
        };
        let h = self.hash_msg(msg);
        let u1 = c.scalar_mul(&h, &w);
        let u2 = c.scalar_mul(&sig.r, &w);
        // One fused double-scalar multiplication: u1·G + u2·Q.
        let pt = c.mul_mul_add(&u1, c.generator(), &u2, q);
        match pt.xy() {
            None => false,
            Some((x, _)) => x.rem_ref(n) == sig.r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    fn ecdsa() -> Ecdsa {
        Ecdsa::new(egka_ec::secp160r1())
    }

    #[test]
    fn sign_verify_roundtrip() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let kp = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp, b"message");
        assert!(e.verify(&kp.q, b"message", &sig));
    }

    #[test]
    fn rejects_wrong_message_and_key() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let kp1 = e.keygen(&mut rng);
        let kp2 = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp1, b"message");
        assert!(!e.verify(&kp1.q, b"other", &sig));
        assert!(!e.verify(&kp2.q, b"message", &sig));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let kp = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp, b"m");
        assert!(!e.verify(&Point::Infinity, b"m", &sig));
        let bad = EcdsaSignature {
            r: Ubig::zero(),
            s: sig.s.clone(),
        };
        assert!(!e.verify(&kp.q, b"m", &bad));
        let bad2 = EcdsaSignature {
            r: sig.r.clone(),
            s: e.curve().order().clone(),
        };
        assert!(!e.verify(&kp.q, b"m", &bad2));
    }

    #[test]
    fn rejects_off_curve_key() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let kp = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp, b"m");
        let off = Point::affine(Ubig::from_u64(1), Ubig::from_u64(1));
        assert!(!e.verify(&off, b"m", &sig));
    }

    #[test]
    fn works_on_larger_curves() {
        for curve in [egka_ec::secp192r1(), egka_ec::secp256k1()] {
            let e = Ecdsa::new(curve);
            let mut rng = ChaChaRng::seed_from_u64(5);
            let kp = e.keygen(&mut rng);
            let sig = e.sign(&mut rng, &kp, b"x");
            assert!(e.verify(&kp.q, b"x", &sig), "{}", e.curve().name);
        }
    }
}
