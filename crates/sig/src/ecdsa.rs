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
//!
//! A key verified against again and again — a CA's, one verification per
//! certificate — can be held as an [`EcdsaPreparedKey`]:
//! [`Ecdsa::verify_prepared`] makes the same checks as [`Ecdsa::verify`]
//! but evaluates `u1·G + u2·Q` as one walk over the generator's comb and
//! a comb of `Q` built on first use ([`Curve::mul_gen_add`]).

use std::sync::{Arc, OnceLock};

use egka_bigint::Ubig;
use egka_ec::{Curve, Point, PreparedPoint};
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

/// A public point whose comb is built on its first verification and
/// shared by every clone; it is freed with the last clone.
#[derive(Clone, Debug)]
pub struct EcdsaPreparedKey {
    q: Point,
    teeth: u32,
    comb: Arc<OnceLock<PreparedPoint>>,
}

impl EcdsaPreparedKey {
    /// Wraps `q`; no work is done until a verification needs the comb,
    /// which gets the curve's default [`egka_ec::PREPARED_TEETH`].
    pub fn new(q: Point) -> Self {
        Self::with_teeth(q, egka_ec::PREPARED_TEETH)
    }

    /// [`EcdsaPreparedKey::new`] with a comb of `teeth` teeth (see
    /// [`Curve::prepare_teeth`]), for keys of which many are held at once.
    pub fn with_teeth(q: Point, teeth: u32) -> Self {
        EcdsaPreparedKey {
            q,
            teeth,
            comb: Arc::default(),
        }
    }

    /// The public point.
    pub fn point(&self) -> &Point {
        &self.q
    }
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
        let c = &self.curve;
        // One fused double-scalar multiplication: u1·G + u2·Q.
        self.verify_with(q, msg, sig, |u1, u2| {
            c.mul_mul_add(u1, c.generator(), u2, q)
        })
    }

    /// [`Ecdsa::verify`] under a prepared key: the same checks and result,
    /// with `u1·G + u2·Q` walked over the two combs. The first call that
    /// passes the checks builds `Q`'s comb.
    pub fn verify_prepared(
        &self,
        key: &EcdsaPreparedKey,
        msg: &[u8],
        sig: &EcdsaSignature,
    ) -> bool {
        let c = &self.curve;
        self.verify_with(&key.q, msg, sig, |u1, u2| {
            let comb = key.comb.get_or_init(|| c.prepare_teeth(&key.q, key.teeth));
            c.mul_gen_add(u1, u2, comb)
        })
    }

    /// The checks both verifiers share, with `u1·G + u2·Q` left to `mul`.
    fn verify_with(
        &self,
        q: &Point,
        msg: &[u8],
        sig: &EcdsaSignature,
        mul: impl FnOnce(&Ubig, &Ubig) -> Point,
    ) -> bool {
        let c = &self.curve;
        let n = c.order();
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            return false;
        }
        if q.is_infinity() || !c.is_on_curve(q) {
            return false;
        }
        let Some(w) = c.scalar_inv(&sig.s) else {
            return false;
        };
        let h = self.hash_msg(msg);
        let u1 = c.scalar_mul(&h, &w);
        let u2 = c.scalar_mul(&sig.r, &w);
        match mul(&u1, &u2).xy() {
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

    /// [`Ecdsa::verify`], asserting that [`Ecdsa::verify_prepared`] agrees.
    fn verify(e: &Ecdsa, q: &Point, msg: &[u8], sig: &EcdsaSignature) -> bool {
        let plain = e.verify(q, msg, sig);
        for teeth in [1, 4, egka_ec::PREPARED_TEETH, 8] {
            let key = EcdsaPreparedKey::with_teeth(q.clone(), teeth);
            assert_eq!(
                e.verify_prepared(&key, msg, sig),
                plain,
                "{teeth} teeth: {sig:?}"
            );
        }
        plain
    }

    #[test]
    fn sign_verify_roundtrip() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let kp = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp, b"message");
        assert!(verify(&e, &kp.q, b"message", &sig));
    }

    #[test]
    fn rejects_wrong_message_and_key() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let kp1 = e.keygen(&mut rng);
        let kp2 = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp1, b"message");
        assert!(!verify(&e, &kp1.q, b"other", &sig));
        assert!(!verify(&e, &kp2.q, b"message", &sig));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let kp = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp, b"m");
        let n = e.curve().order();
        assert!(!verify(&e, &Point::Infinity, b"m", &sig));
        let bad = [
            (Ubig::zero(), sig.s.clone()),
            (sig.r.clone(), n.clone()),
            (sig.r.add_ref(n), sig.s.clone()),
            (sig.r.clone(), sig.s.add_ref(n)),
            (sig.r.clone(), egka_bigint::mod_add(&sig.s, &Ubig::one(), n)),
        ];
        for (r, s) in bad {
            assert!(!verify(&e, &kp.q, b"m", &EcdsaSignature { r, s }));
        }
    }

    #[test]
    fn rejects_off_curve_key() {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let kp = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp, b"m");
        let off = Point::affine(Ubig::from_u64(1), Ubig::from_u64(1));
        assert!(!verify(&e, &off, b"m", &sig));
    }

    #[test]
    fn works_on_larger_curves() {
        for curve in [egka_ec::secp192r1(), egka_ec::secp256k1()] {
            let e = Ecdsa::new(curve);
            let mut rng = ChaChaRng::seed_from_u64(5);
            let kp = e.keygen(&mut rng);
            let sig = e.sign(&mut rng, &kp, b"x");
            assert!(verify(&e, &kp.q, b"x", &sig), "{}", e.curve().name);
        }
    }
}
