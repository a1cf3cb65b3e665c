//! Named curve parameter sets.
//!
//! * [`secp160r1`] — the "160-bit ECDSA" curve the paper prices in Tables
//!   1–3 (86-byte certificates, 320-bit signatures).
//! * [`secp192r1`] / [`secp256k1`] — larger standard curves used by tests
//!   and benches to show the substrate generalizes.
//! * [`tiny19`] — a 19-point toy curve for exhaustive unit tests.
//!
//! All constants are validated on construction ([`crate::curve::Curve::new`]
//! checks the generator is on-curve and has the claimed order) and were
//! additionally cross-checked against an independent implementation.
//!
//! Each curve is built once per process: every call returns a clone of
//! that one build, and clones share its fixed-limb arithmetic, so the
//! order check, the generator's comb and its wNAF table are paid once.

use std::sync::OnceLock;

use egka_bigint::Ubig;

use crate::curve::{Curve, Point};
use crate::field::Fp;

fn h(s: &str) -> Ubig {
    Ubig::from_hex(s).expect("valid hex constant")
}

/// SEC 2 secp160r1: `p = 2^160 − 2^31 − 1`, `a = −3`.
///
/// This is the paper's ECDSA curve: 160-bit order gives the 2×160-bit
/// signature of Table 3, and the `a = −3` fast doubling path.
pub fn secp160r1() -> Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE
        .get_or_init(|| {
            let p = h("ffffffffffffffffffffffffffffffff7fffffff");
            let a = p.checked_sub(&Ubig::from_u64(3)).unwrap();
            Curve::new(
                "secp160r1",
                Fp::new(p),
                a,
                h("1c97befc54bd7a8b65acf89f81d4d4adc565fa45"),
                h("0100000000000000000001f4c8f927aed3ca752257"),
                Ubig::one(),
                Point::affine(
                    h("4a96b5688ef573284664698968c38bb913cbfc82"),
                    h("23a628553168947d59dcc912042351377ac5fb32"),
                ),
            )
        })
        .clone()
}

/// SEC 2 secp192r1 (NIST P-192): `p = 2^192 − 2^64 − 1`, `a = −3`.
pub fn secp192r1() -> Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE
        .get_or_init(|| {
            let p = h("fffffffffffffffffffffffffffffffeffffffffffffffff");
            let a = p.checked_sub(&Ubig::from_u64(3)).unwrap();
            Curve::new(
                "secp192r1",
                Fp::new(p),
                a,
                h("64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1"),
                h("ffffffffffffffffffffffff99def836146bc9b1b4d22831"),
                Ubig::one(),
                Point::affine(
                    h("188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012"),
                    h("07192b95ffc8da78631011ed6b24cdd573f977a11e794811"),
                ),
            )
        })
        .clone()
}

/// SEC 2 secp256k1: `p = 2^256 − 2^32 − 977`, `y² = x³ + 7`.
pub fn secp256k1() -> Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE
        .get_or_init(|| {
            Curve::new(
                "secp256k1",
                Fp::new(h(
                    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
                )),
                Ubig::zero(),
                Ubig::from_u64(7),
                h("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"),
                Ubig::one(),
                Point::affine(
                    h("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
                    h("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
                ),
            )
        })
        .clone()
}

/// Toy curve `y² = x³ + x + 1` over `F_19` (21 points, generator `(0, 1)`).
///
/// Exhaustive group-law tests live on this curve; it is also handy for
/// property tests that would be slow on real curves.
pub fn tiny19() -> Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE
        .get_or_init(|| {
            Curve::new(
                "tiny19",
                Fp::new(Ubig::from_u64(19)),
                Ubig::from_u64(1),
                Ubig::from_u64(1),
                Ubig::from_u64(21),
                Ubig::from_u64(1),
                Point::affine(Ubig::from_u64(0), Ubig::from_u64(1)),
            )
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    /// Construction itself validates on-curve + order; exercise it for all.
    #[test]
    fn named_curves_construct() {
        for c in [secp160r1(), secp192r1(), secp256k1(), tiny19()] {
            assert!(c.is_on_curve(c.generator()));
        }
    }

    #[test]
    fn secp160r1_scalar_mul_roundtrip() {
        let c = secp160r1();
        let mut rng = ChaChaRng::seed_from_u64(5);
        let k = c.random_scalar(&mut rng);
        let p = c.mul_gen(&k);
        assert!(c.is_on_curve(&p));
        // (order − k)·G = −(k·G)
        let k_neg = c.order().checked_sub(&k).unwrap();
        assert_eq!(c.mul_gen(&k_neg), c.neg(&p));
    }

    #[test]
    fn secp160r1_distributivity() {
        let c = secp160r1();
        let mut rng = ChaChaRng::seed_from_u64(6);
        let a = c.random_scalar(&mut rng);
        let b = c.random_scalar(&mut rng);
        let sum = egka_bigint::mod_add(&a, &b, c.order());
        let lhs = c.mul_gen(&sum);
        let rhs = c.add(&c.mul_gen(&a), &c.mul_gen(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn compress_roundtrip_all_curves() {
        let mut rng = ChaChaRng::seed_from_u64(7);
        for c in [secp160r1(), secp192r1(), secp256k1()] {
            let p = c.mul_gen(&c.random_scalar(&mut rng));
            let bytes = c.compress(&p);
            assert_eq!(bytes.len(), 1 + c.field().byte_len());
            assert_eq!(c.decompress(&bytes).as_ref(), Some(&p), "{}", c.name);
        }
    }

    #[test]
    fn every_call_shares_one_build() {
        assert!(secp160r1().shares_arith(&secp160r1()));
        assert!(tiny19().shares_arith(&tiny19()));
        assert!(!secp160r1().shares_arith(&secp192r1()));
    }

    #[test]
    fn p192_known_multiple() {
        // 2G computed two ways.
        let c = secp192r1();
        let two_g = c.double(c.generator());
        assert_eq!(c.mul_gen(&Ubig::from_u64(2)), two_g);
        assert!(c.is_on_curve(&two_g));
    }
}
