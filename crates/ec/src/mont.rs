//! The curve fields' limb widths. The fixed-limb Montgomery kernel itself
//! ([`Fe<N>`], [`MontField<N>`]) lives in `egka-bigint`; this module
//! picks its limb count for each modulus, and [`crate::field::Fp::new`]
//! builds the one kernel at that width.
//!
//! [`MAX_LIMBS`] (4) covers every modulus the crate builds: the 160–256
//! bit curve fields and orders, the 194-bit pairing field and the toy
//! moduli. [`Width`] picks the limb count once, from the modulus size, so
//! a 160-bit field runs on 3 limbs rather than the 4 `egka-bigint` would
//! choose for exponentiation.

use egka_bigint::Ubig;
pub(crate) use egka_bigint::{Fe, MontField};

/// The widest modulus supported, in 64-bit limbs (256 bits).
pub(crate) const MAX_LIMBS: usize = 4;

/// One value per supported limb width, chosen once from a modulus size.
#[derive(Clone, Debug)]
pub(crate) enum Width<T1, T2, T3, T4> {
    W1(T1),
    W2(T2),
    W3(T3),
    W4(T4),
}

/// Runs `$body` with `$v` bound to whichever width `$width` holds; the
/// body is compiled once per limb count.
macro_rules! with_width {
    ($width:expr, $v:ident => $body:expr) => {
        match $width {
            $crate::mont::Width::W1($v) => $body,
            $crate::mont::Width::W2($v) => $body,
            $crate::mont::Width::W3($v) => $body,
            $crate::mont::Width::W4($v) => $body,
        }
    };
}
pub(crate) use with_width;

/// The limb count for modulus `m`.
///
/// # Panics
/// Panics if `m` is wider than [`MAX_LIMBS`] limbs.
pub(crate) fn width_of(m: &Ubig) -> usize {
    let n = m.limbs().len().max(1);
    assert!(
        n <= MAX_LIMBS,
        "{}-bit modulus exceeds the {}-bit fixed-limb capacity",
        m.bit_length(),
        64 * MAX_LIMBS
    );
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::{gen_pairing_group, PairingGroup};
    use crate::{secp160r1, secp192r1, secp256k1, Fp};
    use egka_bigint::{mod_add, mod_inverse, mod_mul, mod_pow, mod_sub};
    use egka_hash::ChaChaRng;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Every modulus the workspace builds a fixed-limb field for: the
    /// named curves' fields, secp160r1's 161-bit order, the paper-profile
    /// and a generated 96-bit pairing field, and two single-limb primes.
    fn moduli() -> &'static [Ubig] {
        static MODULI: OnceLock<Vec<Ubig>> = OnceLock::new();
        MODULI.get_or_init(|| {
            let c160 = secp160r1();
            let mut rng = ChaChaRng::seed_from_u64(0x6567_6b61);
            vec![
                c160.field().modulus().clone(),
                c160.order().clone(),
                secp192r1().field().modulus().clone(),
                secp256k1().field().modulus().clone(),
                PairingGroup::paper_fixture()
                    .curve()
                    .field()
                    .modulus()
                    .clone(),
                gen_pairing_group(&mut rng, 96, 64)
                    .curve()
                    .field()
                    .modulus()
                    .clone(),
                Ubig::from_u64(19),
                Ubig::from_u64(97),
            ]
        })
    }

    /// Checks every operation of the `N`-limb field for modulus `m`
    /// against the `Ubig` reference on operands `a`, `b`.
    fn check<const N: usize>(m: &Ubig, a: &Ubig, b: &Ubig) {
        let f = MontField::<N>::new(m);
        let (fa, fb) = (f.to_mont(a), f.to_mont(b));
        let (ra, rb) = (a.rem_ref(m), b.rem_ref(m));
        assert_eq!(f.to_ubig(&fa), ra, "round trip, m = {m}");
        assert_eq!(f.to_ubig(&f.mul(&fa, &fb)), mod_mul(a, b, m), "mul");
        assert_eq!(f.to_ubig(&f.sqr(&fa)), mod_mul(a, a, m), "sqr");
        assert_eq!(f.to_ubig(&f.add(&fa, &fb)), mod_add(&ra, &rb, m), "add");
        assert_eq!(f.to_ubig(&f.sub(&fa, &fb)), mod_sub(&ra, &rb, m), "sub");
        assert_eq!(
            f.to_ubig(&f.neg(&fa)),
            mod_sub(&Ubig::zero(), &ra, m),
            "neg"
        );
        assert_eq!(
            f.inv(&fa).map(|x| f.to_ubig(&x)),
            mod_inverse(&ra, m).filter(|_| !ra.is_zero()),
            "inv"
        );
    }

    /// [`check`] at `m`'s width, then every kernel-backed operation of
    /// the public [`Fp`] against the free `egka_bigint` references.
    fn check_any(m: &Ubig, a: &Ubig, b: &Ubig) {
        match width_of(m) {
            1 => check::<1>(m, a, b),
            2 => check::<2>(m, a, b),
            3 => check::<3>(m, a, b),
            _ => check::<4>(m, a, b),
        }
        let f = Fp::new(m.clone());
        let ra = a.rem_ref(m);
        let k = b.low_u64();
        assert_eq!(f.mul(a, b), mod_mul(a, b, m), "Fp::mul, m = {m}");
        assert_eq!(f.sqr(a), mod_mul(a, a, m), "Fp::sqr");
        assert_eq!(
            f.mul_u64(a, k),
            mod_mul(a, &Ubig::from_u64(k), m),
            "Fp::mul_u64"
        );
        assert_eq!(f.reduce(a), ra, "Fp::reduce");
        assert_eq!(
            f.inv(a),
            mod_inverse(&ra, m).filter(|_| !ra.is_zero()),
            "Fp::inv"
        );
        assert_eq!(f.pow(a, b), mod_pow(a, b, m), "Fp::pow");
        if f.is_3_mod_4() {
            let sq = mod_mul(a, a, m);
            let r = f.sqrt(&sq).expect("a square has a root");
            assert_eq!(mod_mul(&r, &r, m), sq, "Fp::sqrt");
        }
    }

    /// `seed`-derived operand, possibly as wide as `m` (and sometimes wider,
    /// to exercise reduction on the way in).
    fn operand(m: &Ubig, seed: u64, wide: bool) -> Ubig {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let bits = m.bit_length() + if wide { 70 } else { 0 };
        egka_bigint::random_bits(&mut rng, bits)
    }

    #[test]
    fn edge_operands_on_every_modulus() {
        for m in moduli() {
            let edges = [
                Ubig::zero(),
                Ubig::one(),
                m.checked_sub(&Ubig::from_u64(2)).unwrap(),
                m.checked_sub(&Ubig::one()).unwrap(),
            ];
            for a in &edges {
                for b in &edges {
                    check_any(m, a, b);
                }
            }
        }
    }

    #[test]
    fn widths_follow_the_modulus() {
        let widths: Vec<usize> = moduli().iter().map(width_of).collect();
        assert_eq!(widths, [3, 3, 3, 4, 4, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "fixed-limb capacity")]
    fn wider_than_256_bits_is_refused() {
        Fp::new(Ubig::one().shl_bits(256).add_ref(&Ubig::one()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_ubig_reference(sa in any::<u64>(), sb in any::<u64>(), wide in any::<bool>()) {
            for m in moduli() {
                let a = operand(m, sa, wide);
                let b = operand(m, sb, false);
                check_any(m, &a, &b);
            }
        }
    }
}
