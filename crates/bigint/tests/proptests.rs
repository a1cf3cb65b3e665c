//! Property-based tests for the bigint substrate: ring laws, division
//! identity, modular-arithmetic identities and Montgomery/plain agreement.

use egka_bigint::{gcd, mod_inverse, mod_mul, mod_pow, MontField, Ubig};
use proptest::prelude::*;

/// Strategy: a Ubig with up to `max_limbs` random limbs.
fn ubig(max_limbs: usize) -> impl Strategy<Value = Ubig> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Ubig::from_limbs)
}

/// Strategy: a non-zero Ubig.
fn ubig_nonzero(max_limbs: usize) -> impl Strategy<Value = Ubig> {
    ubig(max_limbs).prop_filter("non-zero", |v| !v.is_zero())
}

/// Strategy: an odd Ubig > 1 (valid Montgomery modulus).
fn ubig_odd_modulus(max_limbs: usize) -> impl Strategy<Value = Ubig> {
    ubig_nonzero(max_limbs).prop_map(|mut v| {
        if v.is_even() {
            v = v.add_ref(&Ubig::one());
        }
        if v.is_one() {
            v = v.add_ref(&Ubig::from_u64(2));
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutative(a in ubig(8), b in ubig(8)) {
        prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
    }

    #[test]
    fn add_associative(a in ubig(6), b in ubig(6), c in ubig(6)) {
        prop_assert_eq!(a.add_ref(&b).add_ref(&c), a.add_ref(&b.add_ref(&c)));
    }

    #[test]
    fn add_sub_roundtrip(a in ubig(8), b in ubig(8)) {
        let sum = a.add_ref(&b);
        prop_assert_eq!(sum.checked_sub(&b).unwrap(), a);
    }

    #[test]
    fn mul_commutative(a in ubig(8), b in ubig(8)) {
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
    }

    #[test]
    fn mul_distributes_over_add(a in ubig(5), b in ubig(5), c in ubig(5)) {
        let lhs = a.mul_ref(&b.add_ref(&c));
        let rhs = a.mul_ref(&b).add_ref(&a.mul_ref(&c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn karatsuba_threshold_agreement(a in ubig(40), b in ubig(40)) {
        // mul_ref dispatches by size; verify against the naive O(n^2)
        // accumulation done limb-by-limb through shifted adds.
        let mut acc = Ubig::zero();
        for (i, &limb) in b.limbs().iter().enumerate() {
            let part = a.mul_ref(&Ubig::from_u64(limb)).shl_bits(64 * i as u32);
            acc = acc.add_ref(&part);
        }
        prop_assert_eq!(a.mul_ref(&b), acc);
    }

    #[test]
    fn division_identity(a in ubig(12), b in ubig_nonzero(6)) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul_ref(&b).add_ref(&r), a);
    }

    #[test]
    fn shl_shr_roundtrip(a in ubig(8), sh in 0u32..512) {
        prop_assert_eq!(a.shl_bits(sh).shr_bits(sh), a);
    }

    #[test]
    fn hex_roundtrip(a in ubig(8)) {
        prop_assert_eq!(Ubig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in ubig(6)) {
        prop_assert_eq!(Ubig::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn bytes_roundtrip(a in ubig(8)) {
        prop_assert_eq!(Ubig::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(5), b in ubig_nonzero(5)) {
        let g = gcd(&a, &b);
        prop_assert!(a.rem_ref(&g).is_zero());
        prop_assert!(b.rem_ref(&g).is_zero());
    }

    #[test]
    fn gcd_commutative(a in ubig(5), b in ubig(5)) {
        prop_assert_eq!(gcd(&a, &b), gcd(&b, &a));
    }

    #[test]
    fn mod_pow_exponent_addition(
        a in ubig(4),
        e1 in 0u64..2000,
        e2 in 0u64..2000,
        m in ubig_odd_modulus(4),
    ) {
        let lhs = mod_pow(&a, &Ubig::from_u64(e1 + e2), &m);
        let rhs = mod_mul(
            &mod_pow(&a, &Ubig::from_u64(e1), &m),
            &mod_pow(&a, &Ubig::from_u64(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn montgomery_matches_square_and_multiply(
        a in ubig(4),
        e in 0u64..5000,
        m in ubig_odd_modulus(4),
    ) {
        let fast = mod_pow(&a, &Ubig::from_u64(e), &m);
        // reference: binary square-and-multiply with explicit reductions
        let mut acc = Ubig::one().rem_ref(&m);
        let base = a.rem_ref(&m);
        let eb = Ubig::from_u64(e);
        for i in (0..eb.bit_length()).rev() {
            acc = mod_mul(&acc, &acc, &m);
            if eb.bit(i) {
                acc = mod_mul(&acc, &base, &m);
            }
        }
        prop_assert_eq!(fast, acc);
    }

    #[test]
    fn montgomery_mul_matches_plain(a in ubig(6), b in ubig(6), m in ubig_odd_modulus(6)) {
        let f = MontField::<8>::new(&m);
        let fast = f.to_ubig(&f.mul(&f.to_mont(&a), &f.to_mont(&b)));
        prop_assert_eq!(fast, mod_mul(&a, &b, &m));
    }

    #[test]
    fn inverse_is_inverse(a in ubig_nonzero(5), m in ubig_odd_modulus(5)) {
        if let Some(inv) = mod_inverse(&a, &m) {
            prop_assert_eq!(mod_mul(&a, &inv, &m), Ubig::one().rem_ref(&m));
            prop_assert!(inv < m);
        } else {
            prop_assert!(!gcd(&a, &m).is_one());
        }
    }
}
