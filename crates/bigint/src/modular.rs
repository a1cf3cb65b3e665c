//! Modular arithmetic on [`Ubig`]: add/sub/mul/pow mod m, gcd, inverse,
//! Jacobi symbol.

use core::cmp::Ordering;

use crate::limbs;
use crate::ubig::Ubig;

/// `(a + b) mod m`. Operands need not be reduced.
pub fn mod_add(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    (a.add_ref(b)).rem_ref(m)
}

/// `(a - b) mod m`. Operands need not be reduced.
pub fn mod_sub(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    let a = a.rem_ref(m);
    let b = b.rem_ref(m);
    if a >= b {
        a.checked_sub(&b).unwrap()
    } else {
        m.checked_sub(&b).unwrap().add_ref(&a)
    }
}

/// `(a * b) mod m`.
pub fn mod_mul(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    a.mul_ref(b).rem_ref(m)
}

/// `a^e mod m`.
///
/// Runs on the fixed-limb Montgomery kernel ([`crate::mont`]) for every
/// odd modulus of up to 16 limbs, reusing interned kernels, and falls
/// back to binary square-and-multiply with explicit reductions for even
/// or wider moduli.
///
/// # Panics
/// Panics if `m` is zero or one.
pub fn mod_pow(a: &Ubig, e: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero() && !m.is_one(), "modulus must be > 1");
    if e.is_zero() {
        return Ubig::one();
    }
    if let Some(ctx) = crate::fixed::mont_ctx(m) {
        return ctx.pow(a, e);
    }
    let base = a.rem_ref(m);
    let mut acc = Ubig::one();
    for i in (0..e.bit_length()).rev() {
        acc = mod_mul(&acc, &acc, m);
        if e.bit(i) {
            acc = mod_mul(&acc, &base, m);
        }
    }
    acc
}

/// `a^x · b^y mod m` — one two-base (Straus) exponentiation, so both
/// powers share their squarings. Moduli without a kernel multiply two
/// [`mod_pow`]s.
///
/// # Panics
/// Panics if `m` is zero or one.
pub fn mod_pow2(a: &Ubig, x: &Ubig, b: &Ubig, y: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero() && !m.is_one(), "modulus must be > 1");
    match crate::fixed::mont_ctx(m) {
        Some(ctx) => ctx.pow2(a, x, b, y),
        None => mod_mul(&mod_pow(a, x, m), &mod_pow(b, y, m), m),
    }
}

/// Greatest common divisor (binary GCD), on two limb buffers updated in
/// place.
pub fn gcd(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let (az, bz) = (a.trailing_zeros().unwrap(), b.trailing_zeros().unwrap());
    let mut x = a.limbs().to_vec();
    let mut y = b.limbs().to_vec();
    shr_in_place(&mut x, az);
    shr_in_place(&mut y, bz);
    // Both odd from here on: subtract the smaller from the larger, which
    // leaves it even and non-zero, and shift its zeros away.
    loop {
        match limbs::cmp(&x, &y) {
            Ordering::Equal => break,
            Ordering::Greater => core::mem::swap(&mut x, &mut y),
            Ordering::Less => {}
        }
        limbs::sub_assign(&mut y, &x);
        y.truncate(limbs::normalized_len(&y));
        let tz = trailing_zeros(&y);
        shr_in_place(&mut y, tz);
    }
    Ubig::from_limbs(x).shl_bits(az.min(bz))
}

/// Trailing zero bits of a non-zero limb buffer.
fn trailing_zeros(v: &[u64]) -> u32 {
    let i = v.iter().position(|&l| l != 0).expect("non-zero");
    64 * i as u32 + v[i].trailing_zeros()
}

/// `v >>= sh`, keeping `v` normalized (no high zero limbs).
fn shr_in_place(v: &mut Vec<u64>, sh: u32) {
    v.drain(..(sh / 64) as usize);
    limbs::shr_small(v, sh % 64);
    v.truncate(limbs::normalized_len(v));
}

/// A signed magnitude pair used internally by the extended Euclid loop.
#[derive(Clone)]
struct Signed {
    negative: bool,
    mag: Ubig,
}

impl Signed {
    fn from_ubig(mag: Ubig) -> Self {
        Signed {
            negative: false,
            mag,
        }
    }

    /// `self - q * other`.
    fn sub_mul(&self, q: &Ubig, other: &Signed) -> Signed {
        let prod = q.mul_ref(&other.mag);
        if self.negative == other.negative {
            // same sign: magnitudes subtract
            if self.mag >= prod {
                Signed {
                    negative: self.negative && (self.mag != prod),
                    mag: self.mag.checked_sub(&prod).unwrap(),
                }
            } else {
                Signed {
                    negative: !self.negative,
                    mag: prod.checked_sub(&self.mag).unwrap(),
                }
            }
        } else {
            // opposite sign: magnitudes add, sign follows self
            Signed {
                negative: self.negative,
                mag: self.mag.add_ref(&prod),
            }
        }
    }
}

/// Extended Euclid: returns `(g, x)` with `a*x ≡ g (mod m)` where
/// `g = gcd(a, m)` and `0 <= x < m`.
pub fn ext_gcd_mod(a: &Ubig, m: &Ubig) -> (Ubig, Ubig) {
    assert!(!m.is_zero(), "modulus must be non-zero");
    let mut old_r = a.rem_ref(m);
    let mut r = m.clone();
    let mut old_s = Signed::from_ubig(Ubig::one());
    let mut s = Signed::from_ubig(Ubig::zero());
    while !r.is_zero() {
        let (q, rem) = old_r.div_rem(&r);
        let new_s = old_s.sub_mul(&q, &s);
        old_r = core::mem::replace(&mut r, rem);
        old_s = core::mem::replace(&mut s, new_s);
    }
    // old_s may be negative or >= m; normalize into [0, m).
    let coeff = if old_s.negative {
        let red = old_s.mag.rem_ref(m);
        if red.is_zero() {
            red
        } else {
            m.checked_sub(&red).unwrap()
        }
    } else {
        old_s.mag.rem_ref(m)
    };
    (old_r, coeff)
}

/// Modular inverse: `a^-1 mod m`, or `None` when `gcd(a, m) != 1`.
pub fn mod_inverse(a: &Ubig, m: &Ubig) -> Option<Ubig> {
    let (g, x) = ext_gcd_mod(a, m);
    if g.is_one() {
        Some(x)
    } else {
        None
    }
}

/// Jacobi symbol `(a/n)` for odd `n > 0`. Returns -1, 0 or 1.
///
/// # Panics
/// Panics if `n` is even or zero.
pub fn jacobi(a: &Ubig, n: &Ubig) -> i32 {
    assert!(n.is_odd(), "Jacobi symbol requires odd n");
    let mut a = a.rem_ref(n);
    let mut n = n.clone();
    let mut result = 1i32;
    while !a.is_zero() {
        let tz = a.trailing_zeros().unwrap();
        if tz % 2 == 1 {
            let n_mod8 = n.low_u64() & 7;
            if n_mod8 == 3 || n_mod8 == 5 {
                result = -result;
            }
        }
        a = a.shr_bits(tz);
        // quadratic reciprocity flip
        if (a.low_u64() & 3 == 3) && (n.low_u64() & 3 == 3) {
            result = -result;
        }
        core::mem::swap(&mut a, &mut n);
        a = a.rem_ref(&n);
    }
    if n.is_one() {
        result
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn u(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }

    #[test]
    fn mod_add_wraps() {
        assert_eq!(mod_add(&u(7), &u(8), &u(10)), u(5));
    }

    #[test]
    fn mod_sub_handles_underflow() {
        assert_eq!(mod_sub(&u(3), &u(8), &u(10)), u(5));
        assert_eq!(mod_sub(&u(8), &u(3), &u(10)), u(5));
    }

    #[test]
    fn mod_pow_small_cases() {
        assert_eq!(mod_pow(&u(2), &u(10), &u(1000)), u(24));
        assert_eq!(mod_pow(&u(3), &u(0), &u(7)), u(1));
        assert_eq!(mod_pow(&u(0), &u(5), &u(7)), u(0));
    }

    #[test]
    fn mod_pow_even_modulus() {
        // 3^5 = 243 = 243 mod 1024
        assert_eq!(mod_pow(&u(3), &u(5), &u(1024)), u(243));
    }

    #[test]
    fn mod_pow_fermat() {
        // Fermat's little theorem with a 61-bit prime.
        let p = u(2305843009213693951); // 2^61 - 1, prime
        let a = u(1234567890123456789);
        let e = p.checked_sub(&u(1)).unwrap();
        assert_eq!(mod_pow(&a, &e, &p), u(1));
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(&u(48), &u(36)), u(12));
        assert_eq!(gcd(&u(17), &u(5)), u(1));
        assert_eq!(gcd(&u(0), &u(9)), u(9));
        assert_eq!(gcd(&u(9), &u(0)), u(9));
    }

    /// The allocating binary GCD the in-place loop replaced, kept as its
    /// reference.
    fn gcd_ref(a: &Ubig, b: &Ubig) -> Ubig {
        if a.is_zero() {
            return b.clone();
        }
        if b.is_zero() {
            return a.clone();
        }
        let (az, bz) = (a.trailing_zeros().unwrap(), b.trailing_zeros().unwrap());
        let mut a = a.shr_bits(az);
        let mut b = b.shr_bits(bz);
        loop {
            if a > b {
                core::mem::swap(&mut a, &mut b);
            }
            b = b.checked_sub(&a).unwrap();
            if b.is_zero() {
                return a.shl_bits(az.min(bz));
            }
            b = b.shr_bits(b.trailing_zeros().unwrap());
        }
    }

    #[test]
    fn gcd_edge_operands_match_reference() {
        let big =
            Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
                .unwrap();
        let mut edges = vec![u(0), u(1), u(2), u(3), u(u64::MAX), big.clone()];
        for sh in [1u32, 63, 64, 65, 128, 200, 1023] {
            edges.push(Ubig::one().shl_bits(sh));
            edges.push(big.shl_bits(sh));
        }
        for a in &edges {
            for b in &edges {
                assert_eq!(gcd(a, b), gcd_ref(a, b), "gcd({a}, {b})");
            }
            assert_eq!(gcd(a, a), a.clone(), "gcd of equal values");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gcd_matches_reference(
            a in prop::collection::vec(any::<u64>(), 0..=16),
            b in prop::collection::vec(any::<u64>(), 0..=16),
            common in 0u32..130,
        ) {
            // A shared power of two and a shared odd factor exercise the
            // common-shift and non-trivial-result paths.
            let (a, b) = (Ubig::from_limbs(a), Ubig::from_limbs(b));
            let f = u(0x1234_5677);
            let (a2, b2) = (a.mul_ref(&f).shl_bits(common), b.mul_ref(&f).shl_bits(common));
            prop_assert_eq!(gcd(&a, &b), gcd_ref(&a, &b));
            prop_assert_eq!(gcd(&a2, &b2), gcd_ref(&a2, &b2));
        }
    }

    #[test]
    fn inverse_times_self_is_one() {
        let m = u(2305843009213693951);
        let a = u(987654321987654321);
        let inv = mod_inverse(&a, &m).unwrap();
        assert_eq!(mod_mul(&a, &inv, &m), u(1));
    }

    #[test]
    fn inverse_of_non_coprime_is_none() {
        assert!(mod_inverse(&u(6), &u(9)).is_none());
    }

    #[test]
    fn inverse_large() {
        let m = Ubig::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = Ubig::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        if let Some(inv) = mod_inverse(&a, &m) {
            assert_eq!(mod_mul(&a, &inv, &m), Ubig::one());
        }
    }

    #[test]
    fn jacobi_matches_legendre_for_prime() {
        // p = 23; quadratic residues mod 23: {1,2,3,4,6,8,9,12,13,16,18}
        let p = u(23);
        let qr = [1u64, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18];
        for a in 1..23u64 {
            let expected = if qr.contains(&a) { 1 } else { -1 };
            assert_eq!(jacobi(&u(a), &p), expected, "a = {a}");
        }
        assert_eq!(jacobi(&u(0), &p), 0);
        assert_eq!(jacobi(&u(23), &p), 0);
    }
}
