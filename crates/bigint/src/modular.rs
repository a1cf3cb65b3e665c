//! Modular arithmetic on [`Ubig`]: add/sub/mul/pow mod m, gcd, inverse,
//! Jacobi symbol.

use core::cmp::Ordering;

use crate::fixed::Modulus;
use crate::limbs;
use crate::mont::MAX_LIMBS;
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
/// odd modulus of up to 16 limbs, and falls back to binary
/// square-and-multiply with explicit reductions for even or wider moduli.
/// The kernel is built for this one call; a caller exponentiating under
/// the same modulus again holds a [`crate::Modulus`] and calls
/// [`crate::Modulus::pow`].
///
/// # Panics
/// Panics if `m` is zero or one.
pub fn mod_pow(a: &Ubig, e: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero() && !m.is_one(), "modulus must be > 1");
    if e.is_zero() {
        return Ubig::one();
    }
    if let Some(m) = Modulus::new(m.clone()) {
        return m.pow(a, e);
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

/// Greatest common divisor (binary GCD).
///
/// Operands of up to 16 limbs run in stack buffers of 4, 8 or 16 limbs;
/// wider ones run the same loop in heap buffers.
pub fn gcd(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    match a.limbs().len().max(b.limbs().len()) {
        0..=4 => gcd_in(&mut [0; 4], &mut [0; 4], a, b),
        5..=8 => gcd_in(&mut [0; 8], &mut [0; 8], a, b),
        9..=MAX_LIMBS => gcd_in(&mut [0; MAX_LIMBS], &mut [0; MAX_LIMBS], a, b),
        n => gcd_in(&mut vec![0; n], &mut vec![0; n], a, b),
    }
}

/// The binary GCD of non-zero `a` and `b` in two zeroed buffers of equal
/// length that hold both.
#[inline(always)]
fn gcd_in<'a>(mut x: &'a mut [u64], mut y: &'a mut [u64], a: &Ubig, b: &Ubig) -> Ubig {
    x[..a.limbs().len()].copy_from_slice(a.limbs());
    y[..b.limbs().len()].copy_from_slice(b.limbs());
    let (az, bz) = (limbs::trailing_zeros(x), limbs::trailing_zeros(y));
    limbs::shr_assign(x, az);
    limbs::shr_assign(y, bz);
    // Both odd from here on: subtract the smaller from the larger, which
    // leaves it even and non-zero, and shift its zeros away. `len` limbs
    // hold both as they shrink.
    let mut len = x.len();
    loop {
        while len > 1 && x[len - 1] | y[len - 1] == 0 {
            len -= 1;
        }
        match limbs::cmp(&x[..len], &y[..len]) {
            Ordering::Equal => break,
            Ordering::Greater => core::mem::swap(&mut x, &mut y),
            Ordering::Less => {}
        }
        limbs::sub_assign(&mut y[..len], &x[..len]);
        let tz = limbs::trailing_zeros(&y[..len]);
        limbs::shr_assign(&mut y[..len], tz);
    }
    Ubig::from_limbs(x[..len].to_vec()).shl_bits(az.min(bz))
}

/// Kaliski's almost inverse on `N` limbs: for an odd modulus `m > 1` and
/// `a < m`, returns `(s, k)` with `a·s ≡ 2ᵏ (mod m)`, `s < m` and
/// `0 < k < 128·N`, or `None` when `gcd(a, m) ≠ 1`.
///
/// A binary extended GCD that only subtracts and shifts: no division, no
/// halving modulo `m`, no allocation. The caller divides the `2ᵏ` out
/// ([`crate::MontField::inv`]).
pub(crate) fn almost_inverse<const N: usize>(
    a: &[u64; N],
    m: &[u64; N],
) -> Option<([u64; N], u32)> {
    if a.iter().all(|&l| l == 0) {
        return None;
    }
    // Invariants: u·s + v·r = m, a·s ≡ v·2ᵏ and a·r ≡ −u·2ᵏ (mod m). So
    // s, r ≤ m while u, v ≥ 1, and neither ever overflows `N` limbs.
    let (mut u, mut v) = (*m, *a);
    let (mut r, mut s) = ([0u64; N], [0u64; N]);
    s[0] = 1;
    let mut k = limbs::trailing_zeros(&v);
    limbs::shr_assign(&mut v, k);
    let mut len = N;
    loop {
        while len > 1 && u[len - 1] | v[len - 1] == 0 {
            len -= 1;
        }
        // Both odd: the larger loses the smaller, its coefficient gains the
        // other's, and its zeros shift out while the other coefficient
        // doubles.
        let (big, small, big_c, small_c) = match limbs::cmp(&u[..len], &v[..len]) {
            Ordering::Equal => break,
            Ordering::Greater => (&mut u, &v, &mut r, &mut s),
            Ordering::Less => (&mut v, &u, &mut s, &mut r),
        };
        limbs::sub_assign(&mut big[..len], &small[..len]);
        limbs::add_assign(big_c, small_c);
        let tz = limbs::trailing_zeros(&big[..len]);
        limbs::shr_assign(&mut big[..len], tz);
        limbs::shl_assign(small_c, tz);
        k += tz;
    }
    // u = v = gcd(a, m).
    (u[0] == 1 && u[1..len].iter().all(|&l| l == 0)).then_some((s, k))
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
///
/// Every odd modulus of up to 16 limbs runs Kaliski's almost inverse on
/// a kernel's 4, 8 or 16 limbs, built for this one call (a caller holding
/// a [`crate::Modulus`] calls [`crate::Modulus::inverse`]); even or wider
/// moduli fall back to [`ext_gcd_mod`].
pub fn mod_inverse(a: &Ubig, m: &Ubig) -> Option<Ubig> {
    if let Some(m) = Modulus::new(m.clone()) {
        return m.inverse(a);
    }
    let (g, x) = ext_gcd_mod(a, m);
    g.is_one().then_some(x)
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    /// `mod_inverse` as [`ext_gcd_mod`] defines it.
    fn inverse_ref(a: &Ubig, m: &Ubig) -> Option<Ubig> {
        let (g, x) = ext_gcd_mod(a, m);
        g.is_one().then_some(x)
    }

    /// An odd number of exactly `bits` bits drawn from `seed`.
    fn odd_bits(bits: u32, seed: u64) -> Ubig {
        let mut v = crate::random_bits(&mut SmallRng::seed_from_u64(seed), bits);
        v.set_bit(0);
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn inverse_matches_ext_gcd_at_4_8_and_16_limbs(
            width in 0usize..3,
            m_raw in prop::collection::vec(any::<u64>(), 16..=16),
            a_raw in prop::collection::vec(any::<u64>(), 0..=17),
        ) {
            // An odd modulus of exactly 4, 8 or 16 limbs, so the kernel
            // runs it, and any operand up to one limb wider (often ≥ m).
            // About one random pair in five shares a small factor.
            let limbs = [4, 8, 16][width];
            let mut m = m_raw[..limbs].to_vec();
            m[0] |= 1;
            m[limbs - 1] = m[limbs - 1].max(1);
            let m = Ubig::from_limbs(m);
            prop_assert!(crate::Modulus::new(m.clone()).is_some());
            let a = Ubig::from_limbs(a_raw);
            let inv = mod_inverse(&a, &m);
            prop_assert_eq!(&inv, &inverse_ref(&a, &m));
            if let Some(x) = inv {
                prop_assert!(mod_mul(&a, &x, &m).is_one());
            }
        }

        #[test]
        fn gcd_matches_reference_at_4_8_16_and_17_limbs(
            width in 0usize..4,
            a_raw in prop::collection::vec(any::<u64>(), 17..=17),
            b_raw in prop::collection::vec(any::<u64>(), 17..=17),
            f in 1u64..(1 << 40),
            twos in 0u32..24,
        ) {
            // A shared factor and a shared power of two, kept inside the
            // width: 4, 8 and 16 limbs run on the stack, 17 in the heap.
            let limbs = [4, 8, 16, 17][width];
            let x = Ubig::from_limbs(a_raw[..limbs].to_vec()).shr_bits(64);
            let y = Ubig::from_limbs(b_raw[..limbs].to_vec()).shr_bits(64);
            let (a, b) = (x.mul_ref(&u(f)).shl_bits(twos), y.mul_ref(&u(f)));
            prop_assert!(a.limbs().len() <= limbs && b.limbs().len() <= limbs);
            prop_assert_eq!(gcd(&a, &b), gcd_ref(&a, &b));
            prop_assert_eq!(gcd(&x, &y), gcd_ref(&x, &y));
        }
    }

    #[test]
    fn inverse_edge_operands_on_the_kernel_and_the_fallback() {
        // 1, 4, 5, 8, 11 and 16 limbs run on the kernel; an even modulus
        // and a 17-limb one take `ext_gcd_mod`.
        let mut moduli: Vec<Ubig> = [(61, 1), (256, 2), (300, 3), (512, 4), (700, 5), (1024, 6)]
            .map(|(bits, seed)| odd_bits(bits, seed))
            .to_vec();
        moduli.push(odd_bits(1024, 7).add_ref(&Ubig::one()));
        moduli.push(odd_bits(1088, 8));
        // A top limb of all ones puts every carry at its limit.
        moduli.push(Ubig::one().shl_bits(1024).checked_sub(&u(3)).unwrap());
        let wide = Ubig::one().shl_bits(1100).add_ref(&u(7));
        for m in &moduli {
            let kernel = crate::Modulus::new(m.clone()).is_some();
            assert_eq!(kernel, m.is_odd() && m.limbs().len() <= 16, "m = {m}");
            let m_minus_1 = m.checked_sub(&Ubig::one()).unwrap();
            for a in [
                u(0),
                u(1),
                u(2),
                m_minus_1.clone(),
                m.clone(),
                m.add_ref(&u(1)),
                m.mul_ref(&u(3)).add_ref(&u(2)),
                wide.clone(),
            ] {
                let inv = mod_inverse(&a, m);
                assert_eq!(inv, inverse_ref(&a, m), "a = {a}, m = {m}");
                if let Some(x) = inv {
                    assert!(mod_mul(&a, &x, m).is_one(), "a = {a}, m = {m}");
                }
            }
            assert_eq!(mod_inverse(&Ubig::one(), m), Some(Ubig::one()));
            assert_eq!(mod_inverse(&m_minus_1, m), Some(m_minus_1.clone()));
            assert!(mod_inverse(&u(0), m).is_none());
            assert!(mod_inverse(m, m).is_none());
        }
        // Non-units of a kernel modulus with known factors 3 and k.
        let k = odd_bits(1000, 9);
        let m = k.mul_ref(&u(3));
        assert!(crate::Modulus::new(m.clone()).is_some());
        for a in [u(3), u(6), k.clone(), k.shl_bits(1), k.mul_ref(&u(3))] {
            assert_eq!(mod_inverse(&a, &m), None, "a = {a}");
        }
        let two = mod_inverse(&u(2), &m).expect("2 is a unit");
        assert!(mod_mul(&two, &u(2), &m).is_one());
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
