//! Allocation-free Montgomery arithmetic on fixed limbs — the field under
//! every scalar multiplication.
//!
//! A [`MontField<N>`] holds an odd modulus `m < R = 2^(64·N)` with its
//! Montgomery constants; an [`Fe<N>`] is `a·R mod m` in `N` little-endian
//! limbs. Elements are `Copy` and live on the stack. Multiplication is CIOS
//! (coarsely integrated operand scanning) followed by one conditional
//! subtraction, so no product is ever allocated or divided. Inversion is
//! Fermat's `a^(m−2)`, which is why every modulus used here must be prime.
//!
//! [`MAX_LIMBS`] (4) covers every modulus the workspace builds: the 160–256
//! bit curve fields and orders, the 194-bit pairing field and the toy
//! moduli. [`Width`] picks the limb count once, from the modulus size.

use egka_bigint::Ubig;

/// The widest modulus supported, in 64-bit limbs (256 bits).
pub(crate) const MAX_LIMBS: usize = 4;

/// A field element in Montgomery form, reduced into `[0, m)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Fe<const N: usize>([u64; N]);

impl<const N: usize> Fe<N> {
    pub(crate) const ZERO: Self = Fe([0; N]);

    pub(crate) fn is_zero(&self) -> bool {
        self.0 == [0; N]
    }
}

/// Montgomery arithmetic modulo an odd prime `m < 2^(64·N)`.
#[derive(Clone, Debug)]
pub(crate) struct MontField<const N: usize> {
    m: [u64; N],
    /// `−m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// `R² mod m`, the factor that moves a plain value into Montgomery form.
    r2: [u64; N],
    /// `R mod m`, the Montgomery form of 1.
    one: Fe<N>,
    /// `m − 2`, the Fermat inversion exponent.
    inv_exp: [u64; N],
}

/// `acc + a·b + carry` as (low, high) words.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + a as u128 * b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a + b + carry` as (sum, carry-out).
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` as (difference, borrow-out), borrows being 0 or 1.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// The low `N` limbs of `v`, which must fit.
fn to_limbs<const N: usize>(v: &Ubig) -> [u64; N] {
    let mut out = [0u64; N];
    out[..v.limbs().len()].copy_from_slice(v.limbs());
    out
}

impl<const N: usize> MontField<N> {
    /// Builds the context for modulus `m`.
    ///
    /// # Panics
    /// Panics if `m` is even, `m <= 1`, or `m` needs more than `N` limbs.
    pub(crate) fn new(m: &Ubig) -> Self {
        assert!(
            m.is_odd() && !m.is_one(),
            "Montgomery modulus must be odd and > 1"
        );
        assert!(m.limbs().len() <= N, "modulus wider than {N} limbs");
        let limbs = to_limbs::<N>(m);
        // Newton's iteration doubles the correct low bits of m⁻¹ mod 2⁶⁴
        // each step: 1 → 2 → … → 64 bits.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(limbs[0].wrapping_mul(inv)));
        }
        let r = Ubig::one().shl_bits(64 * N as u32);
        MontField {
            m: limbs,
            m_inv: inv.wrapping_neg(),
            r2: to_limbs(&r.square().rem_ref(m)),
            one: Fe(to_limbs(&r.rem_ref(m))),
            inv_exp: to_limbs(&m.checked_sub(&Ubig::from_u64(2)).expect("m > 2")),
        }
    }

    /// The Montgomery form of 1.
    pub(crate) fn one(&self) -> Fe<N> {
        self.one
    }

    /// Subtracts `m` once if `t + hi·R ≥ m`; requires `t + hi·R < 2m`.
    #[inline(always)]
    fn reduce_once(&self, t: [u64; N], hi: u64) -> [u64; N] {
        let mut d = [0u64; N];
        let mut borrow = 0;
        for j in 0..N {
            (d[j], borrow) = sbb(t[j], self.m[j], borrow);
        }
        if hi == 0 && borrow == 1 {
            t
        } else {
            d
        }
    }

    /// `a·b·R⁻¹ mod m` for `a < R` and `b < m`; the result is reduced.
    #[inline(always)]
    fn redc_mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut t = [0u64; N];
        let mut hi = 0u64;
        for &bi in b {
            let mut c = 0;
            for j in 0..N {
                (t[j], c) = mac(t[j], a[j], bi, c);
            }
            let (top, top_carry) = adc(hi, c, 0);
            // Add q·m with q chosen so the low word vanishes, then shift
            // the accumulator down one word.
            let q = t[0].wrapping_mul(self.m_inv);
            let (_, mut c) = mac(t[0], q, self.m[0], 0);
            for j in 1..N {
                (t[j - 1], c) = mac(t[j], q, self.m[j], c);
            }
            let (word, carry) = adc(top, c, 0);
            t[N - 1] = word;
            hi = top_carry + carry;
        }
        self.reduce_once(t, hi)
    }

    /// `a · b`.
    #[inline]
    pub(crate) fn mul(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        Fe(self.redc_mul(&a.0, &b.0))
    }

    /// `a²`.
    #[inline]
    pub(crate) fn sqr(&self, a: &Fe<N>) -> Fe<N> {
        Fe(self.redc_mul(&a.0, &a.0))
    }

    /// `a + b`.
    #[inline]
    pub(crate) fn add(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        let mut s = [0u64; N];
        let mut c = 0;
        for (s, (&x, &y)) in s.iter_mut().zip(a.0.iter().zip(&b.0)) {
            (*s, c) = adc(x, y, c);
        }
        Fe(self.reduce_once(s, c))
    }

    /// `a − b`.
    #[inline]
    pub(crate) fn sub(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        let mut d = [0u64; N];
        let mut borrow = 0;
        for (d, (&x, &y)) in d.iter_mut().zip(a.0.iter().zip(&b.0)) {
            (*d, borrow) = sbb(x, y, borrow);
        }
        // On underflow add m back (masked, so no branch on the data).
        let mask = borrow.wrapping_neg();
        let mut c = 0;
        for (d, &m) in d.iter_mut().zip(&self.m) {
            (*d, c) = adc(*d, m & mask, c);
        }
        Fe(d)
    }

    /// `−a`.
    #[inline]
    pub(crate) fn neg(&self, a: &Fe<N>) -> Fe<N> {
        self.sub(&Fe::ZERO, a)
    }

    /// `a^e` for an exponent given as `N` little-endian limbs (4-bit fixed
    /// window, leading zero digits skipped).
    fn pow(&self, a: &Fe<N>, e: &[u64; N]) -> Fe<N> {
        let mut table = [self.one; 16];
        for i in 1..16 {
            table[i] = self.mul(&table[i - 1], a);
        }
        let mut acc: Option<Fe<N>> = None;
        for limb in e.iter().rev() {
            for nibble in (0..16).rev() {
                let digit = ((limb >> (4 * nibble)) & 15) as usize;
                acc = match acc {
                    None if digit == 0 => None,
                    None => Some(table[digit]),
                    Some(mut x) => {
                        for _ in 0..4 {
                            x = self.sqr(&x);
                        }
                        Some(if digit == 0 {
                            x
                        } else {
                            self.mul(&x, &table[digit])
                        })
                    }
                };
            }
        }
        acc.unwrap_or(self.one)
    }

    /// `a⁻¹` by Fermat (`a^(m−2)`), or `None` for zero.
    pub(crate) fn inv(&self, a: &Fe<N>) -> Option<Fe<N>> {
        (!a.is_zero()).then(|| self.pow(a, &self.inv_exp))
    }

    /// Montgomery form of an arbitrary integer (reduced modulo `m`).
    pub(crate) fn to_mont(&self, a: &Ubig) -> Fe<N> {
        // Any value below R is a valid CIOS operand; only wider ones need
        // a division first.
        let limbs = if a.limbs().len() > N {
            to_limbs(&a.rem_ref(&Ubig::from_limbs(self.m.to_vec())))
        } else {
            to_limbs(a)
        };
        Fe(self.redc_mul(&limbs, &self.r2))
    }

    /// `a · bʳ mod m` by `rounds` chained multiplications, converting in
    /// and out once.
    pub(crate) fn mul_chain(&self, a: &Ubig, b: &Ubig, rounds: u32) -> Ubig {
        let b = self.to_mont(b);
        let mut acc = self.to_mont(a);
        for _ in 0..rounds {
            acc = self.mul(&acc, &b);
        }
        self.to_ubig(&acc)
    }

    /// The plain integer an element represents, in `[0, m)`.
    pub(crate) fn to_ubig(&self, a: &Fe<N>) -> Ubig {
        let mut one = [0u64; N];
        one[0] = 1;
        Ubig::from_limbs(self.redc_mul(&a.0, &one).to_vec())
    }
}

/// One value per supported limb width, chosen once from a modulus size.
#[derive(Debug)]
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

/// Montgomery arithmetic modulo a prime of any supported width, with
/// plain-integer inputs and outputs (one conversion in, one out).
pub(crate) type AnyField = Width<MontField<1>, MontField<2>, MontField<3>, MontField<4>>;

impl AnyField {
    /// Builds the context for an odd prime `m` of at most 256 bits.
    pub(crate) fn new(m: &Ubig) -> Self {
        match width_of(m) {
            1 => Width::W1(MontField::new(m)),
            2 => Width::W2(MontField::new(m)),
            3 => Width::W3(MontField::new(m)),
            _ => Width::W4(MontField::new(m)),
        }
    }

    /// `a·b mod m`.
    pub(crate) fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        with_width!(self, f => f.to_ubig(&f.mul(&f.to_mont(a), &f.to_mont(b))))
    }

    /// `a⁻¹ mod m`, or `None` for `a ≡ 0`.
    pub(crate) fn inv(&self, a: &Ubig) -> Option<Ubig> {
        with_width!(self, f => f.inv(&f.to_mont(a)).map(|x| f.to_ubig(&x)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::{gen_pairing_group, PairingGroup};
    use crate::{secp160r1, secp192r1, secp256k1};
    use egka_bigint::{mod_add, mod_inverse, mod_mul, mod_sub};
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

    fn check_any(m: &Ubig, a: &Ubig, b: &Ubig) {
        match width_of(m) {
            1 => check::<1>(m, a, b),
            2 => check::<2>(m, a, b),
            3 => check::<3>(m, a, b),
            _ => check::<4>(m, a, b),
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
        width_of(&Ubig::one().shl_bits(256));
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
