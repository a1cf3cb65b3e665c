//! Allocation-free Montgomery arithmetic on fixed limbs — the one kernel
//! under every modular exponentiation and every EC scalar multiplication.
//!
//! A [`MontField<N>`] holds an odd modulus `m < R = 2^(64·N)` with its
//! Montgomery constants; an [`Fe<N>`] is `a·R mod m` in `N` little-endian
//! limbs. Elements are `Copy` and live on the stack. Multiplication is CIOS
//! (coarsely integrated operand scanning) followed by one conditional
//! subtraction, so no product is ever allocated or divided.
//!
//! Exponentiation uses 4-bit fixed windows; [`MontField::pow2`] walks two
//! exponents together (Straus), so `a^x·b^y` pays for one chain of
//! squarings. Inversion ([`MontField::inv`]) is Kaliski's almost inverse,
//! a binary extended GCD on the same limbs, and holds for any odd modulus;
//! [`crate::mod_inverse`] runs on it too. [`MulChain`] keeps a chain of
//! products on the kernel.
//!
//! [`crate::mod_pow`] runs here for every odd modulus of up to 16 limbs
//! (1024 bits), at the narrowest of 4, 8 or 16 limbs that holds it
//! (`Limbs`); `egka-ec` picks its own 1–4 limb widths for curve fields.

use crate::fixed::Modulus;
use crate::ubig::Ubig;

/// A field element in Montgomery form, reduced into `[0, m)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fe<const N: usize>([u64; N]);

impl<const N: usize> Fe<N> {
    /// The zero element (zero is its own Montgomery form).
    pub const ZERO: Self = Fe([0; N]);

    /// True for the zero element.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; N]
    }
}

/// Montgomery arithmetic modulo an odd `m < 2^(64·N)`.
#[derive(Clone, Debug)]
pub struct MontField<const N: usize> {
    m: [u64; N],
    /// `−m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// `R² mod m`, the factor that moves a plain value into Montgomery form.
    r2: [u64; N],
    /// `R mod m`, the Montgomery form of 1.
    one: Fe<N>,
    /// `R³ mod m`, the factor that restores `R²` after an inversion.
    r3: [u64; N],
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

/// Inverse of an odd `x` modulo 2⁶⁴: Newton's iteration doubles the
/// correct low bits each step, 1 → 2 → … → 64.
fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = 1u64;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    inv
}

/// The low `N` limbs of `v`, which must fit.
fn to_limbs<const N: usize>(v: &Ubig) -> [u64; N] {
    let mut out = [0u64; N];
    out[..v.limbs().len()].copy_from_slice(v.limbs());
    out
}

/// The 4-bit digit `i` (counted from the least significant) of `e`.
#[inline(always)]
fn nibble(e: &[u64], i: usize) -> usize {
    e.get(i / 16)
        .map_or(0, |l| ((l >> (4 * (i % 16))) & 15) as usize)
}

impl<const N: usize> MontField<N> {
    /// Builds the context for modulus `m`.
    ///
    /// # Panics
    /// Panics if `m` is even, `m <= 1`, or `m` needs more than `N` limbs,
    /// or if `N` exceeds 16.
    pub fn new(m: &Ubig) -> Self {
        assert!(
            N <= MAX_LIMBS,
            "the kernel is at most {MAX_LIMBS} limbs wide"
        );
        assert!(
            m.is_odd() && !m.is_one(),
            "Montgomery modulus must be odd and > 1"
        );
        assert!(m.limbs().len() <= N, "modulus wider than {N} limbs");
        let limbs = to_limbs::<N>(m);
        let r = Ubig::one().shl_bits(64 * N as u32);
        MontField {
            m: limbs,
            m_inv: inv64(limbs[0]).wrapping_neg(),
            r2: to_limbs(&r.square().rem_ref(m)),
            one: Fe(to_limbs(&r.rem_ref(m))),
            r3: to_limbs(&r.square().mul_ref(&r).rem_ref(m)),
        }
    }

    /// The Montgomery form of 1.
    pub fn one(&self) -> Fe<N> {
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
    pub fn mul(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        Fe(self.redc_mul(&a.0, &b.0))
    }

    /// `a²`: the square's cross products `aᵢ·aⱼ` (`i < j`) are computed
    /// once and doubled, then the `2N`-word square is reduced, which saves
    /// about a quarter of the word products of [`MontField::mul`].
    #[inline]
    pub fn sqr(&self, a: &Fe<N>) -> Fe<N> {
        let a = &a.0;
        let mut buf = [0u64; 2 * MAX_LIMBS];
        let t = &mut buf[..2 * N];
        for i in 0..N {
            let mut c = 0;
            for j in i + 1..N {
                (t[i + j], c) = mac(t[i + j], a[i], a[j], c);
            }
            t[i + N] = c;
        }
        let mut top = 0;
        for w in t.iter_mut() {
            (*w, top) = ((*w << 1) | top, *w >> 63);
        }
        let mut c = 0;
        for i in 0..N {
            let (lo, hi) = mac(0, a[i], a[i], 0);
            (t[2 * i], c) = adc(t[2 * i], lo, c);
            (t[2 * i + 1], c) = adc(t[2 * i + 1], hi, c);
        }
        // Montgomery reduction, one word per row; `hi` carries each row's
        // overflow into the next.
        let mut hi = 0;
        for i in 0..N {
            let q = t[i].wrapping_mul(self.m_inv);
            let mut c = 0;
            for j in 0..N {
                (t[i + j], c) = mac(t[i + j], q, self.m[j], c);
            }
            (t[i + N], hi) = adc(t[i + N], c, hi);
        }
        let mut out = [0u64; N];
        out.copy_from_slice(&t[N..]);
        Fe(self.reduce_once(out, hi))
    }

    /// `a + b`.
    #[inline]
    pub fn add(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
        let mut s = [0u64; N];
        let mut c = 0;
        for (s, (&x, &y)) in s.iter_mut().zip(a.0.iter().zip(&b.0)) {
            (*s, c) = adc(x, y, c);
        }
        Fe(self.reduce_once(s, c))
    }

    /// `a − b`.
    #[inline]
    pub fn sub(&self, a: &Fe<N>, b: &Fe<N>) -> Fe<N> {
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
    pub fn neg(&self, a: &Fe<N>) -> Fe<N> {
        self.sub(&Fe::ZERO, a)
    }

    /// `a⁰ … a¹⁵`, the 4-bit window table of `a`.
    fn window_table(&self, a: &Fe<N>) -> [Fe<N>; 16] {
        let mut table = [self.one; 16];
        for i in 1..16 {
            table[i] = self.mul(&table[i - 1], a);
        }
        table
    }

    /// `∏ baseᵢ^eᵢ` over window tables, sharing one chain of squarings
    /// (leading zero digits skipped; every exponent zero gives 1).
    fn multi_pow(&self, terms: &[(&[Fe<N>; 16], &[u64])]) -> Fe<N> {
        let digits = 16 * terms.iter().map(|(_, e)| e.len()).max().unwrap_or(0);
        let mut acc: Option<Fe<N>> = None;
        for i in (0..digits).rev() {
            if let Some(x) = acc.as_mut() {
                for _ in 0..4 {
                    *x = self.sqr(x);
                }
            }
            for (table, e) in terms {
                let digit = nibble(e, i);
                if digit != 0 {
                    acc = Some(match acc {
                        None => table[digit],
                        Some(x) => self.mul(&x, &table[digit]),
                    });
                }
            }
        }
        acc.unwrap_or(self.one)
    }

    /// `a^e` for an exponent given as little-endian limbs (4-bit fixed
    /// window).
    pub fn pow(&self, a: &Fe<N>, e: &[u64]) -> Fe<N> {
        self.multi_pow(&[(&self.window_table(a), e)])
    }

    /// `a^x · b^y` by Straus's interleaving: both exponents' windows
    /// share one chain of squarings.
    pub fn pow2(&self, a: &Fe<N>, x: &[u64], b: &Fe<N>, y: &[u64]) -> Fe<N> {
        let (ta, tb) = (self.window_table(a), self.window_table(b));
        self.multi_pow(&[(&ta, x), (&tb, y)])
    }

    /// `a⁻¹`, or `None` when `a` is zero or shares a factor with `m`.
    ///
    /// Kaliski's almost inverse of the stored `a·R` leaves
    /// `s = (a·R)⁻¹·2ᵏ` with `0 < k < 2·64·N`, and the Montgomery form of
    /// `a⁻¹` is `s·R²·2⁻ᵏ`. Two Montgomery products reach it: by `R³` then
    /// `2^(64·N − k)` when `k ≤ 64·N`, else by `R²` then `2^(2·64·N − k)`.
    /// No prime modulus is needed.
    pub fn inv(&self, a: &Fe<N>) -> Option<Fe<N>> {
        let (s, k) = crate::modular::almost_inverse(&a.0, &self.m)?;
        // redc(x, y) = x·y·R⁻¹ with R = 2^bits.
        let bits = 64 * N as u32;
        let (restore, j) = if k > bits {
            (&self.r2, 2 * bits - k)
        } else {
            (&self.r3, bits - k)
        };
        let mut pow2 = [0u64; N];
        pow2[(j / 64) as usize] = 1 << (j % 64);
        Some(Fe(self.redc_mul(&self.redc_mul(&s, restore), &pow2)))
    }

    /// Montgomery form of an arbitrary integer (reduced modulo `m`).
    pub fn to_mont(&self, a: &Ubig) -> Fe<N> {
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
    pub fn mul_chain(&self, a: &Ubig, b: &Ubig, rounds: u32) -> Ubig {
        let b = self.to_mont(b);
        let mut acc = self.to_mont(a);
        for _ in 0..rounds {
            acc = self.mul(&acc, &b);
        }
        self.to_ubig(&acc)
    }

    /// The plain integer an element represents, in `[0, m)`.
    pub fn to_ubig(&self, a: &Fe<N>) -> Ubig {
        let mut one = [0u64; N];
        one[0] = 1;
        Ubig::from_limbs(self.redc_mul(&a.0, &one).to_vec())
    }
}

/// A product modulo a [`Modulus`] on its kernel, with no division and no
/// allocation per product.
///
/// The chain holds `acc = value·Rᵉ mod m` and leaves the power `e` of the
/// Montgomery radix `R` to the end: a Montgomery product `acc·x·R⁻¹` with
/// a plain factor `x` costs one kernel multiply and lowers `e` by one, so
/// no factor is converted in. [`MulChain::value`] divides the `Rᵉ` out
/// once, with a few squarings of `R mod m`.
///
/// ```
/// use egka_bigint::{Modulus, MulChain, Ubig};
///
/// let m = Modulus::new(Ubig::from_u64(1_000_003)).expect("odd and > 1");
/// let mut chain = MulChain::pow(&Ubig::from_u64(5), &Ubig::from_u64(3), &m);
/// chain.mul(&Ubig::from_u64(7));
/// assert_eq!(chain.value(), Ubig::from_u64(125 * 7));
/// ```
#[derive(Clone, Debug)]
pub struct MulChain {
    m: Modulus,
    /// `acc = value·Rᵉ mod m`, reduced, in the kernel's low limbs.
    acc: [u64; MAX_LIMBS],
    /// The power `e ≤ 1` of `R` in `acc`.
    e: i64,
}

fn widen<const N: usize>(a: [u64; N]) -> [u64; MAX_LIMBS] {
    let mut w = [0; MAX_LIMBS];
    w[..N].copy_from_slice(&a);
    w
}

fn narrow<const N: usize>(w: &[u64; MAX_LIMBS]) -> [u64; N] {
    let mut a = [0; N];
    a.copy_from_slice(&w[..N]);
    a
}

impl<const N: usize> MontField<N> {
    /// `acc·x·R⁻¹` for a reduced `acc` and any plain `x`.
    fn mul_plain(&self, acc: &[u64; N], x: &Ubig) -> [u64; N] {
        if x.limbs().len() > N {
            self.redc_mul(
                acc,
                &to_limbs(&x.rem_ref(&Ubig::from_limbs(self.m.to_vec()))),
            )
        } else {
            self.redc_mul(acc, &to_limbs(x))
        }
    }

    /// The plain value `acc·R⁻ᵉ mod m` for `e ≤ 1`.
    fn unscale(&self, acc: &[u64; N], e: i64) -> Ubig {
        let mut factor = [0u64; N];
        if e == 1 {
            factor[0] = 1;
        } else {
            // Montgomery form of R^t is R^(t+1), and R's own is R² mod m.
            let r = Fe(self.r2);
            let t = e.unsigned_abs();
            let mut p = self.one;
            for i in (0..u64::BITS - t.leading_zeros()).rev() {
                p = self.sqr(&p);
                if t >> i & 1 == 1 {
                    p = self.mul(&p, &r);
                }
            }
            factor = p.0;
        }
        Ubig::from_limbs(self.redc_mul(acc, &factor).to_vec())
    }
}

impl MulChain {
    /// The chain holding 1, modulo `m`.
    pub fn new(m: &Modulus) -> Self {
        MulChain {
            m: m.clone(),
            acc: widen([1]),
            e: 0,
        }
    }

    /// The chain holding `base^e mod m`.
    pub fn pow(base: &Ubig, e: &Ubig, m: &Modulus) -> Self {
        let acc = with_limbs!(m.kernel(), f => widen(f.pow(&f.to_mont(base), e.limbs()).0));
        MulChain {
            m: m.clone(),
            acc,
            e: 1,
        }
    }

    /// `self · x`.
    pub fn mul(&mut self, x: &Ubig) {
        self.acc = with_limbs!(self.m.kernel(), f => widen(f.mul_plain(&narrow(&self.acc), x)));
        self.e -= 1;
    }

    /// `self · other`, for a chain under the same modulus.
    pub fn mul_chain(&mut self, other: &MulChain) {
        let b = &other.acc;
        self.acc =
            with_limbs!(self.m.kernel(), f => widen(f.redc_mul(&narrow(&self.acc), &narrow(b))));
        self.e += other.e - 1;
    }

    /// The product as a plain integer in `[0, m)`.
    pub fn value(&self) -> Ubig {
        match self.e {
            0 => Ubig::from_limbs(self.acc.to_vec()),
            e => with_limbs!(self.m.kernel(), f => f.unscale(&narrow(&self.acc), e)),
        }
    }
}

/// The widest kernel, in 64-bit limbs (1024 bits).
pub(crate) const MAX_LIMBS: usize = 16;

/// One value per kernel width — 4, 8 or 16 limbs — chosen once from a
/// modulus size.
#[derive(Debug)]
pub(crate) enum Limbs<T4, T8, T16> {
    L4(T4),
    L8(T8),
    L16(T16),
}

/// Runs `$body` with `$v` bound to whichever width `$limbs` holds; the
/// body is compiled once per limb count.
macro_rules! with_limbs {
    ($limbs:expr, $v:ident => $body:expr) => {
        match $limbs {
            $crate::mont::Limbs::L4($v) => $body,
            $crate::mont::Limbs::L8($v) => $body,
            $crate::mont::Limbs::L16($v) => $body,
        }
    };
}
pub(crate) use with_limbs;

/// The kernel at the narrowest width that holds its modulus.
pub(crate) type Kernel = Limbs<MontField<4>, MontField<8>, MontField<16>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::{mod_add, mod_mul, mod_pow, mod_sub};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn u(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }

    /// Left-to-right square-and-multiply on `Ubig`, the reference for
    /// every exponentiation here.
    fn pow_ref(a: &Ubig, e: &Ubig, m: &Ubig) -> Ubig {
        let base = a.rem_ref(m);
        let mut acc = Ubig::one().rem_ref(m);
        for i in (0..e.bit_length()).rev() {
            acc = acc.mul_ref(&acc).rem_ref(m);
            if e.bit(i) {
                acc = acc.mul_ref(&base).rem_ref(m);
            }
        }
        acc
    }

    /// An odd number of exactly `bits` bits drawn from `seed`.
    fn odd_modulus(bits: u32, seed: u64) -> Ubig {
        let mut v = crate::random_bits(&mut SmallRng::seed_from_u64(seed), bits);
        v.set_bit(0);
        v
    }

    /// Checks the `N`-limb kernel's multiply, square, add, subtract,
    /// negate and conversions against `mul_ref` + `rem_ref`.
    fn check<const N: usize>(m: &Ubig, a: &Ubig, b: &Ubig) {
        let f = MontField::<N>::new(m);
        let (fa, fb) = (f.to_mont(a), f.to_mont(b));
        let (ra, rb) = (a.rem_ref(m), b.rem_ref(m));
        assert_eq!(f.to_ubig(&fa), ra, "round trip, m = {m}");
        assert_eq!(f.to_ubig(&f.mul(&fa, &fb)), a.mul_ref(b).rem_ref(m), "mul");
        assert_eq!(f.to_ubig(&f.sqr(&fa)), a.mul_ref(a).rem_ref(m), "sqr");
        assert_eq!(f.to_ubig(&f.add(&fa, &fb)), mod_add(&ra, &rb, m), "add");
        assert_eq!(f.to_ubig(&f.sub(&fa, &fb)), mod_sub(&ra, &rb, m), "sub");
        assert_eq!(
            f.to_ubig(&f.neg(&fa)),
            mod_sub(&Ubig::zero(), &ra, m),
            "neg"
        );
    }

    /// [`check`] at every kernel width that holds `m`.
    fn check_fitting(m: &Ubig, a: &Ubig, b: &Ubig) {
        check::<16>(m, a, b);
        if m.limbs().len() <= 8 {
            check::<8>(m, a, b);
        }
        if m.limbs().len() <= 4 {
            check::<4>(m, a, b);
        }
    }

    fn edges(m: &Ubig) -> [Ubig; 4] {
        [
            Ubig::zero(),
            Ubig::one(),
            m.checked_sub(&u(2)).unwrap(),
            m.checked_sub(&Ubig::one()).unwrap(),
        ]
    }

    #[test]
    fn kernel_edge_operands_at_every_width() {
        for (bits, seed) in [(64, 1), (256, 2), (257, 3), (512, 4), (640, 5), (1024, 6)] {
            let m = odd_modulus(bits, seed);
            for a in &edges(&m) {
                for b in &edges(&m) {
                    check_fitting(&m, a, b);
                }
            }
        }
    }

    /// `inv` of the `N`-limb kernel for prime `p`, against Fermat's
    /// `a^(p−2)` on the same kernel.
    fn check_inv<const N: usize>(p: &Ubig, seed: u64) {
        let f = MontField::<N>::new(p);
        let fermat = p.checked_sub(&u(2)).unwrap();
        let mut values = edges(p).to_vec();
        values.extend((0..8).map(|i| odd_modulus(p.bit_length() + 8, seed + i).rem_ref(p)));
        for a in &values {
            let fa = f.to_mont(a);
            let want = (!a.is_zero()).then(|| f.pow(&fa, fermat.limbs()));
            assert_eq!(f.inv(&fa), want, "a = {a}, p = {p}");
        }
    }

    #[test]
    fn inv_matches_fermat_at_every_width() {
        let mut rng = SmallRng::seed_from_u64(30);
        let prime = |bits: u32, rng: &mut SmallRng| crate::gen_prime(rng, bits);
        check_inv::<1>(&prime(61, &mut rng), 31);
        check_inv::<1>(&u(3), 32);
        check_inv::<2>(&prime(127, &mut rng), 33);
        check_inv::<3>(&prime(161, &mut rng), 34);
        check_inv::<4>(&prime(256, &mut rng), 35);
        check_inv::<8>(&prime(509, &mut rng), 36);
        check_inv::<16>(&prime(1000, &mut rng), 37);
        // A narrow prime in a wide kernel: k stays far below 64·N.
        check_inv::<16>(&prime(64, &mut rng), 38);
    }

    #[test]
    fn inv_of_a_non_unit_or_zero_is_none() {
        // 3·5·7·11·13 and a 1024-bit odd composite with a known factor.
        let small = u(15015);
        let f = MontField::<1>::new(&small);
        for a in [0u64, 3, 5, 7, 11, 13, 21, 15015 - 3] {
            assert_eq!(f.inv(&f.to_mont(&u(a))), None, "a = {a}");
        }
        for a in [1u64, 2, 4, 16, 15014] {
            let fa = f.to_mont(&u(a));
            let inv = f.inv(&fa).expect("a unit");
            assert_eq!(f.mul(&fa, &inv), f.one(), "a = {a}");
        }
        let q = odd_modulus(500, 39);
        let m = q.mul_ref(&odd_modulus(520, 40));
        let f = MontField::<16>::new(&m);
        assert_eq!(f.inv(&Fe::ZERO), None);
        assert_eq!(f.inv(&f.to_mont(&q)), None);
        assert_eq!(f.inv(&f.to_mont(&q.mul_ref(&u(12345)))), None);
        let unit = f.to_mont(&u(2).shl_bits(700));
        let inv = f.inv(&unit).expect("a power of two is a unit");
        assert_eq!(f.mul(&unit, &inv), f.one());
    }

    #[test]
    fn inv64_is_inverse() {
        for x in [1u64, 3, 5, 0xdead_beef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv64(x)), 1, "x = {x}");
        }
    }

    #[test]
    fn roundtrip_mont_form() {
        let n = Ubig::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let f = MontField::<4>::new(&n);
        let a = Ubig::from_hex("123456789abcdef0123456789abcdef").unwrap();
        assert_eq!(f.to_ubig(&f.to_mont(&a)), a);
    }

    #[test]
    fn mont_mul_matches_plain() {
        let n = Ubig::from_hex("f0000000000000000000000000000001").unwrap();
        let f = MontField::<4>::new(&n);
        let a = Ubig::from_hex("deadbeefcafebabe").unwrap();
        let b = Ubig::from_hex("0123456789abcdef0011223344556677").unwrap();
        let prod = f.to_ubig(&f.mul(&f.to_mont(&a), &f.to_mont(&b)));
        assert_eq!(prod, mod_mul(&a, &b, &n));
    }

    #[test]
    fn pow_matches_small_modulus() {
        let n = u(1000003); // odd prime
        let (base, e) = (u(123456), u(789));
        let mut expect = Ubig::one();
        for _ in 0..789 {
            expect = mod_mul(&expect, &base, &n);
        }
        assert_eq!(mod_pow(&base, &e, &n), expect);
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let f = MontField::<4>::new(&u(9973));
        assert_eq!(f.to_ubig(&f.pow(&f.to_mont(&u(5)), &[])), Ubig::one());
        assert_eq!(f.to_ubig(&f.pow(&f.to_mont(&u(5)), &[0, 0])), Ubig::one());
        assert_eq!(mod_pow(&u(5), &Ubig::zero(), &u(9973)), Ubig::one());
    }

    #[test]
    fn pow_large_modulus_consistency() {
        let n = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap();
        let a = Ubig::from_hex("aabbccddeeff00112233445566778899").unwrap();
        let e = u(65537);
        assert_eq!(mod_pow(&a, &e, &n), pow_ref(&a, &e, &n));
    }

    #[test]
    fn mod_pow_exponents_zero_and_one_at_every_width() {
        for (bits, seed) in [(64, 7), (300, 8), (1024, 9)] {
            let m = odd_modulus(bits, seed);
            for a in edges(&m).iter().chain([&m.add_ref(&u(5))]) {
                assert_eq!(mod_pow(a, &Ubig::zero(), &m), Ubig::one());
                assert_eq!(mod_pow(a, &Ubig::one(), &m), a.rem_ref(&m));
            }
        }
    }

    #[test]
    fn mod_pow_on_even_and_over_wide_moduli() {
        let even = odd_modulus(1024, 10).add_ref(&Ubig::one());
        let wide = odd_modulus(1088, 11); // 17 limbs: the fallback path
        assert!(Modulus::new(even.clone()).is_none() && Modulus::new(wide.clone()).is_none());
        let a = odd_modulus(900, 12);
        for m in [&even, &wide] {
            for e in [Ubig::zero(), Ubig::one(), u(65537), odd_modulus(160, 13)] {
                assert_eq!(mod_pow(&a, &e, m), pow_ref(&a, &e, m), "e {e}");
            }
        }
    }

    #[test]
    fn straus_matches_two_powers() {
        let m = odd_modulus(1024, 14);
        let modulus = Modulus::new(m.clone()).unwrap();
        let (a, b) = (odd_modulus(1000, 15), odd_modulus(700, 16));
        let long = odd_modulus(161, 17);
        let short = odd_modulus(20, 18);
        let zero = Ubig::zero();
        for (x, y) in [
            (&long, &short),
            (&short, &long),
            (&zero, &long),
            (&long, &zero),
            (&zero, &zero),
        ] {
            let expect = mod_mul(&pow_ref(&a, x, &m), &pow_ref(&b, y, &m), &m);
            assert_eq!(modulus.pow2(&a, x, &b, y), expect, "x {x} y {y}");
        }
    }

    #[test]
    fn mul_chain_matches_mod_mul_folds() {
        for m in [
            odd_modulus(61, 21),
            odd_modulus(256, 22),
            odd_modulus(1024, 23),
        ] {
            // Factors below m, above it, and wider than any kernel.
            let xs: Vec<Ubig> = (0..24u64)
                .map(|i| odd_modulus([40, 1000, 1100][i as usize % 3], 100 + i))
                .collect();
            let fold = xs.iter().fold(Ubig::one(), |acc, x| mod_mul(&acc, x, &m));
            let m = Modulus::new(m).unwrap();
            assert_eq!(m.product(&xs), fold, "m = {m:?}");
            assert_eq!(m.product(&[]), Ubig::one());
            assert_eq!(MulChain::new(&m).value(), Ubig::one());
            // BD's key chain: a = b^e, then a ·= x and key ·= a, in turn.
            let e = odd_modulus(160, 24);
            let mut a = MulChain::pow(&xs[1], &e, &m);
            let mut key = a.clone();
            let mut a_ref = pow_ref(&xs[1], &e, &m);
            let mut key_ref = a_ref.clone();
            assert_eq!(a.value(), a_ref);
            for x in &xs {
                a.mul(x);
                key.mul_chain(&a);
                a_ref = mod_mul(&a_ref, x, &m);
                key_ref = mod_mul(&key_ref, &a_ref, &m);
                assert_eq!(a.value(), a_ref, "m = {m:?}");
                assert_eq!(key.value(), key_ref, "m = {m:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernel_matches_mul_ref_rem_ref(
            seed in any::<u64>(),
            sa in any::<u64>(),
            sb in any::<u64>(),
        ) {
            for bits in [200u32, 256, 500, 512, 1000, 1024] {
                let m = odd_modulus(bits, seed);
                let a = odd_modulus(bits + 64, sa).rem_ref(&m);
                let b = odd_modulus(bits, sb).rem_ref(&m);
                check_fitting(&m, &a, &b);
            }
        }
    }
}
