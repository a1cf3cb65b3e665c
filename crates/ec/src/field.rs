//! Prime-field arithmetic contexts on `Ubig` values.
//!
//! A [`Fp`] wraps an odd prime modulus of at most 256 bits; field elements
//! are plain [`Ubig`] values reduced into `[0, p)`. The field holds one
//! fixed-limb Montgomery kernel for its modulus, at the narrowest limb
//! width that fits it, and every product, power, inverse and square root
//! runs there: one conversion in and one out, with no division unless an
//! input is wider than the kernel. Addition and subtraction stay on
//! `Ubig`. This is the crate's one prime field: affine points, the affine
//! group law, point compression, the `F_p²` Miller loop of the pairing and
//! arithmetic modulo a curve's subgroup order all run on it. Scalar
//! multiplication converts its points once into the same kernel and stays
//! there (see [`crate::curve`]).

use egka_bigint::Ubig;
use rand::Rng;

use crate::mont::{width_of, with_width, MontField, Width};

/// The Montgomery kernel of one modulus, at its limb width.
pub(crate) type Kernel = Width<MontField<1>, MontField<2>, MontField<3>, MontField<4>>;

/// A prime field `F_p` for an odd prime `p`.
#[derive(Clone, Debug)]
pub struct Fp {
    p: Ubig,
    kernel: Kernel,
    /// `(p + 1) / 4`, defined only when `p ≡ 3 (mod 4)` (square-root exponent).
    sqrt_exp: Option<Ubig>,
}

impl Fp {
    /// Builds a field context.
    ///
    /// # Panics
    /// Panics if `p` is even, `p <= 1` or `p` is wider than 256 bits.
    /// Primality is the caller's responsibility (checked in curve
    /// constructors and tests).
    pub fn new(p: Ubig) -> Self {
        let kernel = match width_of(&p) {
            1 => Width::W1(MontField::new(&p)),
            2 => Width::W2(MontField::new(&p)),
            3 => Width::W3(MontField::new(&p)),
            _ => Width::W4(MontField::new(&p)),
        };
        let sqrt_exp = if p.low_u64() & 3 == 3 {
            Some(p.add_ref(&Ubig::one()).shr_bits(2))
        } else {
            None
        };
        Fp {
            p,
            kernel,
            sqrt_exp,
        }
    }

    /// The Montgomery kernel every product runs on; scalar multiplication
    /// computes in it too.
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> &Ubig {
        &self.p
    }

    /// Number of bits in `p`.
    pub fn bits(&self) -> u32 {
        self.p.bit_length()
    }

    /// Canonical byte width of a serialized element.
    pub fn byte_len(&self) -> usize {
        (self.p.bit_length() as usize).div_ceil(8)
    }

    /// True iff `p ≡ 3 (mod 4)` (fast square roots available).
    pub fn is_3_mod_4(&self) -> bool {
        self.sqrt_exp.is_some()
    }

    /// Reduces an arbitrary integer into the field.
    pub fn reduce(&self, a: &Ubig) -> Ubig {
        with_width!(&self.kernel, k => k.to_ubig(&k.to_mont(a)))
    }

    /// `(a + b) mod p` for reduced operands.
    pub fn add(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let s = a.add_ref(b);
        if s >= self.p {
            s.checked_sub(&self.p).unwrap()
        } else {
            s
        }
    }

    /// `(a - b) mod p` for reduced operands.
    pub fn sub(&self, a: &Ubig, b: &Ubig) -> Ubig {
        if a >= b {
            a.checked_sub(b).unwrap()
        } else {
            a.add_ref(&self.p).checked_sub(b).unwrap()
        }
    }

    /// `-a mod p` for a reduced operand.
    pub fn neg(&self, a: &Ubig) -> Ubig {
        if a.is_zero() {
            Ubig::zero()
        } else {
            self.p.checked_sub(a).unwrap()
        }
    }

    /// `(a * b) mod p`, for any `a` and `b`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        with_width!(&self.kernel, k => k.to_ubig(&k.mul(&k.to_mont(a), &k.to_mont(b))))
    }

    /// `a² mod p`.
    pub fn sqr(&self, a: &Ubig) -> Ubig {
        with_width!(&self.kernel, k => k.to_ubig(&k.sqr(&k.to_mont(a))))
    }

    /// `a * k mod p` for a small scalar.
    pub fn mul_u64(&self, a: &Ubig, k: u64) -> Ubig {
        self.mul(a, &Ubig::from_u64(k))
    }

    /// `a^e mod p` (4-bit fixed window).
    pub fn pow(&self, a: &Ubig, e: &Ubig) -> Ubig {
        with_width!(&self.kernel, k => k.to_ubig(&k.pow(&k.to_mont(a), e.limbs())))
    }

    /// `a^{-1} mod p`, or `None` for `a ≡ 0` (or, for a composite
    /// modulus, any non-unit).
    pub fn inv(&self, a: &Ubig) -> Option<Ubig> {
        with_width!(&self.kernel, k => k.inv(&k.to_mont(a)).map(|x| k.to_ubig(&x)))
    }

    /// Legendre symbol test: true iff `a` is a non-zero quadratic residue.
    pub fn is_qr(&self, a: &Ubig) -> bool {
        !a.is_zero() && egka_bigint::jacobi(a, &self.p) == 1
    }

    /// Square root of a quadratic residue for `p ≡ 3 (mod 4)`:
    /// `a^{(p+1)/4}`. Returns `None` if `a` is a non-residue.
    ///
    /// # Panics
    /// Panics if the field modulus is not `≡ 3 (mod 4)`.
    pub fn sqrt(&self, a: &Ubig) -> Option<Ubig> {
        let e = self.sqrt_exp.as_ref().expect("sqrt requires p ≡ 3 (mod 4)");
        with_width!(&self.kernel, k => {
            let a = k.to_mont(a);
            let r = k.pow(&a, e.limbs());
            (k.sqr(&r) == a).then(|| k.to_ubig(&r))
        })
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        egka_bigint::random_below(rng, &self.p)
    }

    /// Uniformly random non-zero element.
    pub fn random_nonzero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        loop {
            let v = self.random(rng);
            if !v.is_zero() {
                return v;
            }
        }
    }
}

/// An element of `F_p² = F_p[i] / (i² + 1)`, valid when `p ≡ 3 (mod 4)`.
///
/// Stored as `c0 + c1·i` with both coordinates reduced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fp2El {
    /// Real coordinate.
    pub c0: Ubig,
    /// Imaginary coordinate (coefficient of `i`).
    pub c1: Ubig,
}

impl Fp2El {
    /// The additive identity.
    pub fn zero() -> Self {
        Fp2El {
            c0: Ubig::zero(),
            c1: Ubig::zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp2El {
            c0: Ubig::one(),
            c1: Ubig::zero(),
        }
    }

    /// Embeds a base-field element.
    pub fn from_base(c0: Ubig) -> Self {
        Fp2El {
            c0,
            c1: Ubig::zero(),
        }
    }

    /// True iff this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// True iff this is the one element.
    pub fn is_one(&self) -> bool {
        self.c0.is_one() && self.c1.is_zero()
    }
}

/// The quadratic extension field `F_p²` with `i² = -1`.
///
/// Requires `p ≡ 3 (mod 4)` so that `x² + 1` is irreducible over `F_p`.
#[derive(Clone, Debug)]
pub struct Fp2 {
    base: Fp,
}

impl Fp2 {
    /// Builds the extension over `base`.
    ///
    /// # Panics
    /// Panics unless `p ≡ 3 (mod 4)` (otherwise `i² = -1` is reducible).
    pub fn new(base: Fp) -> Self {
        assert!(base.is_3_mod_4(), "F_p² with i² = -1 needs p ≡ 3 (mod 4)");
        Fp2 { base }
    }

    /// The base field.
    pub fn base(&self) -> &Fp {
        &self.base
    }

    /// `a + b`.
    pub fn add(&self, a: &Fp2El, b: &Fp2El) -> Fp2El {
        Fp2El {
            c0: self.base.add(&a.c0, &b.c0),
            c1: self.base.add(&a.c1, &b.c1),
        }
    }

    /// `a - b`.
    pub fn sub(&self, a: &Fp2El, b: &Fp2El) -> Fp2El {
        Fp2El {
            c0: self.base.sub(&a.c0, &b.c0),
            c1: self.base.sub(&a.c1, &b.c1),
        }
    }

    /// `-a`.
    pub fn neg(&self, a: &Fp2El) -> Fp2El {
        Fp2El {
            c0: self.base.neg(&a.c0),
            c1: self.base.neg(&a.c1),
        }
    }

    /// `a · b` in three base products (Karatsuba: the cross term is
    /// `(a0 + a1)(b0 + b1) − a0·b0 − a1·b1`).
    pub fn mul(&self, a: &Fp2El, b: &Fp2El) -> Fp2El {
        let f = &self.base;
        let t0 = f.mul(&a.c0, &b.c0);
        let t1 = f.mul(&a.c1, &b.c1);
        let c0 = f.sub(&t0, &t1);
        // (a0 + a1)(b0 + b1) - t0 - t1 = a0 b1 + a1 b0
        let s = f.mul(&f.add(&a.c0, &a.c1), &f.add(&b.c0, &b.c1));
        let c1 = f.sub(&f.sub(&s, &t0), &t1);
        Fp2El { c0, c1 }
    }

    /// `a²`.
    pub fn sqr(&self, a: &Fp2El) -> Fp2El {
        let f = &self.base;
        // (a0 + a1 i)² = (a0+a1)(a0-a1) + 2 a0 a1 i
        let c0 = f.mul(&f.add(&a.c0, &a.c1), &f.sub(&a.c0, &a.c1));
        let t = f.mul(&a.c0, &a.c1);
        let c1 = f.add(&t, &t);
        Fp2El { c0, c1 }
    }

    /// Conjugate `a0 - a1·i` (which equals the Frobenius `a^p`).
    pub fn conj(&self, a: &Fp2El) -> Fp2El {
        Fp2El {
            c0: a.c0.clone(),
            c1: self.base.neg(&a.c1),
        }
    }

    /// Norm `a0² + a1² ∈ F_p`.
    pub fn norm(&self, a: &Fp2El) -> Ubig {
        let f = &self.base;
        f.add(&f.sqr(&a.c0), &f.sqr(&a.c1))
    }

    /// `a^{-1}`, or `None` for zero.
    pub fn inv(&self, a: &Fp2El) -> Option<Fp2El> {
        if a.is_zero() {
            return None;
        }
        let f = &self.base;
        let n_inv = f.inv(&self.norm(a))?;
        Some(Fp2El {
            c0: f.mul(&a.c0, &n_inv),
            c1: f.mul(&f.neg(&a.c1), &n_inv),
        })
    }

    /// `a^e` by square-and-multiply.
    pub fn pow(&self, a: &Fp2El, e: &Ubig) -> Fp2El {
        if e.is_zero() {
            return Fp2El::one();
        }
        let mut acc = Fp2El::one();
        for i in (0..e.bit_length()).rev() {
            acc = self.sqr(&acc);
            if e.bit(i) {
                acc = self.mul(&acc, a);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_bigint::mod_pow;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    fn f23() -> Fp {
        Fp::new(Ubig::from_u64(23)) // 23 ≡ 3 (mod 4)
    }

    #[test]
    fn add_sub_neg_small() {
        let f = f23();
        let a = Ubig::from_u64(20);
        let b = Ubig::from_u64(7);
        assert_eq!(f.add(&a, &b), Ubig::from_u64(4));
        assert_eq!(f.sub(&b, &a), Ubig::from_u64(10));
        assert_eq!(f.neg(&b), Ubig::from_u64(16));
        assert_eq!(f.neg(&Ubig::zero()), Ubig::zero());
    }

    #[test]
    fn inv_times_self() {
        let f = f23();
        for a in 1..23u64 {
            let a = Ubig::from_u64(a);
            let inv = f.inv(&a).unwrap();
            assert_eq!(f.mul(&a, &inv), Ubig::one());
        }
        assert!(f.inv(&Ubig::zero()).is_none());
    }

    #[test]
    fn sqrt_of_squares() {
        let f = f23();
        for a in 0..23u64 {
            let a = Ubig::from_u64(a);
            let sq = f.sqr(&a);
            let r = f.sqrt(&sq).expect("square must have a root");
            assert_eq!(f.sqr(&r), sq);
        }
    }

    #[test]
    fn sqrt_rejects_non_residue() {
        let f = f23();
        // 5 is a non-residue mod 23.
        assert!(!f.is_qr(&Ubig::from_u64(5)));
        assert!(f.sqrt(&Ubig::from_u64(5)).is_none());
    }

    #[test]
    fn pow_matches_modpow() {
        let f = f23();
        let a = Ubig::from_u64(7);
        let e = Ubig::from_u64(13);
        assert_eq!(f.pow(&a, &e), mod_pow(&a, &e, f.modulus()));
    }

    #[test]
    fn fp2_mul_known() {
        // In F_23[i]: (2 + 3i)(4 + 5i) = 8 + 10i + 12i + 15i² = -7 + 22i = 16 + 22i
        let f2 = Fp2::new(f23());
        let a = Fp2El {
            c0: Ubig::from_u64(2),
            c1: Ubig::from_u64(3),
        };
        let b = Fp2El {
            c0: Ubig::from_u64(4),
            c1: Ubig::from_u64(5),
        };
        let c = f2.mul(&a, &b);
        assert_eq!(c.c0, Ubig::from_u64(16));
        assert_eq!(c.c1, Ubig::from_u64(22));
    }

    #[test]
    fn fp2_sqr_matches_mul() {
        let f2 = Fp2::new(f23());
        for c0 in 0..23u64 {
            let a = Fp2El {
                c0: Ubig::from_u64(c0),
                c1: Ubig::from_u64((c0 * 7 + 3) % 23),
            };
            assert_eq!(f2.sqr(&a), f2.mul(&a, &a));
        }
    }

    #[test]
    fn fp2_inv_times_self() {
        let f2 = Fp2::new(f23());
        let mut rng = ChaChaRng::seed_from_u64(9);
        for _ in 0..50 {
            let a = Fp2El {
                c0: f2.base().random(&mut rng),
                c1: f2.base().random(&mut rng),
            };
            if a.is_zero() {
                continue;
            }
            let inv = f2.inv(&a).unwrap();
            assert!(f2.mul(&a, &inv).is_one());
        }
    }

    #[test]
    fn fp2_conj_is_frobenius() {
        // a^p == conj(a) for p ≡ 3 (mod 4).
        let f2 = Fp2::new(f23());
        let a = Fp2El {
            c0: Ubig::from_u64(11),
            c1: Ubig::from_u64(17),
        };
        let frob = f2.pow(&a, &Ubig::from_u64(23));
        assert_eq!(frob, f2.conj(&a));
    }

    #[test]
    fn fp2_pow_group_order() {
        // The multiplicative group of F_p² has order p² - 1.
        let f2 = Fp2::new(f23());
        let a = Fp2El {
            c0: Ubig::from_u64(3),
            c1: Ubig::from_u64(1),
        };
        let order = Ubig::from_u64(23 * 23 - 1);
        assert!(f2.pow(&a, &order).is_one());
    }

    #[test]
    fn large_field_sqrt() {
        // A two-limb prime ≡ 3 (mod 4): the Mersenne prime 2^127 − 1
        // (2^127 ≡ 0 (mod 4)), so the kernel's upper limb is partly empty.
        let p = Ubig::one().shl_bits(127).checked_sub(&Ubig::one()).unwrap();
        let f = Fp::new(p);
        let mut rng = ChaChaRng::seed_from_u64(1);
        for _ in 0..10 {
            let a = f.random(&mut rng);
            let sq = f.sqr(&a);
            let r = f.sqrt(&sq).unwrap();
            assert_eq!(f.sqr(&r), sq);
        }
    }
}
