//! Precomputation owned by long-lived parameters: a [`Modulus`] holds its
//! Montgomery kernel, and `FixedBase` is a Lim–Lee comb for a base
//! exponentiated again and again under one.
//!
//! Building a kernel ([`MontField::new`]) costs two full-width divisions,
//! and the protocols exponentiate under a handful of moduli fixed at Setup
//! thousands of times, so the parameters hold each as a [`Modulus`], built
//! once and shared by clones. Most of those exponentiations share one
//! *base* too, the group generator `g`, which a comb turns from `≈ bits`
//! squarings + `bits/4` multiplies into `bits/TEETH` of each (≥4× at
//! 1024-bit sizes); [`crate::SchnorrGroup::g_pow`] walks it.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::mont::{with_limbs, Fe, Kernel, Limbs, MontField, MulChain, MAX_LIMBS};
use crate::ubig::Ubig;

/// Comb teeth: exponent bits are split into this many interleaved rows.
const TEETH: u32 = 8;

/// An odd modulus `m > 1` of at most 16 limbs together with its
/// Montgomery kernel, built once.
///
/// Cloning bumps an `Arc`, so a parameter set cloned per session shares
/// one kernel. Equality and `Debug` go by value, and the handle derefs to
/// its [`Ubig`] for read-only use.
///
/// ```
/// use egka_bigint::{mod_pow, Modulus, Ubig};
///
/// let m = Modulus::new(Ubig::from_u64(1_000_003)).expect("odd and > 1");
/// let (a, e) = (Ubig::from_u64(5), Ubig::from_u64(77));
/// assert_eq!(m.pow(&a, &e), mod_pow(&a, &e, &m));
/// assert!(Modulus::new(Ubig::from_u64(1024)).is_none());
/// ```
#[derive(Clone)]
pub struct Modulus(Arc<(Ubig, Kernel)>);

impl Modulus {
    /// The handle for `m`, or `None` when `m` is even, `m <= 1`, or `m` is
    /// wider than 16 limbs.
    pub fn new(m: Ubig) -> Option<Self> {
        if m.is_even() || m.is_one() {
            return None;
        }
        let kernel = match m.limbs().len() {
            0..=4 => Limbs::L4(MontField::new(&m)),
            5..=8 => Limbs::L8(MontField::new(&m)),
            9..=MAX_LIMBS => Limbs::L16(MontField::new(&m)),
            _ => return None,
        };
        Some(Modulus(Arc::new((m, kernel))))
    }

    pub(crate) fn kernel(&self) -> &Kernel {
        &self.0 .1
    }

    /// True when both handles share one kernel (one is a clone of the
    /// other).
    pub fn ptr_eq(a: &Modulus, b: &Modulus) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// `a^e mod m`.
    pub fn pow(&self, a: &Ubig, e: &Ubig) -> Ubig {
        with_limbs!(self.kernel(), f => f.to_ubig(&f.pow(&f.to_mont(a), e.limbs())))
    }

    /// `a^x · b^y mod m`: one two-base (Straus) exponentiation, so both
    /// powers share their squarings.
    pub fn pow2(&self, a: &Ubig, x: &Ubig, b: &Ubig, y: &Ubig) -> Ubig {
        with_limbs!(self.kernel(), f => {
            f.to_ubig(&f.pow2(&f.to_mont(a), x.limbs(), &f.to_mont(b), y.limbs()))
        })
    }

    /// `a⁻¹ mod m`, or `None` when `gcd(a, m) ≠ 1`: Kaliski's almost
    /// inverse on the kernel's limbs, with no division and no allocation.
    pub fn inverse(&self, a: &Ubig) -> Option<Ubig> {
        with_limbs!(self.kernel(), f => f.inv(&f.to_mont(a)).map(|x| f.to_ubig(&x)))
    }

    /// `∏ factors mod m` as one [`MulChain`] (1 for no factors).
    pub fn product<'a>(&self, factors: impl IntoIterator<Item = &'a Ubig>) -> Ubig {
        let mut chain = MulChain::new(self);
        for x in factors {
            chain.mul(x);
        }
        chain.value()
    }
}

impl Deref for Modulus {
    type Target = Ubig;

    fn deref(&self) -> &Ubig {
        &self.0 .0
    }
}

impl PartialEq for Modulus {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Modulus {}

impl fmt::Debug for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A Lim–Lee fixed-base comb over one `(base, modulus)` pair at one kernel
/// width, sized for exponents of up to `TEETH · cols` bits.
///
/// The exponent is viewed as `TEETH` (8) rows of `cols` bits;
/// `table[t - 1] = base^(Σ_{j ∈ t} 2^{j·cols})` for every non-empty
/// tooth subset `t`. Evaluation walks the columns MSB-first: one
/// squaring plus at most one table multiply per column —
/// `cols = ⌈cap_bits/TEETH⌉` of each, instead of `bits` squarings.
///
/// Sizing the comb to the *exponent* capacity matters: BD and DSA
/// exponentiate a 1024-bit generator by `q`-sized (~160-bit) exponents,
/// so a modulus-sized comb would waste 6× the column walk.
pub(crate) struct Comb<const N: usize> {
    f: MontField<N>,
    cols: u32,
    table: Vec<Fe<N>>,
}

impl<const N: usize> Comb<N> {
    fn new(base: &Ubig, f: &MontField<N>, cap_bits: u32) -> Self {
        let cols = cap_bits.max(1).div_ceil(TEETH);
        // powers[j] = base^(2^(j·cols)) in Montgomery form.
        let mut powers = Vec::with_capacity(TEETH as usize);
        powers.push(f.to_mont(base));
        for j in 1..TEETH as usize {
            let mut p = powers[j - 1];
            for _ in 0..cols {
                p = f.sqr(&p);
            }
            powers.push(p);
        }
        // table[t-1] = Π_{j: bit j of t} powers[j], built by splitting off
        // the lowest tooth so each entry costs one multiply.
        let mut table = Vec::with_capacity((1usize << TEETH) - 1);
        for t in 1usize..(1 << TEETH) {
            let low = t.trailing_zeros() as usize;
            let rest = t & (t - 1);
            let entry = if rest == 0 {
                powers[low]
            } else {
                f.mul(&table[rest - 1], &powers[low])
            };
            table.push(entry);
        }
        Comb {
            f: f.clone(),
            cols,
            table,
        }
    }

    fn pow(&self, e: &Ubig) -> Ubig {
        if e.bit_length() > TEETH * self.cols {
            return self.f.to_ubig(&self.f.pow(&self.table[0], e.limbs()));
        }
        let mut acc = self.f.one();
        for col in (0..self.cols).rev() {
            acc = self.f.sqr(&acc);
            let mut t = 0usize;
            for j in 0..TEETH {
                if e.bit(j * self.cols + col) {
                    t |= 1 << j;
                }
            }
            if t != 0 {
                acc = self.f.mul(&acc, &self.table[t - 1]);
            }
        }
        self.f.to_ubig(&acc)
    }
}

/// A comb at whichever kernel width its modulus needs. Its `Debug` names
/// it without printing the table.
pub(crate) struct FixedBase(Limbs<Comb<4>, Comb<8>, Comb<16>>);

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FixedBase")
    }
}

impl FixedBase {
    /// The comb of `base` under `m`, sized for `cap_bits`-bit exponents.
    pub(crate) fn new(base: &Ubig, m: &Modulus, cap_bits: u32) -> Self {
        FixedBase(match m.kernel() {
            Limbs::L4(f) => Limbs::L4(Comb::new(base, f, cap_bits)),
            Limbs::L8(f) => Limbs::L8(Comb::new(base, f, cap_bits)),
            Limbs::L16(f) => Limbs::L16(Comb::new(base, f, cap_bits)),
        })
    }

    /// `base^e mod m` via the comb. Falls back to the windowed kernel
    /// exponentiation when `e` overflows the comb's `TEETH · cols` bit
    /// capacity.
    pub(crate) fn pow(&self, e: &Ubig) -> Ubig {
        with_limbs!(&self.0, comb => comb.pow(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_pow;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn u(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }

    #[test]
    fn comb_matches_mod_pow_small() {
        let m = Modulus::new(u(1_000_003)).unwrap();
        for base in [0u64, 1, 2, 123_456, 999_999] {
            let comb = FixedBase::new(&u(base), &m, 20);
            for e in [0u64, 1, 2, 3, 788, 789, 1_000_002] {
                assert_eq!(
                    comb.pow(&u(e)),
                    mod_pow(&u(base), &u(e), &m),
                    "base {base} e {e}"
                );
            }
        }
    }

    #[test]
    fn comb_matches_mod_pow_large() {
        let m = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap(); // odd
        let base = Ubig::from_hex("aabbccddeeff00112233445566778899").unwrap();
        let comb = FixedBase::new(&base, &Modulus::new(m.clone()).unwrap(), m.bit_length());
        for e in [
            Ubig::from_u64(65_537),
            Ubig::from_hex("ffffffffffffffffffffffffffffffff").unwrap(),
            m.checked_sub(&Ubig::one()).unwrap(),
        ] {
            assert_eq!(comb.pow(&e), mod_pow(&base, &e, &m));
        }
    }

    /// A small Schnorr group, whose generator's comb is sized to `q`.
    fn group() -> crate::SchnorrGroup {
        crate::gen_schnorr_group(&mut SmallRng::seed_from_u64(41), 256, 96)
    }

    #[test]
    fn oversized_exponent_falls_back() {
        // Exponents at and beyond 2^bits(q) overflow the q-sized comb.
        let g = group();
        let bits = g.q.bit_length();
        for e in [
            Ubig::one().shl_bits(bits),
            Ubig::one().shl_bits(bits + 3).add_ref(&u(5)),
            g.p.checked_sub(&Ubig::one()).unwrap(),
        ] {
            assert_eq!(g.g_pow(&e), mod_pow(&g.g, &e, &g.p), "e {e}");
        }
    }

    #[test]
    fn contexts_are_shared() {
        // A clone shares its kernel; an equal modulus built apart does not.
        let a = Modulus::new(u(1_000_003)).unwrap();
        let b = a.clone();
        let c = Modulus::new(u(1_000_003)).unwrap();
        assert!(Modulus::ptr_eq(&a, &b));
        assert_eq!(a, c);
        assert!(!Modulus::ptr_eq(&a, &c));
        let (x, e) = (u(5), u(77));
        assert_eq!(b.pow(&x, &e), c.pow(&x, &e));
    }

    #[test]
    fn combs_are_shared_per_base() {
        // A group's clones share its kernels and its generator's comb; an
        // equal group built apart builds its own.
        let g = group();
        let h = g.clone();
        let rebuilt =
            crate::SchnorrGroup::new(Ubig::clone(&g.p), Ubig::clone(&g.q), g.g.clone()).unwrap();
        assert!(crate::SchnorrGroup::ptr_eq(&g, &h));
        assert_eq!(rebuilt, g);
        assert!(!crate::SchnorrGroup::ptr_eq(&rebuilt, &g));
        let e = g.q.checked_sub(&u(2)).unwrap();
        assert_eq!(h.g_pow(&e), rebuilt.g_pow(&e));
    }

    #[test]
    fn even_modulus_falls_back() {
        // An even modulus (like 0 and 1) has no kernel, so no handle; the
        // free function takes its plain square-and-multiply path.
        for m in [0, 1, 1024] {
            assert!(Modulus::new(u(m)).is_none(), "m = {m}");
        }
        assert_eq!(mod_pow(&u(3), &u(5), &u(1024)), u(243));
    }

    #[test]
    fn short_exponent_bucket_matches_long() {
        // The one q-sized comb serves every exponent below 2^bits(q),
        // however short.
        let g = group();
        let q_minus_1 = g.q.checked_sub(&Ubig::one()).unwrap();
        for e in [
            Ubig::zero(),
            Ubig::one(),
            u(0xfedc_ba98),
            Ubig::from_hex("fedcba987654321").unwrap(),
            q_minus_1,
        ] {
            assert_eq!(g.g_pow(&e), mod_pow(&g.g, &e, &g.p), "e {e}");
        }
    }
}
