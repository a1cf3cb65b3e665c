//! Fixed-base precomputation: shared Montgomery kernels and Lim–Lee
//! comb tables for repeated exponentiation of the same base.
//!
//! Two observations drive this module. First, building a kernel
//! ([`MontField::new`]) costs two full-width divisions (`R mod n`,
//! `R² mod n`), and the protocols exponentiate under a handful of
//! long-lived moduli (the BD prime `p`, the DSA prime, the GQ ring `n`)
//! thousands of times — so kernels are interned in a bounded global cache
//! (`mont_ctx`). Second, most of those exponentiations share one *base*
//! too (the group generator `g`), which a Lim–Lee comb turns from
//! `≈ bits` squarings + `bits/4` multiplies into `bits/TEETH` of each
//! (`FixedBase`, [`mod_pow_fixed`]): a ≥4× saving at 1024-bit sizes on
//! top of the shared kernel.
//!
//! Both caches are keyed by value (limb vectors), so distinct `Ubig`
//! instances of the same modulus/base share entries; both are bounded
//! and flush wholesale when full, which keeps transient moduli (e.g.
//! Miller–Rabin candidates during group generation) from pinning memory.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::mont::{with_limbs, Fe, Kernel, Limbs, MontField};
use crate::ubig::Ubig;

/// Comb teeth: exponent bits are split into this many interleaved rows.
const TEETH: u32 = 8;

/// Bound on cached kernels (flush-on-full).
const CTX_CAP: usize = 64;

/// Bound on cached fixed-base tables (flush-on-full).
const FIXED_CAP: usize = 32;

fn ctx_cache() -> &'static Mutex<HashMap<Vec<u64>, Arc<Kernel>>> {
    static CACHE: OnceLock<Mutex<HashMap<Vec<u64>, Arc<Kernel>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

type FixedKey = (Vec<u64>, Vec<u64>, u32);

fn fixed_cache() -> &'static Mutex<HashMap<FixedKey, Arc<FixedBase>>> {
    static CACHE: OnceLock<Mutex<HashMap<FixedKey, Arc<FixedBase>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The interned kernel for modulus `m`, or `None` when `m` is even,
/// `m <= 1`, or wider than 16 limbs (see [`Kernel::new`]).
///
/// Kernels are built outside the cache lock, so two threads racing on a
/// new modulus may both build one; the loser's build is discarded.
pub(crate) fn mont_ctx(m: &Ubig) -> Option<Arc<Kernel>> {
    if let Some(ctx) = ctx_cache().lock().unwrap().get(m.limbs()) {
        return Some(Arc::clone(ctx));
    }
    let ctx = Arc::new(Kernel::new(m)?);
    let mut cache = ctx_cache().lock().unwrap();
    if cache.len() >= CTX_CAP {
        cache.clear();
    }
    Some(Arc::clone(cache.entry(m.limbs().to_vec()).or_insert(ctx)))
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

/// A comb at whichever kernel width its modulus needs.
pub(crate) type FixedBase = Limbs<Comb<4>, Comb<8>, Comb<16>>;

impl FixedBase {
    /// `base^e mod m` via the comb. Falls back to the windowed kernel
    /// exponentiation when `e` overflows the comb's `TEETH · cols` bit
    /// capacity (exponents in this workspace are reduced below the
    /// modulus, so the fallback never fires on protocol paths).
    pub(crate) fn pow(&self, e: &Ubig) -> Ubig {
        with_limbs!(self, comb => comb.pow(e))
    }
}

/// The interned comb for `(base, m)` sized for `cap_bits`-bit exponents;
/// builds (and caches) on first use. `None` when `m` has no kernel (see
/// [`mont_ctx`]).
pub(crate) fn fixed_base(base: &Ubig, m: &Ubig, cap_bits: u32) -> Option<Arc<FixedBase>> {
    let cap_bits = cap_bits.max(1);
    let key = (m.limbs().to_vec(), base.limbs().to_vec(), cap_bits);
    if let Some(fb) = fixed_cache().lock().unwrap().get(&key) {
        return Some(Arc::clone(fb));
    }
    let ctx = mont_ctx(m)?;
    let fb = Arc::new(match &*ctx {
        Limbs::L4(f) => Limbs::L4(Comb::new(base, f, cap_bits)),
        Limbs::L8(f) => Limbs::L8(Comb::new(base, f, cap_bits)),
        Limbs::L16(f) => Limbs::L16(Comb::new(base, f, cap_bits)),
    });
    let mut cache = fixed_cache().lock().unwrap();
    if cache.len() >= FIXED_CAP {
        cache.clear();
    }
    Some(Arc::clone(cache.entry(key).or_insert(fb)))
}

/// `base^e mod m` through the fixed-base comb cache — a drop-in for
/// [`crate::mod_pow`] at call sites whose base recurs (generators).
/// Moduli without a kernel (even, or wider than 16 limbs) fall back to
/// the generic path.
///
/// The comb capacity is bucketed to the next multiple of 64 bits above
/// `e.bit_length()`, so exponents of similar size (e.g. everything below
/// a subgroup order `q`) share one table and short exponents never pay
/// for a modulus-sized column walk.
///
/// # Panics
/// Panics if `m` is zero or one.
pub fn mod_pow_fixed(base: &Ubig, e: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero() && !m.is_one(), "modulus must be > 1");
    if e.is_zero() {
        return Ubig::one();
    }
    let bucket = e.bit_length().div_ceil(64).max(1) * 64;
    match fixed_base(base, m, bucket) {
        Some(fb) => fb.pow(e),
        None => crate::modular::mod_pow(base, e, m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_pow;

    fn u(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }

    #[test]
    fn comb_matches_mod_pow_small() {
        let m = u(1_000_003);
        for base in [0u64, 1, 2, 123_456, 999_999] {
            for e in [0u64, 1, 2, 3, 788, 789, 1_000_002] {
                assert_eq!(
                    mod_pow_fixed(&u(base), &u(e), &m),
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
        for e in [
            Ubig::from_u64(65_537),
            Ubig::from_hex("ffffffffffffffffffffffffffffffff").unwrap(),
            m.checked_sub(&Ubig::one()).unwrap(),
        ] {
            assert_eq!(mod_pow_fixed(&base, &e, &m), mod_pow(&base, &e, &m));
        }
    }

    #[test]
    fn oversized_exponent_falls_back() {
        let m = u(9973);
        let fb = fixed_base(&u(5), &m, 64).unwrap();
        let cols = with_limbs!(&*fb, comb => comb.cols);
        let e = Ubig::one().shl_bits(TEETH * cols + 3);
        assert_eq!(fb.pow(&e), mod_pow(&u(5), &e, &m));
    }

    #[test]
    fn even_modulus_falls_back() {
        assert_eq!(mod_pow_fixed(&u(3), &u(5), &u(1024)), u(243));
    }

    #[test]
    fn contexts_are_shared() {
        let m = u(1_000_003);
        let a = mont_ctx(&m).unwrap();
        let b = mont_ctx(&Ubig::from_u64(1_000_003)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn combs_are_shared_per_base() {
        let m = u(1_000_003);
        let a = fixed_base(&u(7), &m, 64).unwrap();
        let b = fixed_base(&u(7), &m, 64).unwrap();
        let c = fixed_base(&u(8), &m, 64).unwrap();
        let d = fixed_base(&u(7), &m, 128).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn short_exponent_bucket_matches_long() {
        // The same (base, m) queried with a 60-bit then a 160-bit exponent
        // uses two differently-sized combs; both must agree with mod_pow.
        let m = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap();
        let base = u(2);
        let short = Ubig::from_hex("fedcba987654321").unwrap();
        let long = Ubig::from_hex("ffeeddccbbaa99887766554433221100aabbccdd").unwrap();
        assert_eq!(mod_pow_fixed(&base, &short, &m), mod_pow(&base, &short, &m));
        assert_eq!(mod_pow_fixed(&base, &long, &m), mod_pow(&base, &long, &m));
    }
}
