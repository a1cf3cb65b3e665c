//! Primality testing and prime/group generation.
//!
//! Provides Miller–Rabin with small-prime trial division, plus the two
//! parameter generators the paper's protocols need:
//!
//! * [`gen_prime`] — a random prime of a given bit length (used pairwise for
//!   the GQ modulus `n = p'q'`).
//! * [`gen_schnorr_group`] — primes `(p, q)` with `q | p - 1` and a generator
//!   `g` of the order-`q` subgroup of `Z_p^*` (the BD group).

use std::sync::Arc;

use rand::Rng;

use crate::fixed::{FixedBase, Modulus};
use crate::modular::{mod_mul, mod_pow};
use crate::rng::{random_below, random_bits};
use crate::ubig::Ubig;

/// Primes below 1000, used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 168] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// Number of Miller–Rabin rounds. 40 random bases push the error probability
/// below 2^-80 for any candidate size used in this workspace.
const MR_ROUNDS: u32 = 40;

/// Probabilistic primality test (trial division + Miller–Rabin).
pub fn is_prime<R: Rng + ?Sized>(n: &Ubig, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if let Some(small) = n.to_u64() {
        if SMALL_PRIMES.contains(&small) {
            return true;
        }
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES[1..] {
        let pu = Ubig::from_u64(p);
        if &pu >= n {
            break;
        }
        if n.rem_ref(&pu).is_zero() {
            return false;
        }
    }
    miller_rabin(n, MR_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random bases, all on one kernel for `n`
/// (plain exponentiations past 1024 bits). `n` must be odd and > 3.
fn miller_rabin<R: Rng + ?Sized>(n: &Ubig, rounds: u32, rng: &mut R) -> bool {
    let one = Ubig::one();
    let two = Ubig::from_u64(2);
    let n_minus_1 = n.checked_sub(&one).unwrap();
    let s = n_minus_1.trailing_zeros().unwrap();
    let d = n_minus_1.shr_bits(s);
    let m = Modulus::new(n.clone());

    'witness: for _ in 0..rounds {
        // base in [2, n-2]
        let a = random_below(rng, &n_minus_1.checked_sub(&two).unwrap()).add_ref(&two);
        let mut x = m
            .as_ref()
            .map_or_else(|| mod_pow(&a, &d, n), |m| m.pow(&a, &d));
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = mod_mul(&x, &x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random prime with exactly `bits` bits (top two bits set, so
/// products of two such primes have exactly `2*bits` bits).
///
/// # Panics
/// Panics if `bits < 3`.
pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Ubig {
    assert!(bits >= 3, "prime needs at least 3 bits");
    loop {
        let mut cand = random_bits(rng, bits);
        cand.set_bit(0); // odd
        if bits >= 2 {
            cand.set_bit(bits - 2); // top-two-bits-set convention
        }
        if is_prime(&cand, rng) {
            return cand;
        }
    }
}

/// A Schnorr group: primes `p` (modulus) and `q` (subgroup order) with
/// `q | p - 1`, and a generator `g` of the order-`q` subgroup.
///
/// Built once by [`SchnorrGroup::new`] (or [`gen_schnorr_group`]), it owns
/// the kernels of `p` and `q` and the Lim–Lee comb of `g`, sized to `q`'s
/// bit length. A clone shares all three. The fields are public for reading:
/// the comb belongs to the values they held at construction.
#[derive(Clone, Debug)]
pub struct SchnorrGroup {
    /// Large prime modulus (paper: 1024-bit).
    pub p: Modulus,
    /// Prime subgroup order (paper: 160-bit).
    pub q: Modulus,
    /// Generator of the order-`q` subgroup of `Z_p^*`.
    pub g: Ubig,
    g_comb: Arc<FixedBase>,
}

impl SchnorrGroup {
    /// The group `(p, q, g)`, with its kernels and comb built; `None` when
    /// `p` or `q` is even, at most 1, or wider than 1024 bits. The group's
    /// invariants are checked by [`SchnorrGroup::validate`].
    pub fn new(p: Ubig, q: Ubig, g: Ubig) -> Option<Self> {
        Some(Self::from_moduli(Modulus::new(p)?, Modulus::new(q)?, g))
    }

    fn from_moduli(p: Modulus, q: Modulus, g: Ubig) -> Self {
        let g_comb = Arc::new(FixedBase::new(&g, &p, q.bit_length()));
        SchnorrGroup { p, q, g, g_comb }
    }

    /// `g^e mod p` through the generator's comb. An exponent of more bits
    /// than `q` takes the windowed exponentiation instead.
    pub fn g_pow(&self, e: &Ubig) -> Ubig {
        self.g_comb.pow(e)
    }

    /// True when `a` and `b` share their kernels and comb (one is a clone
    /// of the other).
    pub fn ptr_eq(a: &SchnorrGroup, b: &SchnorrGroup) -> bool {
        Modulus::ptr_eq(&a.p, &b.p)
            && Modulus::ptr_eq(&a.q, &b.q)
            && Arc::ptr_eq(&a.g_comb, &b.g_comb)
    }

    /// Checks the defining invariants (primality probabilistic): `p` and
    /// `q` prime, `q | p − 1`, and `1 < g < p` of order `q`.
    pub fn validate<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let p_minus_1 = self.p.checked_sub(&Ubig::one()).unwrap();
        is_prime(&self.p, rng)
            && is_prime(&self.q, rng)
            && p_minus_1.rem_ref(&self.q).is_zero()
            && Ubig::one() < self.g
            && self.g < *self.p
            && self.p.pow(&self.g, &self.q).is_one()
    }
}

/// Groups are equal when `(p, q, g)` are: the kernels and the comb are
/// functions of them.
impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        (&self.p, &self.q, &self.g) == (&other.p, &other.q, &other.g)
    }
}

impl Eq for SchnorrGroup {}

/// Generates a Schnorr group with `p_bits`-bit `p` and `q_bits`-bit `q`
/// (paper: 1024 / 160).
///
/// # Panics
/// Panics unless `q_bits + 1 < p_bits ≤ 1024`.
pub fn gen_schnorr_group<R: Rng + ?Sized>(rng: &mut R, p_bits: u32, q_bits: u32) -> SchnorrGroup {
    assert!(p_bits > q_bits + 1, "p must be much larger than q");
    let q = gen_prime(rng, q_bits);
    let one = Ubig::one();
    loop {
        // p = q * k + 1 with k random of the right size and even (so p is odd).
        let mut k = random_bits(rng, p_bits - q_bits);
        if k.is_odd() {
            k = k.add_ref(&one);
        }
        let p = q.mul_ref(&k).add_ref(&one);
        if p.bit_length() != p_bits || !is_prime(&p, rng) {
            continue;
        }
        let p = Modulus::new(p).expect("an odd prime");
        // g = h^((p-1)/q) for random h; retry until g != 1.
        let p_minus_1 = p.checked_sub(&one).unwrap();
        let exp = p_minus_1.div_rem(&q).0;
        loop {
            let h = random_below(rng, &p_minus_1);
            if h.is_zero() || h.is_one() {
                continue;
            }
            let g = p.pow(&h, &exp);
            if !g.is_one() {
                let q = Modulus::new(q).expect("an odd prime");
                return SchnorrGroup::from_moduli(p, q, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn small_primes_recognized() {
        let mut rng = SmallRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 97, 997] {
            assert!(is_prime(&Ubig::from_u64(p), &mut rng), "{p}");
        }
        for c in [0u64, 1, 4, 9, 15, 91, 561, 1001] {
            assert!(!is_prime(&Ubig::from_u64(c), &mut rng), "{c}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = SmallRng::seed_from_u64(2);
        // 561, 1105, 1729, 2465, 2821, 6601 are Carmichael numbers.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601] {
            assert!(!is_prime(&Ubig::from_u64(c), &mut rng), "{c}");
        }
    }

    #[test]
    fn mersenne_prime_accepted() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m61 = Ubig::from_u64((1u64 << 61) - 1);
        assert!(is_prime(&m61, &mut rng));
    }

    #[test]
    fn known_large_prime() {
        let mut rng = SmallRng::seed_from_u64(4);
        // 2^127 - 1 is a Mersenne prime.
        let p = Ubig::one().shl_bits(127).checked_sub(&Ubig::one()).unwrap();
        assert!(is_prime(&p, &mut rng));
        // 2^128 - 1 = 3 * 5 * 17 * ... is composite.
        let c = Ubig::one().shl_bits(128).checked_sub(&Ubig::one()).unwrap();
        assert!(!is_prime(&c, &mut rng));
    }

    #[test]
    fn gen_prime_has_requested_bits() {
        let mut rng = SmallRng::seed_from_u64(5);
        let p = gen_prime(&mut rng, 96);
        assert_eq!(p.bit_length(), 96);
        assert!(is_prime(&p, &mut rng));
    }

    #[test]
    fn schnorr_group_validates() {
        let mut rng = SmallRng::seed_from_u64(7);
        let grp = gen_schnorr_group(&mut rng, 256, 96);
        assert!(grp.validate(&mut rng));
        assert_eq!(grp.p.bit_length(), 256);
        assert_eq!(grp.q.bit_length(), 96);
    }

    #[test]
    fn unreduced_generators_fail_validation() {
        let mut rng = SmallRng::seed_from_u64(8);
        let grp = gen_schnorr_group(&mut rng, 256, 96);
        let with_g = |g: Ubig| SchnorrGroup::new(Ubig::clone(&grp.p), Ubig::clone(&grp.q), g);
        assert!(with_g(grp.g.clone()).unwrap().validate(&mut rng));
        // p + 1 ≡ 1 and g₀ + p ≡ g₀: both pass `g^q ≡ 1`, neither is reduced.
        let unreduced = [grp.p.add_ref(&Ubig::one()), grp.g.add_ref(&grp.p)];
        for g in unreduced.into_iter().chain([Ubig::zero(), Ubig::one()]) {
            assert!(!with_g(g.clone()).unwrap().validate(&mut rng), "g = {g}");
        }
    }

    #[test]
    fn new_rejects_even_moduli() {
        let mut rng = SmallRng::seed_from_u64(9);
        let grp = gen_schnorr_group(&mut rng, 256, 96);
        let (p, q, g) = (Ubig::clone(&grp.p), Ubig::clone(&grp.q), grp.g.clone());
        let even = |x: &Ubig| x.add_ref(&Ubig::one());
        assert!(SchnorrGroup::new(even(&p), q.clone(), g.clone()).is_none());
        assert!(SchnorrGroup::new(p.clone(), even(&q), g.clone()).is_none());
        assert_eq!(SchnorrGroup::new(p, q, g), Some(grp));
    }
}
