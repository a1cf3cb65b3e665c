//! The Burmester–Desmedt arithmetic core (Eurocrypt '94), shared by every
//! protocol variant in this crate.
//!
//! For a ring of users `U_1 … U_n` with secrets `r_i` and shares
//! `z_i = g^{r_i}`:
//!
//! ```text
//! Round 1:  broadcast z_i = g^{r_i}
//! Round 2:  broadcast X_i = (z_{i+1} / z_{i-1})^{r_i}
//! Key:      K = g^{r_1 r_2 + r_2 r_3 + … + r_n r_1}
//! ```
//!
//! Each user computes `K` with **one** exponentiation via the telescoping
//! chain `A_0 = z_{i-1}^{r_i}`, `A_{j+1} = A_j · X_{i+j}` (then
//! `K = ∏ A_j`), which together with `z_i` and `X_i` gives the paper's
//! "3 exponentiations per user" (Table 1). Lemma 1 (`∏ X_i ≡ 1 mod p`) is
//! the paper's integrity check on the Round-2 values.
//!
//! Functions here are pure algebra; operation metering happens at the
//! protocol layer (every function documents what the paper charges for it).

use egka_bigint::{mod_mul, random_below, MulChain, SchnorrGroup, Ubig};
use rand::Rng;

/// A user's Round-1 state: the secret exponent and the public share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    /// Secret `r_i ∈ Z_q^*`.
    pub r: Ubig,
    /// Public `z_i = g^{r_i} mod p`.
    pub z: Ubig,
}

/// Samples `r_i` and computes `z_i = g^{r_i}` (1 modular exponentiation).
pub fn round1_share<R: Rng + ?Sized>(rng: &mut R, group: &SchnorrGroup) -> Share {
    let r = loop {
        let r = random_below(rng, &group.q);
        if !r.is_zero() {
            break r;
        }
    };
    let z = group.g_pow(&r);
    Share { r, z }
}

/// Computes `X_i = (z_next / z_prev)^{r_i}`, which the paper prices as
/// 1 exponentiation + 1 modular inversion (the latter negligible).
///
/// Shares lie in the order-`q` subgroup, where `z_prev^{−r} = z_prev^{q−r}`,
/// so this evaluates `z_next^r · z_prev^{q−r}` as one two-base
/// exponentiation instead of inverting: bit-identical to the inversion form
/// on subgroup shares, and a value (never a panic) for any peer-supplied
/// `z_prev`.
pub fn round2_x(group: &SchnorrGroup, r: &Ubig, z_prev: &Ubig, z_next: &Ubig) -> Ubig {
    let neg_r = group.q.checked_sub(r).expect("r_i < q");
    group.p.pow2(z_next, r, z_prev, &neg_r)
}

/// Lemma 1: `∏ X_i ≡ 1 (mod p)`. Used by the proposed protocol to detect a
/// corrupted Round-2 value before deriving the key (all-multiply, no
/// exponentiations).
pub fn lemma1_holds(group: &SchnorrGroup, xs: &[Ubig]) -> bool {
    group.p.product(xs).is_one()
}

/// Derives the group key for the user at ring position 0 of `ring_xs`.
///
/// `ring_xs` must contain the `X` values in ring order **starting with this
/// user's own `X_i`**: `[X_i, X_{i+1}, …, X_{i+n-1}]` (indices mod `n`);
/// `z_prev` is the predecessor's share and `r` this user's secret.
///
/// Cost: 1 exponentiation + `2(n−1)` modular multiplications, all in
/// Montgomery form ([`MulChain`]).
pub fn compute_key(group: &SchnorrGroup, r: &Ubig, z_prev: &Ubig, ring_xs: &[Ubig]) -> Ubig {
    // A_0 = z_{i-1}^{r_i} = g^{r_{i-1} r_i}
    let mut a = MulChain::pow(z_prev, r, &group.p);
    let mut key = a.clone();
    // A_{j+1} = A_j · X_{i+j} = g^{r_{i+j} r_{i+j+1}}
    for x in &ring_xs[..ring_xs.len() - 1] {
        a.mul(x);
        key.mul_chain(&a);
    }
    key.value()
}

/// Reference (slow) key computation straight from the definition
/// `K = ∏ g^{r_i r_{i+1}}`, for cross-checking in tests: `n`
/// exponentiations.
pub fn compute_key_reference(group: &SchnorrGroup, rs: &[Ubig]) -> Ubig {
    let n = rs.len();
    let mut key = Ubig::one();
    for i in 0..n {
        let prod = mod_mul(&rs[i], &rs[(i + 1) % n], &group.q);
        key = mod_mul(&key, &group.g_pow(&prod), &group.p);
    }
    key
}

/// Runs a whole (unauthenticated) BD exchange in-process and returns every
/// user's derived key — the smallest possible harness, used by tests and by
/// the quickstart example.
pub fn run_plain<R: Rng + ?Sized>(rng: &mut R, group: &SchnorrGroup, n: usize) -> Vec<Ubig> {
    assert!(n >= 2);
    let shares: Vec<Share> = (0..n).map(|_| round1_share(rng, group)).collect();
    let xs: Vec<Ubig> = (0..n)
        .map(|i| {
            round2_x(
                group,
                &shares[i].r,
                &shares[(i + n - 1) % n].z,
                &shares[(i + 1) % n].z,
            )
        })
        .collect();
    debug_assert!(lemma1_holds(group, &xs));
    (0..n)
        .map(|i| {
            let ring: Vec<Ubig> = (0..n).map(|j| xs[(i + j) % n].clone()).collect();
            compute_key(group, &shares[i].r, &shares[(i + n - 1) % n].z, &ring)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_bigint::mod_pow;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    fn group() -> SchnorrGroup {
        let mut rng = ChaChaRng::seed_from_u64(0x4244);
        egka_bigint::gen_schnorr_group(&mut rng, 192, 64)
    }

    #[test]
    fn all_users_agree() {
        let g = group();
        let mut rng = ChaChaRng::seed_from_u64(1);
        for n in [2usize, 3, 4, 7, 10] {
            let keys = run_plain(&mut rng, &g, n);
            assert!(keys.windows(2).all(|w| w[0] == w[1]), "n = {n}");
        }
    }

    #[test]
    fn key_matches_reference_definition() {
        let g = group();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let n = 5;
        let shares: Vec<Share> = (0..n).map(|_| round1_share(&mut rng, &g)).collect();
        let xs: Vec<Ubig> = (0..n)
            .map(|i| {
                round2_x(
                    &g,
                    &shares[i].r,
                    &shares[(i + n - 1) % n].z,
                    &shares[(i + 1) % n].z,
                )
            })
            .collect();
        let ring: Vec<Ubig> = (0..n).map(|j| xs[j % n].clone()).collect();
        let fast = compute_key(&g, &shares[0].r, &shares[n - 1].z, &ring);
        let rs: Vec<Ubig> = shares.iter().map(|s| s.r.clone()).collect();
        assert_eq!(fast, compute_key_reference(&g, &rs));
    }

    #[test]
    fn lemma1_accepts_honest_and_rejects_corrupt() {
        let g = group();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let n = 6;
        let shares: Vec<Share> = (0..n).map(|_| round1_share(&mut rng, &g)).collect();
        let mut xs: Vec<Ubig> = (0..n)
            .map(|i| {
                round2_x(
                    &g,
                    &shares[i].r,
                    &shares[(i + n - 1) % n].z,
                    &shares[(i + 1) % n].z,
                )
            })
            .collect();
        assert!(lemma1_holds(&g, &xs));
        xs[3] = mod_mul(&xs[3], &Ubig::from_u64(2), &g.p);
        assert!(!lemma1_holds(&g, &xs));
    }

    #[test]
    fn corrupt_x_breaks_agreement() {
        // Without Lemma 1's check, a corrupted X silently forks the key.
        let g = group();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let n = 4;
        let shares: Vec<Share> = (0..n).map(|_| round1_share(&mut rng, &g)).collect();
        let mut xs: Vec<Ubig> = (0..n)
            .map(|i| {
                round2_x(
                    &g,
                    &shares[i].r,
                    &shares[(i + n - 1) % n].z,
                    &shares[(i + 1) % n].z,
                )
            })
            .collect();
        xs[2] = mod_mul(&xs[2], &g.g, &g.p);
        let keys: Vec<Ubig> = (0..n)
            .map(|i| {
                let ring: Vec<Ubig> = (0..n).map(|j| xs[(i + j) % n].clone()).collect();
                compute_key(&g, &shares[i].r, &shares[(i + n - 1) % n].z, &ring)
            })
            .collect();
        assert!(keys.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn shares_are_subgroup_elements() {
        let g = group();
        let mut rng = ChaChaRng::seed_from_u64(5);
        let s = round1_share(&mut rng, &g);
        assert!(mod_pow(&s.z, &g.q, &g.p).is_one());
        assert!(!s.r.is_zero() && s.r < *g.q);
    }

    #[test]
    fn round2_x_equals_the_inversion_form() {
        for seed in 1..=4u64 {
            let mut rng = ChaChaRng::seed_from_u64(0x5832 ^ seed);
            // The Toy profile's sizes.
            let g = egka_bigint::gen_schnorr_group(&mut rng, 256, 96);
            for _ in 0..4 {
                let [me, prev, next] = [(); 3].map(|_| round1_share(&mut rng, &g));
                let prev_inv = egka_bigint::mod_inverse(&prev.z, &g.p).expect("a unit");
                let want = mod_pow(&mod_mul(&next.z, &prev_inv, &g.p), &me.r, &g.p);
                assert_eq!(round2_x(&g, &me.r, &prev.z, &next.z), want, "seed {seed}");
            }
        }
    }

    #[test]
    fn round2_x_of_a_zero_share_is_a_value() {
        let g = group();
        let mut rng = ChaChaRng::seed_from_u64(8);
        let [me, next] = [(); 2].map(|_| round1_share(&mut rng, &g));
        assert!(round2_x(&g, &me.r, &Ubig::zero(), &next.z).is_zero());
    }

    #[test]
    fn two_party_key_is_squared_dh() {
        // n = 2: K = g^{r1 r2 + r2 r1} = g^{2 r1 r2}.
        let g = group();
        let mut rng = ChaChaRng::seed_from_u64(6);
        let keys = run_plain(&mut rng, &g, 2);
        assert_eq!(keys[0], keys[1]);
    }
}
