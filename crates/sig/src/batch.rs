//! Epoch batch verification.
//!
//! A coordinator rekey verifies one signature per member — dozens of
//! independent `(key, message, signature)` triples under the same scheme.
//! This module verifies a GQ *epoch batch* with lowest-failing-index
//! attribution ([`gq_batch_verify_split`]): a random linear combination
//! (RLC) over the *split* (shared challenge) form used by the GKA
//! protocols. Each member's response satisfies `s_i^e = t_i · h_i^c
//! (mod n)`, a genuine multiplicative relation, so scaled equations
//! multiply into `(∏ s_i^{a_i})^e = ∏ t_i^{a_i} · (∏ h_i^{a_i})^c` —
//! three full-size exponentiations plus short 64-bit
//! multi-exponentiations, regardless of batch size. The
//! independent-signature form (`GqSignature`, which checks a *hash
//! equality* `c = H(t, m)`) cannot be combined this way; the paper's own
//! aggregate check (eq. (2), [`crate::gq`]) stays as-is.
//!
//! DSA and ECDSA have no batch entry point; callers loop over
//! [`Dsa::verify`](crate::Dsa::verify) and
//! [`Ecdsa::verify`](crate::Ecdsa::verify). No RLC exists for unmodified
//! DSA: the verifier checks `r_i = (g^{u1_i} y_i^{u2_i} mod p) mod q`, and
//! the outer `mod q` is not a group homomorphism, so per-equation scaling
//! does not distribute over a product of the `r_i` (known DSA batch
//! schemes require the signer to transmit the full `g^{k}` value). For
//! ECDSA, recovering each `R_i` from `r_i` for an RLC check costs more per
//! item than an individual verification.
//!
//! **Coefficient seeding.** The RLC coefficients must be unpredictable to
//! whoever chose the signatures, and must *not* consume protocol RNG (node
//! RNG draw order is golden-pinned by the simulator). They are therefore
//! derived Fiat–Shamir-style: a seed is hashed from the full batch
//! transcript (all keys, messages and signature components), and `a_i`
//! expands from `(seed, i)`. Flipping any bit of any input reshuffles every
//! coefficient.
//!
//! **Attribution.** The entry point returns `Result<(), usize>` with the
//! lowest failing index. A failed RLC check bisects over sub-batches to
//! find the culprit — and since a batch of valid signatures satisfies the
//! combined equation *identically* (not just with high probability), a
//! valid batch is never rejected.

use egka_bigint::{mod_mul, mod_pow, mont_ctx, MontForm, Montgomery, Ubig};
use egka_hash::mgf1;

use crate::gq::GqParams;

const GQ_TAG: &[u8] = b"egka.batch.gq.v1";

/// One member's split-form GQ values (shared challenge `c`).
#[derive(Clone, Copy, Debug)]
pub struct GqSplitItem<'a> {
    /// Member identity (hashed to `h_i` via [`GqParams::hash_id`]).
    pub id: &'a [u8],
    /// Round-1 commitment `t_i = τ_i^e`.
    pub t: &'a Ubig,
    /// Round-2 response `s_i = τ_i · S_IDᵢ^c`.
    pub s: &'a Ubig,
}

/// Expands `(seed, i)` to a nonzero 64-bit RLC coefficient.
fn coefficient(tag: &[u8], seed: &[u8], i: usize) -> u64 {
    let mut input = Vec::with_capacity(seed.len() + 8);
    input.extend_from_slice(seed);
    input.extend_from_slice(&(i as u64).to_be_bytes());
    let bytes = mgf1(tag, &input, 8);
    u64::from_be_bytes(bytes.try_into().expect("mgf1 returns 8 bytes")) | 1
}

/// Appends a length-prefixed field to a transcript.
fn push_field(transcript: &mut Vec<u8>, bytes: &[u8]) {
    transcript.extend_from_slice(&(bytes.len() as u64).to_be_bytes());
    transcript.extend_from_slice(bytes);
}

// ------------------------------------------------------------------- GQ

/// Batch-verifies split-form GQ responses under the shared challenge `c`;
/// `Err(i)` is the lowest failing index.
///
/// Checks `(∏ s_i^{a_i})^e == ∏ t_i^{a_i} · (∏ h_i^{a_i})^c (mod n)` —
/// valid batches satisfy this identically, so acceptance is exact; a
/// forged response survives only if its coefficient draw lands in a
/// ≈2⁻⁶³ bad set. On failure the culprit is located by bisection
/// (`O(log n)` sub-batch checks) rather than a full individual sweep.
pub fn gq_batch_verify_split(
    params: &GqParams,
    c: &Ubig,
    items: &[GqSplitItem<'_>],
) -> Result<(), usize> {
    // Malformed values fail fast with exact attribution.
    for (i, it) in items.iter().enumerate() {
        if it.s.is_zero() || it.s >= &params.n || it.t.is_zero() || it.t >= &params.n {
            return Err(i);
        }
    }
    if items.is_empty() {
        return Ok(());
    }
    let hs: Vec<Ubig> = items.iter().map(|it| params.hash_id(it.id)).collect();

    let mut transcript = Vec::new();
    push_field(&mut transcript, &c.to_bytes_be());
    for (it, h) in items.iter().zip(&hs) {
        push_field(&mut transcript, &it.t.to_bytes_be());
        push_field(&mut transcript, &it.s.to_bytes_be());
        push_field(&mut transcript, &h.to_bytes_be());
    }
    let seed = mgf1(GQ_TAG, &transcript, 32);
    let coeffs: Vec<u64> = (0..items.len())
        .map(|i| coefficient(GQ_TAG, &seed, i))
        .collect();

    let ctx = mont_ctx(&params.n);
    if gq_range_holds(params, &ctx, c, items, &hs, &coeffs, 0, items.len()) {
        return Ok(());
    }
    match gq_bisect(params, &ctx, c, items, &hs, &coeffs, 0, items.len()) {
        Some(i) => Err(i),
        // The combined equation failed but bisection lost the culprit to a
        // coefficient collision (≈2⁻⁶³): settle it with a linear sweep.
        None => match items
            .iter()
            .zip(&hs)
            .position(|(it, h)| !gq_single_holds(params, c, it, h))
        {
            Some(i) => Err(i),
            None => Ok(()),
        },
    }
}

/// RLC check over `items[lo..hi]`.
#[allow(clippy::too_many_arguments)]
fn gq_range_holds(
    params: &GqParams,
    ctx: &Montgomery,
    c: &Ubig,
    items: &[GqSplitItem<'_>],
    hs: &[Ubig],
    coeffs: &[u64],
    lo: usize,
    hi: usize,
) -> bool {
    let s_prod = multi_pow_64(ctx, (lo..hi).map(|i| (items[i].s, coeffs[i])));
    let t_prod = multi_pow_64(ctx, (lo..hi).map(|i| (items[i].t, coeffs[i])));
    let h_prod = multi_pow_64(ctx, (lo..hi).map(|i| (&hs[i], coeffs[i])));
    let lhs = ctx.pow(&s_prod, &params.e);
    let rhs = mod_mul(&t_prod, &ctx.pow(&h_prod, c), &params.n);
    lhs == rhs
}

/// Locates a failing index inside a range known to fail the RLC check.
#[allow(clippy::too_many_arguments)]
fn gq_bisect(
    params: &GqParams,
    ctx: &Montgomery,
    c: &Ubig,
    items: &[GqSplitItem<'_>],
    hs: &[Ubig],
    coeffs: &[u64],
    lo: usize,
    hi: usize,
) -> Option<usize> {
    if hi - lo == 1 {
        return (!gq_single_holds(params, c, &items[lo], &hs[lo])).then_some(lo);
    }
    let mid = lo + (hi - lo) / 2;
    // A failing range has a failing half (the full product splits into the
    // two half-products), so recurse only into halves that fail.
    if !gq_range_holds(params, ctx, c, items, hs, coeffs, lo, mid) {
        if let Some(i) = gq_bisect(params, ctx, c, items, hs, coeffs, lo, mid) {
            return Some(i);
        }
    }
    if !gq_range_holds(params, ctx, c, items, hs, coeffs, mid, hi) {
        if let Some(i) = gq_bisect(params, ctx, c, items, hs, coeffs, mid, hi) {
            return Some(i);
        }
    }
    None
}

/// The split-form check for one member: `s^e == t · h^c (mod n)`.
fn gq_single_holds(params: &GqParams, c: &Ubig, item: &GqSplitItem<'_>, h: &Ubig) -> bool {
    let lhs = mod_pow(item.s, &params.e, &params.n);
    let rhs = mod_mul(item.t, &mod_pow(h, c, &params.n), &params.n);
    lhs == rhs
}

/// `∏ base_i^{e_i} mod n` for 64-bit exponents via one shared
/// square-and-multiply chain: 64 squarings total plus ~32 multiplies per
/// term, instead of a full chain per term.
fn multi_pow_64<'a>(ctx: &Montgomery, pairs: impl Iterator<Item = (&'a Ubig, u64)>) -> Ubig {
    let ms: Vec<(MontForm, u64)> = pairs
        .map(|(b, e)| (ctx.to_mont(&b.rem_ref(ctx.modulus())), e))
        .collect();
    let mut acc = ctx.one();
    for bit in (0..64u32).rev() {
        acc = ctx.sqr(&acc);
        for (m, e) in &ms {
            if (e >> bit) & 1 == 1 {
                acc = ctx.mul(&acc, m);
            }
        }
    }
    ctx.from_mont(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gq::GqPkg;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    // --------------------------------------------------------------- GQ

    struct GqFixture {
        pkg: GqPkg,
        c: Ubig,
        values: Vec<(Vec<u8>, Ubig, Ubig)>, // (id, t, s)
    }

    fn gq_fixture(n: usize, seed: u64) -> GqFixture {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let pkg = GqPkg::setup_with_e_bits(&mut rng, 128, 41);
        let p = &pkg.params;
        let ids: Vec<Vec<u8>> = (0..n).map(|i| format!("member-{i}").into_bytes()).collect();
        let keys: Vec<_> = ids.iter().map(|id| pkg.extract(id)).collect();
        let commits: Vec<(Ubig, Ubig)> = (0..n).map(|_| p.commit(&mut rng)).collect();
        let t_agg =
            p.aggregate_commitments(&commits.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>());
        let c = p.shared_challenge(&t_agg, b"epoch binding");
        let values = (0..n)
            .map(|i| {
                let s = p.respond(&keys[i], &commits[i].0, &c);
                (ids[i].clone(), commits[i].1.clone(), s)
            })
            .collect();
        GqFixture { pkg, c, values }
    }

    fn gq_items(fx: &GqFixture) -> Vec<GqSplitItem<'_>> {
        fx.values
            .iter()
            .map(|(id, t, s)| GqSplitItem { id, t, s })
            .collect()
    }

    #[test]
    fn gq_accepts_valid_batches_of_all_sizes() {
        for n in [1usize, 2, 3, 7] {
            let fx = gq_fixture(n, 0x60 + n as u64);
            assert_eq!(
                gq_batch_verify_split(&fx.pkg.params, &fx.c, &gq_items(&fx)),
                Ok(()),
                "n = {n}"
            );
        }
    }

    #[test]
    fn gq_attributes_each_forged_position() {
        let n = 5;
        for bad in 0..n {
            let mut fx = gq_fixture(n, 0x6abc);
            fx.values[bad].2 = mod_mul(&fx.values[bad].2, &Ubig::from_u64(7), &fx.pkg.params.n);
            assert_eq!(
                gq_batch_verify_split(&fx.pkg.params, &fx.c, &gq_items(&fx)),
                Err(bad),
                "forged position {bad}"
            );
        }
    }

    #[test]
    fn gq_reports_lowest_of_several_forgeries() {
        let mut fx = gq_fixture(6, 0x6def);
        for bad in [1usize, 4] {
            fx.values[bad].1 = mod_mul(&fx.values[bad].1, &Ubig::from_u64(3), &fx.pkg.params.n);
        }
        assert_eq!(
            gq_batch_verify_split(&fx.pkg.params, &fx.c, &gq_items(&fx)),
            Err(1)
        );
    }

    #[test]
    fn gq_rejects_out_of_range_values() {
        let mut fx = gq_fixture(3, 0x6066);
        fx.values[1].2 = Ubig::zero();
        assert_eq!(
            gq_batch_verify_split(&fx.pkg.params, &fx.c, &gq_items(&fx)),
            Err(1)
        );
    }

    #[test]
    fn gq_batch_agrees_with_single_checks() {
        // Batch accepts iff every member passes the split-form check.
        let fx = gq_fixture(4, 0x6aaa);
        let p = &fx.pkg.params;
        let items = gq_items(&fx);
        for (id, t, s) in &fx.values {
            let h = p.hash_id(id);
            assert!(gq_single_holds(p, &fx.c, &GqSplitItem { id, t, s }, &h));
        }
        assert_eq!(gq_batch_verify_split(p, &fx.c, &items), Ok(()));
    }
}
