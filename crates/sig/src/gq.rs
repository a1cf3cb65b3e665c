//! The Guillou–Quisquater ID-based signature variant of paper §3, with the
//! aggregate ("batch") verification of paper eq. (2).
//!
//! ```text
//! Setup:   n = p'·q' (RSA modulus), prime e with gcd(e, Φ(n)) = 1,
//!          d = e⁻¹ mod Φ(n);  params = (n, e, H), master = (p', q', d)
//! Extract: S_ID = H(ID)^d mod n
//! Sign:    τ ∈R Z_n*, t = τ^e, c = H(t, M), s = τ·S_ID^c;  σ = (s, c)
//! Verify:  c == H(s^e · H(ID)^{−c}, M)
//! ```
//!
//! The GKA protocol uses the **split** form: commitments `t_i` are broadcast
//! in Round 1, a *shared* challenge `c = H(∏ t_i, Z)` binds everyone, each
//! user answers with `s_i`, and a single aggregate check
//!
//! ```text
//! c == H((∏ s_i)^e · (∏ H(U_i))^{−c}, Z)          (paper eq. (2))
//! ```
//!
//! replaces `n` individual verifications — that is what makes the proposed
//! protocol's "Sign Ver" row in Table 1 a constant 1.
//!
//! Both checks recover a commitment as one two-base exponentiation,
//! `s^e · (H(ID)⁻¹)^c` ([`egka_bigint::Modulus::pow2`]), over the signer's
//! public `H(ID)⁻¹ mod n`. An inversion mod `n` costs about as much as the
//! exponentiation itself, so each [`GqSecretKey`] carries its own
//! inverse: [`GqPkg::extract`] computes it from the `H(ID)` it already
//! holds, and the protocols hand verifiers the inverses their peers' keys
//! carry. [`GqParams::verify`] takes only an identity and inverts afresh.
//!
//! Security parameters follow the paper: 512-bit prime factors (1024-bit
//! `n`), 160-bit challenges, and a prime `e` one bit longer than the
//! challenge (classic GQ requires `e > 2^l` for soundness).

use std::sync::{Arc, OnceLock};

use egka_bigint::{
    gcd, gen_prime, mod_inverse, mod_mul, mod_sub, random_unit, Modulus, MulChain, Ubig,
};
use egka_hash::{challenge_hash, hash_to_unit};
use rand::Rng;

/// Domain-separation tag for identity hashing.
const ID_TAG: &[u8] = b"egka.gq.id.v1";

/// Public parameters of a GQ instance: `(n, e)` plus the hash conventions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqParams {
    /// RSA modulus `n = p'·q'`, with its kernel.
    pub n: Modulus,
    /// Public (verification) exponent, a prime with `e > 2^l`.
    pub e: Ubig,
}

/// The PKG's master key.
#[derive(Clone, Debug)]
pub struct GqMasterKey {
    /// First prime factor, with its kernel.
    pub p: Modulus,
    /// Second prime factor, with its kernel.
    pub q: Modulus,
    /// Extraction exponent `d = e⁻¹ mod Φ(n)`.
    pub d: Ubig,
}

/// A user's extracted ID key `S_ID = H(ID)^d mod n`, with the public
/// `H(ID)⁻¹ mod n` its signatures verify under.
///
/// The carried inverse belongs to the key's identity under the modulus of
/// the PKG that extracted it, so the identity is read-only.
#[derive(Clone, Debug)]
pub struct GqSecretKey {
    /// The identity the key was extracted for.
    id: Vec<u8>,
    /// `H(ID)^d mod n`.
    pub s_id: Ubig,
    /// `H(ID)⁻¹ mod n`: set by [`GqPkg::extract`], or on first use for a
    /// key rebuilt by [`GqSecretKey::new`]. Clones share it.
    h_inv: Arc<OnceLock<Ubig>>,
}

impl GqSecretKey {
    /// A key rebuilt from its identity and `S_ID` (decoded state). Its
    /// `H(ID)⁻¹` is computed on first use.
    pub fn new(id: Vec<u8>, s_id: Ubig) -> Self {
        GqSecretKey {
            id,
            s_id,
            h_inv: Arc::default(),
        }
    }

    /// The identity the key was extracted for.
    pub fn id(&self) -> &[u8] {
        &self.id
    }

    /// `H(ID)⁻¹ mod n` for the key's identity — the public value a peer
    /// verifies this key's signatures with. `params` must be those of the
    /// PKG that extracted the key: a rebuilt key computes its inverse
    /// under them on first use, and every later call returns that value
    /// (checked against `params` in debug builds).
    pub fn h_inv(&self, params: &GqParams) -> &Ubig {
        let inv = self.h_inv.get_or_init(|| params.h_inv(&self.id));
        debug_assert!(
            mod_mul(inv, &params.hash_id(&self.id), &params.n).is_one(),
            "H(ID)^-1 carried under another PKG's modulus"
        );
        inv
    }
}

/// Keys are equal when their identity and `S_ID` are: the inverse is a
/// function of the identity.
impl PartialEq for GqSecretKey {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.s_id == other.s_id
    }
}

impl Eq for GqSecretKey {}

/// A GQ signature `σ = (s, c)`.
///
/// Wire size (paper Table 3, note 3): `|s| = 1024` bits, `|c| = 160` bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqSignature {
    /// Response `s = τ·S_ID^c mod n`.
    pub s: Ubig,
    /// Challenge `c = H(t, M)`.
    pub c: Ubig,
}

/// A GQ private-key-generator (paper's PKG for the proposed protocol).
#[derive(Clone, Debug)]
pub struct GqPkg {
    /// Public parameters.
    pub params: GqParams,
    master: GqMasterKey,
    crt: Crt,
}

/// The master key's CRT form, precomputed once per PKG.
#[derive(Clone, Debug)]
struct Crt {
    /// `d mod (p' − 1)`.
    dp: Ubig,
    /// `d mod (q' − 1)`.
    dq: Ubig,
    /// `q'⁻¹ mod p'`.
    q_inv: Ubig,
}

impl GqPkg {
    /// Runs Setup with `factor_bits`-bit prime factors (paper: 512) and a
    /// `challenge_bits + 1`-bit prime `e` (paper: l = 160 ⇒ 161-bit `e`).
    pub fn setup<R: Rng + ?Sized>(rng: &mut R, factor_bits: u32) -> Self {
        Self::setup_with_e_bits(rng, factor_bits, 161)
    }

    /// Setup with an explicit `e` size (smaller values make unit tests with
    /// toy moduli possible; `e` must stay above the challenge space for real
    /// deployments).
    pub fn setup_with_e_bits<R: Rng + ?Sized>(rng: &mut R, factor_bits: u32, e_bits: u32) -> Self {
        loop {
            let p = gen_prime(rng, factor_bits);
            let q = gen_prime(rng, factor_bits);
            if p == q {
                continue;
            }
            let phi = p
                .checked_sub(&Ubig::one())
                .unwrap()
                .mul_ref(&q.checked_sub(&Ubig::one()).unwrap());
            // Prime e coprime to Φ(n); d = e⁻¹ mod Φ(n).
            let e = loop {
                let cand = gen_prime(rng, e_bits);
                if gcd(&cand, &phi).is_one() {
                    break cand;
                }
            };
            return Self::from_master(p, q, e);
        }
    }

    /// Rebuilds a PKG from its prime factors and public exponent (used by
    /// pinned parameter fixtures).
    ///
    /// # Panics
    /// Panics if `e` is not invertible modulo `Φ(p·q)` or if `p = q`.
    /// Primality of the factors is the caller's responsibility (fixture
    /// tests re-validate).
    pub fn from_master(p: Ubig, q: Ubig, e: Ubig) -> Self {
        let n = p.mul_ref(&q);
        let phi = p
            .checked_sub(&Ubig::one())
            .unwrap()
            .mul_ref(&q.checked_sub(&Ubig::one()).unwrap());
        let d = mod_inverse(&e, &phi).expect("fixture e must be a unit mod phi");
        let one = Ubig::one();
        let odd = |m: Ubig| Modulus::new(m).expect("odd prime factors");
        let (p, q) = (odd(p), odd(q));
        let crt = Crt {
            dp: d.rem_ref(&p.checked_sub(&one).expect("p' > 1")),
            dq: d.rem_ref(&q.checked_sub(&one).expect("q' > 1")),
            q_inv: p.inverse(&q).expect("distinct primes"),
        };
        GqPkg {
            params: GqParams { n: odd(n), e },
            master: GqMasterKey { p, q, d },
            crt,
        }
    }

    /// Extracts the ID key `S_ID = H(ID)^d mod n` (paper's Extract).
    ///
    /// Runs by the CRT: `H(ID)^d` modulo each prime factor, with `d`
    /// reduced modulo that factor minus one, then Garner's recombination
    /// `s = s_q + q·((s_p − s_q)·q⁻¹ mod p)`. Two half-size exponentiations
    /// cost about a quarter of one `mod_pow(H(ID), d, n)`, with the same
    /// result. The key also gets `H(ID)⁻¹`, one inversion of the `H(ID)`
    /// at hand.
    pub fn extract(&self, id: &[u8]) -> GqSecretKey {
        let h = self.params.hash_id(id);
        let GqMasterKey { p, q, .. } = &self.master;
        let s_p = p.pow(&h, &self.crt.dp);
        let s_q = q.pow(&h, &self.crt.dq);
        let t = mod_mul(&mod_sub(&s_p, &s_q, p), &self.crt.q_inv, p);
        let h_inv = self.params.n.inverse(&h).expect("H(ID) is a unit mod n");
        GqSecretKey {
            id: id.to_vec(),
            s_id: s_q.add_ref(&q.mul_ref(&t)),
            h_inv: Arc::new(OnceLock::from(h_inv)),
        }
    }

    /// The master key (exposed for tests of the `d·e ≡ 1` invariant).
    pub fn master(&self) -> &GqMasterKey {
        &self.master
    }
}

impl GqParams {
    /// Full-domain identity hash `H : {0,1}* → Z_n^*`.
    pub fn hash_id(&self, id: &[u8]) -> Ubig {
        hash_to_unit(ID_TAG, id, &self.n)
    }

    /// The `l = 160`-bit challenge `c = H(t, m)` used by Sign/Verify.
    pub fn challenge(&self, t: &Ubig, msg: &[u8]) -> Ubig {
        challenge_hash(&[&t.to_bytes_be(), msg])
    }

    /// Signs `msg` under `key` (paper's Sign).
    pub fn sign<R: Rng + ?Sized>(&self, rng: &mut R, key: &GqSecretKey, msg: &[u8]) -> GqSignature {
        let tau = random_unit(rng, &self.n);
        let t = self.n.pow(&tau, &self.e);
        let c = self.challenge(&t, msg);
        let s = self.respond(key, &tau, &c);
        GqSignature { s, c }
    }

    /// `H(ID)⁻¹ mod n`, computed afresh (a key carries its own; see
    /// [`GqSecretKey::h_inv`]).
    pub fn h_inv(&self, id: &[u8]) -> Ubig {
        self.n
            .inverse(&self.hash_id(id))
            .expect("H(ID) is a unit mod n")
    }

    /// Verifies `σ = (s, c)` on `msg` for identity `id` (paper's Verify):
    /// recomputes `t' = s^e · H(ID)^{−c}` and checks `c == H(t', msg)`.
    /// Inverts `H(ID)` on every call; a verifier holding the signer's
    /// inverse calls [`GqParams::verify_with_inverse`].
    pub fn verify(&self, id: &[u8], msg: &[u8], sig: &GqSignature) -> bool {
        self.verify_with_inverse(&self.h_inv(id), msg, sig)
    }

    /// [`GqParams::verify`] under the signer's `h_inv = H(ID)⁻¹ mod n`.
    pub fn verify_with_inverse(&self, h_inv: &Ubig, msg: &[u8], sig: &GqSignature) -> bool {
        if sig.s.is_zero() || sig.s >= *self.n {
            return false;
        }
        self.challenge(&self.recover_commitment(h_inv, &sig.s, &sig.c), msg) == sig.c
    }

    /// The commitment `t = s^e · H(ID)^{−c} mod n` that a response `s` to
    /// challenge `c` by the signer with `h_inv = H(ID)⁻¹` answers — one
    /// two-base exponentiation.
    pub fn recover_commitment(&self, h_inv: &Ubig, s: &Ubig, c: &Ubig) -> Ubig {
        self.n.pow2(s, &self.e, h_inv, c)
    }

    // ----- split API used by the GKA protocol -----

    /// Round-1 commitment: samples `τ` and returns `(τ, t = τ^e)`.
    pub fn commit<R: Rng + ?Sized>(&self, rng: &mut R) -> (Ubig, Ubig) {
        let tau = random_unit(rng, &self.n);
        let t = self.n.pow(&tau, &self.e);
        (tau, t)
    }

    /// The protocol's shared challenge `c = H(T, Z)` where `T = ∏ t_i mod n`
    /// and `bind` is the protocol binding (the paper's `Z`).
    pub fn shared_challenge(&self, t_agg: &Ubig, bind: &[u8]) -> Ubig {
        challenge_hash(&[&t_agg.to_bytes_be(), bind])
    }

    /// Round-2 response `s = τ·S_ID^c mod n` (also Sign's response), with
    /// `S_ID^c` kept in Montgomery form for the product.
    pub fn respond(&self, key: &GqSecretKey, tau: &Ubig, c: &Ubig) -> Ubig {
        let mut s = MulChain::pow(&key.s_id, c, &self.n);
        s.mul(tau);
        s.value()
    }

    /// Aggregates commitments: `T = ∏ t_i mod n`.
    pub fn aggregate_commitments(&self, ts: &[Ubig]) -> Ubig {
        self.n.product(ts)
    }

    /// The paper's batch verification (eq. (2)): checks
    /// `c == H((∏ s_i)^e · (∏ H(U_i))^{−c}, bind)`, given each signer's
    /// `H(U_i)⁻¹` in `h_invs`.
    ///
    /// Costs two modular exponentiations regardless of the number of
    /// signers — this is the row that makes the proposed scheme's Table 1
    /// column constant. Here they run as one two-base exponentiation, and
    /// `(∏ H(U_i))⁻¹` is the product of the signers' inverses.
    pub fn aggregate_verify(
        &self,
        h_invs: &[Ubig],
        responses: &[Ubig],
        c: &Ubig,
        bind: &[u8],
    ) -> bool {
        if h_invs.is_empty() || h_invs.len() != responses.len() {
            return false;
        }
        if responses.iter().any(|s| s.is_zero() || *s >= *self.n) {
            return false;
        }
        let s_prod = self.n.product(responses);
        let h_inv = self.n.product(h_invs);
        let t = self.n.pow2(&s_prod, &self.e, &h_inv, c);
        &self.shared_challenge(&t, bind) == c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_bigint::mod_pow;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    /// Toy-sized PKG shared across tests (128-bit factors, 41-bit e so the
    /// soundness margin still exceeds nothing — fine for functional tests).
    fn pkg() -> GqPkg {
        let mut rng = ChaChaRng::seed_from_u64(0x4751);
        GqPkg::setup_with_e_bits(&mut rng, 128, 41)
    }

    #[test]
    fn master_key_inverts_e() {
        let pkg = pkg();
        let phi = pkg
            .master()
            .p
            .checked_sub(&Ubig::one())
            .unwrap()
            .mul_ref(&pkg.master().q.checked_sub(&Ubig::one()).unwrap());
        assert_eq!(mod_mul(&pkg.params.e, &pkg.master().d, &phi), Ubig::one());
    }

    #[test]
    fn extraction_satisfies_gq_identity() {
        // S_ID^e == H(ID) mod n
        let pkg = pkg();
        let key = pkg.extract(b"alice");
        let lhs = mod_pow(&key.s_id, &pkg.params.e, &pkg.params.n);
        assert_eq!(lhs, pkg.params.hash_id(b"alice"));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"hello group");
        assert!(pkg.params.verify(b"alice", b"hello group", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"msg");
        assert!(!pkg.params.verify(b"alice", b"other msg", &sig));
    }

    #[test]
    fn verify_rejects_wrong_identity() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"msg");
        assert!(!pkg.params.verify(b"bob", b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let key = pkg.extract(b"alice");
        let mut sig = pkg.params.sign(&mut rng, &key, b"msg");
        sig.s = mod_mul(&sig.s, &Ubig::from_u64(2), &pkg.params.n);
        assert!(!pkg.params.verify(b"alice", b"msg", &sig));
    }

    #[test]
    fn verify_rejects_out_of_range_s() {
        let pkg = pkg();
        let sig = GqSignature {
            s: Ubig::clone(&pkg.params.n),
            c: Ubig::from_u64(1),
        };
        assert!(!pkg.params.verify(b"alice", b"msg", &sig));
        let sig0 = GqSignature {
            s: Ubig::zero(),
            c: Ubig::from_u64(1),
        };
        assert!(!pkg.params.verify(b"alice", b"msg", &sig0));
    }

    #[test]
    fn aggregate_verify_accepts_honest_group() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(5);
        let ids: Vec<Vec<u8>> = (0..8u32)
            .map(|i| format!("user-{i}").into_bytes())
            .collect();
        let keys: Vec<GqSecretKey> = ids.iter().map(|id| pkg.extract(id)).collect();
        let bind = b"protocol binding Z";

        // Round 1: commitments.
        let mut taus = Vec::new();
        let mut ts = Vec::new();
        for _ in &ids {
            let (tau, t) = pkg.params.commit(&mut rng);
            taus.push(tau);
            ts.push(t);
        }
        let t_agg = pkg.params.aggregate_commitments(&ts);
        let c = pkg.params.shared_challenge(&t_agg, bind);
        // Round 2: responses.
        let responses: Vec<Ubig> = keys
            .iter()
            .zip(&taus)
            .map(|(k, tau)| pkg.params.respond(k, tau, &c))
            .collect();
        let h_invs: Vec<Ubig> = keys.iter().map(|k| k.h_inv(&pkg.params).clone()).collect();
        assert!(pkg.params.aggregate_verify(&h_invs, &responses, &c, bind));
    }

    #[test]
    fn aggregate_verify_rejects_one_bad_response() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(6);
        let ids: Vec<Vec<u8>> = (0..4u32)
            .map(|i| format!("user-{i}").into_bytes())
            .collect();
        let keys: Vec<GqSecretKey> = ids.iter().map(|id| pkg.extract(id)).collect();
        let bind = b"Z";
        let mut taus = Vec::new();
        let mut ts = Vec::new();
        for _ in &ids {
            let (tau, t) = pkg.params.commit(&mut rng);
            taus.push(tau);
            ts.push(t);
        }
        let c = pkg
            .params
            .shared_challenge(&pkg.params.aggregate_commitments(&ts), bind);
        let mut responses: Vec<Ubig> = keys
            .iter()
            .zip(&taus)
            .map(|(k, tau)| pkg.params.respond(k, tau, &c))
            .collect();
        // Corrupt user 2's response.
        responses[2] = mod_mul(&responses[2], &Ubig::from_u64(3), &pkg.params.n);
        let h_invs: Vec<Ubig> = keys.iter().map(|k| k.h_inv(&pkg.params).clone()).collect();
        assert!(!pkg.params.aggregate_verify(&h_invs, &responses, &c, bind));
    }

    #[test]
    fn aggregate_verify_rejects_wrong_binding() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(7);
        let ids = [b"a".as_slice(), b"b".as_slice()];
        let keys: Vec<GqSecretKey> = ids.iter().map(|id| pkg.extract(id)).collect();
        let mut taus = Vec::new();
        let mut ts = Vec::new();
        for _ in ids {
            let (tau, t) = pkg.params.commit(&mut rng);
            taus.push(tau);
            ts.push(t);
        }
        let c = pkg
            .params
            .shared_challenge(&pkg.params.aggregate_commitments(&ts), b"bind-1");
        let responses: Vec<Ubig> = keys
            .iter()
            .zip(&taus)
            .map(|(k, tau)| pkg.params.respond(k, tau, &c))
            .collect();
        let h_invs: Vec<Ubig> = keys.iter().map(|k| k.h_inv(&pkg.params).clone()).collect();
        assert!(!pkg
            .params
            .aggregate_verify(&h_invs, &responses, &c, b"bind-2"));
    }

    #[test]
    fn aggregate_verify_rejects_shape_mismatch() {
        let pkg = pkg();
        assert!(!pkg.params.aggregate_verify(&[], &[], &Ubig::one(), b""));
        let h_inv = pkg.params.h_inv(b"a");
        assert!(!pkg
            .params
            .aggregate_verify(&[h_inv], &[], &Ubig::one(), b""));
    }

    /// Security note made concrete (see DESIGN.md §security-notes): the
    /// paper's Leave/Partition protocols let a member answer a *fresh*
    /// challenge with its *old* commitment τ. Two responses under one τ
    /// fully leak the ID key: with `s = τ·S^c`, `s̄ = τ·S^c̄`,
    /// `s/s̄ = S^{c−c̄}`; since `e` is prime and `0 < c−c̄ < e`, extended
    /// Euclid gives `a(c−c̄) = 1 + t·e`, so
    /// `S = (s/s̄)^a · H(ID)^{−t}` — everything on the right is public.
    #[test]
    fn tau_reuse_recovers_secret_key() {
        let pkg = pkg();
        let params = &pkg.params;
        let key = pkg.extract(b"victim");
        let mut rng = ChaChaRng::seed_from_u64(9);
        // One commitment, two different challenges (exactly what a Leave
        // following the initial GKA produces for an even-indexed member).
        let (tau, _t) = params.commit(&mut rng);
        let c1 = params.shared_challenge(&Ubig::from_u64(111), b"session-1");
        let c2 = params.shared_challenge(&Ubig::from_u64(222), b"session-2");
        assert_ne!(c1, c2);
        let s1 = params.respond(&key, &tau, &c1);
        let s2 = params.respond(&key, &tau, &c2);

        // Attacker's computation, using only public values and (s1, s2).
        let (hi, lo) = if c1 > c2 { (&c1, &c2) } else { (&c2, &c1) };
        let (s_hi, s_lo) = if c1 > c2 { (&s1, &s2) } else { (&s2, &s1) };
        let dc = hi.checked_sub(lo).unwrap();
        // s_hi / s_lo = S^dc mod n
        let s_dc = mod_mul(
            s_hi,
            &egka_bigint::mod_inverse(s_lo, &params.n).unwrap(),
            &params.n,
        );
        // a·dc ≡ 1 (mod e)  ⇒  a·dc = 1 + t·e
        let a = egka_bigint::mod_inverse(&dc, &params.e).expect("e prime, 0 < dc < e");
        let t = a
            .mul_ref(&dc)
            .checked_sub(&Ubig::one())
            .unwrap()
            .div_rem(&params.e)
            .0;
        // S = (S^dc)^a · H^{−t}
        let h = params.hash_id(b"victim");
        let h_inv = egka_bigint::mod_inverse(&h, &params.n).unwrap();
        let recovered = mod_mul(
            &mod_pow(&s_dc, &a, &params.n),
            &mod_pow(&h_inv, &t, &params.n),
            &params.n,
        );
        assert_eq!(recovered, key.s_id, "full ID-key recovery from τ reuse");
    }

    #[test]
    fn cached_inverse_equals_fresh_inversion() {
        let pkg = pkg();
        let p = &pkg.params;
        for id in [b"alice".as_slice(), b"bob", b""] {
            let fresh = mod_inverse(&p.hash_id(id), &p.n).unwrap();
            assert_eq!(p.h_inv(id), fresh);
            let extracted = pkg.extract(id);
            assert_eq!(extracted.h_inv.get(), Some(&fresh), "set by extract");
            // A rebuilt key fills its inverse on first use, for every clone.
            let rebuilt = GqSecretKey::new(id.to_vec(), extracted.s_id.clone());
            let clone = rebuilt.clone();
            assert!(clone.h_inv.get().is_none());
            assert_eq!(rebuilt.h_inv(p), &fresh, "decoded");
            assert_eq!(clone.h_inv.get(), Some(&fresh), "shared by clones");
            assert_eq!(rebuilt, extracted);
        }
    }

    #[test]
    fn moduli_sharing_an_id_do_not_collide() {
        let a = pkg();
        let b = GqPkg::setup_with_e_bits(&mut ChaChaRng::seed_from_u64(0x4752), 128, 41);
        assert_ne!(a.params.n, b.params.n);
        let key = a.extract(b"shared");
        let carried = key.h_inv(&a.params).clone();
        for p in [&a.params, &b.params, &a.params] {
            let fresh = mod_inverse(&p.hash_id(b"shared"), &p.n).unwrap();
            assert_eq!(p.h_inv(b"shared"), fresh);
            assert_eq!(carried == fresh, p == &a.params, "carried from a");
            let sig = p.sign(&mut ChaChaRng::seed_from_u64(10), &key, b"m");
            assert_eq!(p.verify(b"shared", b"m", &sig), p == &a.params);
            assert_eq!(p.verify_with_inverse(&fresh, b"m", &sig), p == &a.params);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "another PKG's modulus")]
    fn carried_inverse_is_checked_against_the_params_it_is_read_under() {
        let a = pkg();
        let b = GqPkg::setup_with_e_bits(&mut ChaChaRng::seed_from_u64(0x4752), 128, 41);
        a.extract(b"shared").h_inv(&b.params);
    }

    #[test]
    fn warm_cache_still_rejects_a_corrupted_response() {
        let pkg = pkg();
        let p = &pkg.params;
        let mut rng = ChaChaRng::seed_from_u64(11);
        let ids = [b"w0".as_slice(), b"w1", b"w2"];
        // Keys as decoded state rebuilds them: inverses filled on first use.
        let keys: Vec<GqSecretKey> = ids
            .iter()
            .map(|id| GqSecretKey::new(id.to_vec(), pkg.extract(id).s_id))
            .collect();
        let (taus, ts): (Vec<Ubig>, Vec<Ubig>) = ids.iter().map(|_| p.commit(&mut rng)).unzip();
        let c = p.shared_challenge(&p.aggregate_commitments(&ts), b"Z");
        let mut responses: Vec<Ubig> = keys
            .iter()
            .zip(&taus)
            .map(|(key, tau)| p.respond(key, tau, &c))
            .collect();
        let h_invs: Vec<Ubig> = keys.iter().map(|k| k.h_inv(p).clone()).collect();
        assert!(
            p.aggregate_verify(&h_invs, &responses, &c, b"Z"),
            "fills the inverses"
        );
        responses[1] = mod_mul(&responses[1], &Ubig::from_u64(5), &p.n);
        let h_invs: Vec<Ubig> = keys.iter().map(|k| k.h_inv(p).clone()).collect();
        assert!(!p.aggregate_verify(&h_invs, &responses, &c, b"Z"));
        // Another signer's inverse in a slot rejects an honest group too.
        responses[1] = p.respond(&keys[1], &taus[1], &c);
        assert!(p.aggregate_verify(&h_invs, &responses, &c, b"Z"));
        let swapped = [h_invs[0].clone(), h_invs[0].clone(), h_invs[2].clone()];
        assert!(!p.aggregate_verify(&swapped, &responses, &c, b"Z"));
    }

    #[test]
    fn recovered_commitment_matches_the_two_power_form() {
        let pkg = pkg();
        let p = &pkg.params;
        let (tau, t) = p.commit(&mut ChaChaRng::seed_from_u64(12));
        let c = p.shared_challenge(&t, b"bind");
        let key = pkg.extract(b"carol");
        let s = p.respond(&key, &tau, &c);
        let h_inv = mod_inverse(&p.hash_id(b"carol"), &p.n).unwrap();
        let two_powers = mod_mul(&mod_pow(&s, &p.e, &p.n), &mod_pow(&h_inv, &c, &p.n), &p.n);
        assert_eq!(p.recover_commitment(key.h_inv(p), &s, &c), two_powers);
        assert_eq!(p.recover_commitment(&h_inv, &s, &c), t);
    }

    #[test]
    fn single_signature_is_special_case_of_aggregate() {
        // A 1-party "aggregate" with the shared challenge equals the plain
        // scheme with bind as message.
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(8);
        let key = pkg.extract(b"solo");
        let (tau, t) = pkg.params.commit(&mut rng);
        let c = pkg.params.shared_challenge(&t, b"bind");
        let s = pkg.params.respond(&key, &tau, &c);
        let h_inv = key.h_inv(&pkg.params).clone();
        assert!(pkg.params.aggregate_verify(&[h_inv], &[s], &c, b"bind"));
    }
}
