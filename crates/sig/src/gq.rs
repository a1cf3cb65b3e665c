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
//! `s^e · (H(ID)⁻¹)^c` ([`egka_bigint::mod_pow2`]), over identity inverses
//! `H(ID)⁻¹ mod n` held in a bounded cache: members' ids recur on every
//! rekey, and one inversion mod `n` costs about as much as the
//! exponentiation itself. The cache holds public values only.
//!
//! Security parameters follow the paper: 512-bit prime factors (1024-bit
//! `n`), 160-bit challenges, and a prime `e` one bit longer than the
//! challenge (classic GQ requires `e > 2^l` for soundness).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use egka_bigint::{
    gcd, gen_prime, mod_inverse, mod_mul, mod_pow, mod_pow2, mod_product, mod_sub, random_unit,
    MulChain, Ubig,
};
use egka_hash::{challenge_hash, hash_to_unit};
use rand::Rng;

/// Domain-separation tag for identity hashing.
const ID_TAG: &[u8] = b"egka.gq.id.v1";

/// Bound on identities whose inverse is cached per modulus (flush-on-full).
const ID_INVERSE_CAP: usize = 1024;

/// Bound on moduli with an identity cache (flush-on-full).
const MODULI_CAP: usize = 8;

/// `H(ID)⁻¹ mod n`, first by modulus limbs, then by identity.
type IdInverses = HashMap<Vec<u64>, HashMap<Vec<u8>, Ubig>>;

fn id_inverse_cache() -> &'static Mutex<IdInverses> {
    static CACHE: OnceLock<Mutex<IdInverses>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Public parameters of a GQ instance: `(n, e)` plus the hash conventions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqParams {
    /// RSA modulus `n = p'·q'`.
    pub n: Ubig,
    /// Public (verification) exponent, a prime with `e > 2^l`.
    pub e: Ubig,
}

/// The PKG's master key.
#[derive(Clone, Debug)]
pub struct GqMasterKey {
    /// First prime factor.
    pub p: Ubig,
    /// Second prime factor.
    pub q: Ubig,
    /// Extraction exponent `d = e⁻¹ mod Φ(n)`.
    pub d: Ubig,
}

/// A user's extracted ID key `S_ID = H(ID)^d mod n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqSecretKey {
    /// The identity the key was extracted for.
    pub id: Vec<u8>,
    /// `H(ID)^d mod n`.
    pub s_id: Ubig,
}

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
        let crt = Crt {
            dp: d.rem_ref(&p.checked_sub(&one).expect("p' > 1")),
            dq: d.rem_ref(&q.checked_sub(&one).expect("q' > 1")),
            q_inv: mod_inverse(&q, &p).expect("distinct primes"),
        };
        GqPkg {
            params: GqParams { n, e },
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
    /// result.
    pub fn extract(&self, id: &[u8]) -> GqSecretKey {
        let h = self.params.hash_id(id);
        let GqMasterKey { p, q, .. } = &self.master;
        let s_p = mod_pow(&h, &self.crt.dp, p);
        let s_q = mod_pow(&h, &self.crt.dq, q);
        let t = mod_mul(&mod_sub(&s_p, &s_q, p), &self.crt.q_inv, p);
        GqSecretKey {
            id: id.to_vec(),
            s_id: s_q.add_ref(&q.mul_ref(&t)),
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
        let t = mod_pow(&tau, &self.e, &self.n);
        let c = self.challenge(&t, msg);
        let s = self.respond(key, &tau, &c);
        GqSignature { s, c }
    }

    /// Verifies `σ = (s, c)` on `msg` for identity `id` (paper's Verify):
    /// recomputes `t' = s^e · H(ID)^{−c}` and checks `c == H(t', msg)`.
    pub fn verify(&self, id: &[u8], msg: &[u8], sig: &GqSignature) -> bool {
        if sig.s.is_zero() || sig.s >= self.n {
            return false;
        }
        match self.recover_commitment(id, &sig.s, &sig.c) {
            Some(t) => self.challenge(&t, msg) == sig.c,
            None => false,
        }
    }

    /// The commitment `t = s^e · H(ID)^{−c} mod n` that a response `s` to
    /// challenge `c` by identity `id` answers — one two-base exponentiation
    /// over the cached `H(ID)⁻¹`. Returns `None` if `H(ID)` is not
    /// invertible (cannot happen for honest hashes).
    pub fn recover_commitment(&self, id: &[u8], s: &Ubig, c: &Ubig) -> Option<Ubig> {
        let h_inv = self.id_inverse(id)?;
        Some(mod_pow2(s, &self.e, &h_inv, c, &self.n))
    }

    /// `H(ID)⁻¹ mod n`, from a bounded cache shared by every instance with
    /// this modulus.
    fn id_inverse(&self, id: &[u8]) -> Option<Ubig> {
        let cached = id_inverse_cache()
            .lock()
            .unwrap()
            .get(self.n.limbs())
            .and_then(|ids| ids.get(id).cloned());
        if cached.is_some() {
            return cached;
        }
        let h_inv = mod_inverse(&self.hash_id(id), &self.n)?;
        let mut cache = id_inverse_cache().lock().unwrap();
        if cache.len() >= MODULI_CAP && !cache.contains_key(self.n.limbs()) {
            cache.clear();
        }
        let ids = cache.entry(self.n.limbs().to_vec()).or_default();
        if ids.len() >= ID_INVERSE_CAP {
            ids.clear();
        }
        ids.insert(id.to_vec(), h_inv.clone());
        Some(h_inv)
    }

    // ----- split API used by the GKA protocol -----

    /// Round-1 commitment: samples `τ` and returns `(τ, t = τ^e)`.
    pub fn commit<R: Rng + ?Sized>(&self, rng: &mut R) -> (Ubig, Ubig) {
        let tau = random_unit(rng, &self.n);
        let t = mod_pow(&tau, &self.e, &self.n);
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
        mod_product(ts, &self.n)
    }

    /// The paper's batch verification (eq. (2)): checks
    /// `c == H((∏ s_i)^e · (∏ H(U_i))^{−c}, bind)`.
    ///
    /// Costs two modular exponentiations regardless of the number of
    /// signers — this is the row that makes the proposed scheme's Table 1
    /// column constant. Here they run as one two-base exponentiation, and
    /// the identity product's inverse is a product of cached inverses.
    pub fn aggregate_verify(
        &self,
        ids: &[&[u8]],
        responses: &[Ubig],
        c: &Ubig,
        bind: &[u8],
    ) -> bool {
        if ids.is_empty() || ids.len() != responses.len() {
            return false;
        }
        if responses.iter().any(|s| s.is_zero() || s >= &self.n) {
            return false;
        }
        let s_prod = mod_product(responses, &self.n);
        // (∏ h_i)⁻¹ = ∏ h_i⁻¹, so the cached inverses give the same t.
        let mut h_inv = MulChain::new(&self.n);
        for id in ids {
            match self.id_inverse(id) {
                Some(inv) => h_inv.mul(&inv),
                None => return false,
            }
        }
        let t = mod_pow2(&s_prod, &self.e, &h_inv.value(), c, &self.n);
        &self.shared_challenge(&t, bind) == c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            s: pkg.params.n.clone(),
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
        let id_refs: Vec<&[u8]> = ids.iter().map(|v| v.as_slice()).collect();
        assert!(pkg.params.aggregate_verify(&id_refs, &responses, &c, bind));
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
        let id_refs: Vec<&[u8]> = ids.iter().map(|v| v.as_slice()).collect();
        assert!(!pkg.params.aggregate_verify(&id_refs, &responses, &c, bind));
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
        assert!(!pkg.params.aggregate_verify(&ids, &responses, &c, b"bind-2"));
    }

    #[test]
    fn aggregate_verify_rejects_shape_mismatch() {
        let pkg = pkg();
        assert!(!pkg.params.aggregate_verify(&[], &[], &Ubig::one(), b""));
        assert!(!pkg
            .params
            .aggregate_verify(&[b"a".as_slice()], &[], &Ubig::one(), b""));
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
            assert_eq!(p.id_inverse(id).unwrap(), fresh, "miss");
            assert_eq!(p.id_inverse(id).unwrap(), fresh, "hit");
        }
    }

    #[test]
    fn cached_inverses_stay_correct_across_a_flush() {
        let pkg = pkg();
        let p = &pkg.params;
        let ids: Vec<Vec<u8>> = (0..ID_INVERSE_CAP + 40)
            .map(|i| format!("flush-{i}").into_bytes())
            .collect();
        for id in &ids {
            p.id_inverse(id).unwrap();
        }
        let cached = id_inverse_cache().lock().unwrap()[p.n.limbs()].len();
        assert!(cached <= ID_INVERSE_CAP, "{cached} entries");
        for id in ids.iter().step_by(97).chain(ids.last()) {
            let fresh = mod_inverse(&p.hash_id(id), &p.n).unwrap();
            assert_eq!(p.id_inverse(id).unwrap(), fresh);
        }
    }

    #[test]
    fn moduli_sharing_an_id_do_not_collide() {
        let a = pkg();
        let b = GqPkg::setup_with_e_bits(&mut ChaChaRng::seed_from_u64(0x4752), 128, 41);
        assert_ne!(a.params.n, b.params.n);
        for p in [&a.params, &b.params, &a.params] {
            let fresh = mod_inverse(&p.hash_id(b"shared"), &p.n).unwrap();
            assert_eq!(p.id_inverse(b"shared").unwrap(), fresh);
            let sig = p.sign(
                &mut ChaChaRng::seed_from_u64(10),
                &a.extract(b"shared"),
                b"m",
            );
            assert_eq!(p.verify(b"shared", b"m", &sig), p == &a.params);
        }
    }

    #[test]
    fn warm_cache_still_rejects_a_corrupted_response() {
        let pkg = pkg();
        let p = &pkg.params;
        let mut rng = ChaChaRng::seed_from_u64(11);
        let ids = [b"w0".as_slice(), b"w1", b"w2"];
        let (taus, ts): (Vec<Ubig>, Vec<Ubig>) = ids.iter().map(|_| p.commit(&mut rng)).unzip();
        let c = p.shared_challenge(&p.aggregate_commitments(&ts), b"Z");
        let mut responses: Vec<Ubig> = ids
            .iter()
            .zip(&taus)
            .map(|(id, tau)| p.respond(&pkg.extract(id), tau, &c))
            .collect();
        assert!(
            p.aggregate_verify(&ids, &responses, &c, b"Z"),
            "warms the cache"
        );
        responses[1] = mod_mul(&responses[1], &Ubig::from_u64(5), &p.n);
        assert!(!p.aggregate_verify(&ids, &responses, &c, b"Z"));
    }

    #[test]
    fn recovered_commitment_matches_the_two_power_form() {
        let pkg = pkg();
        let p = &pkg.params;
        let (tau, t) = p.commit(&mut ChaChaRng::seed_from_u64(12));
        let c = p.shared_challenge(&t, b"bind");
        let s = p.respond(&pkg.extract(b"carol"), &tau, &c);
        let h_inv = mod_inverse(&p.hash_id(b"carol"), &p.n).unwrap();
        let two_powers = mod_mul(&mod_pow(&s, &p.e, &p.n), &mod_pow(&h_inv, &c, &p.n), &p.n);
        assert_eq!(p.recover_commitment(b"carol", &s, &c), Some(two_powers));
        assert_eq!(p.recover_commitment(b"carol", &s, &c), Some(t));
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
        assert!(pkg
            .params
            .aggregate_verify(&[b"solo".as_slice()], &[s], &c, b"bind"));
    }
}
