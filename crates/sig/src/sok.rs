//! The Sakai–Ohgishi–Kasahara (SOK) ID-based signature — the paper's
//! pairing-based baseline ("BD with SOK", Tables 1–3).
//!
//! ```text
//! Setup:   master s ∈ Z_q*, P_pub = s·G
//! Extract: Q_ID = MapToPoint(ID), S_ID = s·Q_ID
//! Sign:    r ∈R Z_q*, Q_M = MapToPoint(M),
//!          S1 = S_ID + r·Q_M,  S2 = r·G          → σ = (S1, S2)
//! Verify:  ê(S1, G) == ê(Q_ID, P_pub) · ê(Q_M, S2)
//! ```
//!
//! Correctness: `ê(S1, G) = ê(s·Q_ID + r·Q_M, G)
//! = ê(Q_ID, G)^s · ê(Q_M, G)^r = ê(Q_ID, P_pub) · ê(Q_M, S2)`.
//!
//! The cost profile is exactly Table 2's SOK rows: signing is 2 scalar
//! multiplications (17.6 mJ = 2 × 8.8), verifying is 3 Tate pairings
//! (133.2 ms P3-450 = 3 × 44.4), and every verification of a *new* identity
//! or message needs a MapToPoint. Signatures are two compressed points
//! ("194-bit SOK" sizing in Table 3, note 2).

use std::sync::{Arc, OnceLock};

use egka_bigint::Ubig;
use egka_ec::{MillerPrecomp, PairingGroup, Point};
use rand::Rng;

/// Public parameters of a SOK instance.
#[derive(Clone, Debug)]
pub struct SokParams {
    group: PairingGroup,
    /// Master public key `P_pub = s·G`.
    pub p_pub: Point,
    /// Lazily built Miller precomputation for `G` (clone-shared): the
    /// verification pairings `ê(S1, G)` and `ê(Q_ID, P_pub)` both fix one
    /// argument, so their line coefficients are cached across signatures.
    gen_pre: Arc<OnceLock<MillerPrecomp>>,
    /// Same for `P_pub`.
    pub_pre: Arc<OnceLock<MillerPrecomp>>,
}

/// The PKG for SOK key extraction.
#[derive(Clone, Debug)]
pub struct SokPkg {
    /// Public parameters.
    pub params: SokParams,
    master: Ubig,
}

/// A user's extracted ID key `S_ID = s·Q_ID`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SokSecretKey {
    /// The identity the key was extracted for.
    pub id: Vec<u8>,
    /// `s·MapToPoint(ID)`.
    pub s_id: Point,
}

/// A SOK signature `σ = (S1, S2)` — two curve points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SokSignature {
    /// `S_ID + r·Q_M`.
    pub s1: Point,
    /// `r·G`.
    pub s2: Point,
}

impl SokPkg {
    /// Runs Setup over `group` with a fresh master key.
    pub fn setup<R: Rng + ?Sized>(rng: &mut R, group: PairingGroup) -> Self {
        let master = group.curve().random_scalar(rng);
        let gen = group.curve().generator().clone();
        let p_pub = group.curve().mul(&master, &gen);
        SokPkg {
            params: SokParams {
                group,
                p_pub,
                gen_pre: Arc::new(OnceLock::new()),
                pub_pre: Arc::new(OnceLock::new()),
            },
            master,
        }
    }

    /// Extracts `S_ID = s·MapToPoint(ID)`.
    pub fn extract(&self, id: &[u8]) -> SokSecretKey {
        let q_id = self.params.group.map_to_point(id);
        SokSecretKey {
            id: id.to_vec(),
            s_id: self.params.group.curve().mul(&self.master, &q_id),
        }
    }
}

impl SokParams {
    /// The pairing group.
    pub fn group(&self) -> &PairingGroup {
        &self.group
    }

    /// Signs `msg` under `key`: 2 scalar multiplications + 1 MapToPoint.
    pub fn sign<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        key: &SokSecretKey,
        msg: &[u8],
    ) -> SokSignature {
        let curve = self.group.curve();
        let r = curve.random_scalar(rng);
        let q_m = self.group.map_to_point(msg);
        let s1 = curve.add(&key.s_id, &curve.mul(&r, &q_m));
        let s2 = curve.mul(&r, &curve.generator().clone());
        SokSignature { s1, s2 }
    }

    /// Verifies `σ` on `msg` for `id`: 3 pairings + 2 MapToPoint.
    pub fn verify(&self, id: &[u8], msg: &[u8], sig: &SokSignature) -> bool {
        let curve = self.group.curve();
        if !curve.is_on_curve(&sig.s1) || !curve.is_on_curve(&sig.s2) {
            return false;
        }
        // Subgroup checks: both components must have order dividing q
        // (mul_raw — a reducing multiply would make this check vacuous).
        if !curve.mul_raw(curve.order(), &sig.s1).is_infinity()
            || !curve.mul_raw(curve.order(), &sig.s2).is_infinity()
        {
            return false;
        }
        let q_id = self.group.map_to_point(id);
        let q_m = self.group.map_to_point(msg);
        // The modified pairing is symmetric, so the two fixed-argument
        // pairings run against cached Miller-line coefficients:
        // ê(S1, G) = ê(G, S1) and ê(Q_ID, P_pub) = ê(P_pub, Q_ID).
        let gen_pre = self
            .gen_pre
            .get_or_init(|| self.group.precompute(curve.generator()));
        let pub_pre = self
            .pub_pre
            .get_or_init(|| self.group.precompute(&self.p_pub));
        let lhs = self.group.pairing_fixed(gen_pre, &sig.s1);
        let rhs = self.group.fp2().mul(
            &self.group.pairing_fixed(pub_pre, &q_id),
            &self.group.pairing(&q_m, &sig.s2),
        );
        lhs == rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    fn pkg() -> SokPkg {
        let mut rng = ChaChaRng::seed_from_u64(0x534f4b);
        let group = egka_ec::gen_pairing_group(&mut rng, 96, 64);
        SokPkg::setup(&mut rng, group)
    }

    #[test]
    fn extraction_is_master_multiple() {
        let pkg = pkg();
        let key = pkg.extract(b"alice");
        // ê(S_ID, G) == ê(Q_ID, P_pub)
        let g = pkg.params.group();
        let gen = g.curve().generator().clone();
        let q_id = g.map_to_point(b"alice");
        assert_eq!(
            g.pairing(&key.s_id, &gen),
            g.pairing(&q_id, &pkg.params.p_pub)
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"round-2 material");
        assert!(pkg.params.verify(b"alice", b"round-2 material", &sig));
    }

    #[test]
    fn rejects_wrong_message() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"m1");
        assert!(!pkg.params.verify(b"alice", b"m2", &sig));
    }

    #[test]
    fn rejects_wrong_identity() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"m");
        assert!(!pkg.params.verify(b"bob", b"m", &sig));
    }

    #[test]
    fn rejects_component_swap() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"m");
        let swapped = SokSignature {
            s1: sig.s2.clone(),
            s2: sig.s1.clone(),
        };
        assert!(!pkg.params.verify(b"alice", b"m", &swapped));
    }

    #[test]
    fn rejects_off_curve_points() {
        let pkg = pkg();
        let bad = SokSignature {
            s1: Point::affine(Ubig::from_u64(1), Ubig::from_u64(2)),
            s2: Point::Infinity,
        };
        assert!(!pkg.params.verify(b"alice", b"m", &bad));
    }

    #[test]
    fn rejects_points_outside_the_subgroup() {
        // (0, 0) is the 2-torsion point of y² = x³ + x: on the curve but
        // outside the order-q subgroup. The pairing's final exponentiation
        // kills it in ê(Q_M, S2), so only the subgroup check stops
        // S2 + (0, 0).
        let pkg = pkg();
        let curve = pkg.params.group().curve();
        let torsion = Point::affine(Ubig::zero(), Ubig::zero());
        assert!(curve.is_on_curve(&torsion));
        let mut rng = ChaChaRng::seed_from_u64(7);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"m");
        assert!(pkg.params.verify(b"alice", b"m", &sig));
        let s1_moved = SokSignature {
            s1: curve.add(&sig.s1, &torsion),
            s2: sig.s2.clone(),
        };
        let s2_moved = SokSignature {
            s1: sig.s1.clone(),
            s2: curve.add(&sig.s2, &torsion),
        };
        for bad in [s1_moved, s2_moved] {
            assert!(curve.is_on_curve(&bad.s1) && curve.is_on_curve(&bad.s2));
            assert!(!pkg.params.verify(b"alice", b"m", &bad));
        }
    }

    #[test]
    fn signatures_are_randomized() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(5);
        let key = pkg.extract(b"alice");
        let s1 = pkg.params.sign(&mut rng, &key, b"m");
        let s2 = pkg.params.sign(&mut rng, &key, b"m");
        assert_ne!(s1, s2);
        assert!(pkg.params.verify(b"alice", b"m", &s1));
        assert!(pkg.params.verify(b"alice", b"m", &s2));
    }

    #[test]
    fn keys_do_not_cross_verify() {
        // A signature by alice's key claimed as bob must fail even though
        // both keys come from the same master.
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(6);
        let alice = pkg.extract(b"alice");
        let bob = pkg.extract(b"bob");
        assert_ne!(alice.s_id, bob.s_id);
        let sig = pkg.params.sign(&mut rng, &alice, b"m");
        assert!(!pkg.params.verify(b"bob", b"m", &sig));
    }
}
