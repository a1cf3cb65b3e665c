//! Property tests on the signature schemes: completeness (honest
//! signatures verify) and soundness-in-practice (any tampering with the
//! message, identity or signature components is rejected).

use egka_bigint::Ubig;
use egka_hash::ChaChaRng;
use egka_sig::{Dsa, DsaSignature, Ecdsa, EcdsaSignature, GqPkg, GqSignature};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

fn gq() -> &'static GqPkg {
    static PKG: OnceLock<GqPkg> = OnceLock::new();
    PKG.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0x70677131);
        GqPkg::setup_with_e_bits(&mut rng, 128, 41)
    })
}

fn dsa() -> &'static Dsa {
    static D: OnceLock<Dsa> = OnceLock::new();
    D.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0x64736131);
        Dsa::new(egka_bigint::gen_schnorr_group(&mut rng, 192, 64))
    })
}

fn ecdsa() -> &'static Ecdsa {
    static E: OnceLock<Ecdsa> = OnceLock::new();
    E.get_or_init(|| Ecdsa::new(egka_ec::secp160r1()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gq_complete_and_tamper_evident(
        msg in proptest::collection::vec(any::<u8>(), 0..96),
        tweak in 1u64..u64::MAX,
        seed in any::<u64>(),
    ) {
        let pkg = gq();
        let key = pkg.extract(b"prop-user");
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let sig = pkg.params.sign(&mut rng, &key, &msg);
        prop_assert!(pkg.params.verify(b"prop-user", &msg, &sig));
        // Component tampering.
        let bad_s = GqSignature {
            s: egka_bigint::mod_mul(&sig.s, &Ubig::from_u64(tweak | 2), &pkg.params.n),
            c: sig.c.clone(),
        };
        prop_assert!(!pkg.params.verify(b"prop-user", &msg, &bad_s));
        let bad_c = GqSignature {
            s: sig.s.clone(),
            c: sig.c.add_ref(&Ubig::one()),
        };
        prop_assert!(!pkg.params.verify(b"prop-user", &msg, &bad_c));
    }

    #[test]
    fn gq_aggregate_sound_under_random_corruption(
        n in 2usize..6,
        victim in any::<usize>(),
        factor in 2u64..u64::MAX,
        seed in any::<u64>(),
    ) {
        let pkg = gq();
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let ids: Vec<Vec<u8>> = (0..n).map(|i| format!("agg-{i}").into_bytes()).collect();
        let keys: Vec<_> = ids.iter().map(|id| pkg.extract(id)).collect();
        let mut taus = Vec::new();
        let mut ts = Vec::new();
        for _ in 0..n {
            let (tau, t) = pkg.params.commit(&mut rng);
            taus.push(tau);
            ts.push(t);
        }
        let c = pkg.params.shared_challenge(&pkg.params.aggregate_commitments(&ts), b"bind");
        let mut responses: Vec<Ubig> = keys
            .iter()
            .zip(&taus)
            .map(|(k, tau)| pkg.params.respond(k, tau, &c))
            .collect();
        let h_invs: Vec<Ubig> = keys.iter().map(|k| k.h_inv(&pkg.params).clone()).collect();
        prop_assert!(pkg.params.aggregate_verify(&h_invs, &responses, &c, b"bind"));
        // Corrupt one response by a random factor; must be detected.
        let v = victim % n;
        responses[v] = egka_bigint::mod_mul(&responses[v], &Ubig::from_u64(factor), &pkg.params.n);
        prop_assert!(!pkg.params.aggregate_verify(&h_invs, &responses, &c, b"bind"));
    }

    #[test]
    fn dsa_complete_and_tamper_evident(
        msg in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
    ) {
        let d = dsa();
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let kp = d.keygen(&mut rng);
        let sig = d.sign(&mut rng, &kp, &msg);
        prop_assert!(d.verify(&kp.y, &msg, &sig));
        let bad = DsaSignature {
            r: sig.r.clone(),
            s: egka_bigint::mod_add(&sig.s, &Ubig::one(), &d.group().q),
        };
        prop_assert!(!d.verify(&kp.y, &msg, &bad));
    }

    #[test]
    fn ecdsa_complete_and_tamper_evident(
        msg in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
    ) {
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let kp = e.keygen(&mut rng);
        let sig = e.sign(&mut rng, &kp, &msg);
        prop_assert!(e.verify(&kp.q, &msg, &sig));
        let bad = EcdsaSignature {
            r: egka_bigint::mod_add(&sig.r, &Ubig::one(), e.curve().order()),
            s: sig.s.clone(),
        };
        prop_assert!(!e.verify(&kp.q, &msg, &bad));
    }

    #[test]
    fn certificates_bind_subject_and_key(
        subject in proptest::collection::vec(any::<u8>(), 1..16),
        seed in any::<u64>(),
    ) {
        use egka_sig::{CertificateAuthority, SubjectKey, CertStore, CertCheck};
        let e = ecdsa();
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let ca = CertificateAuthority::new_ecdsa(&mut rng, b"prop-ca", e.clone());
        let user = e.keygen(&mut rng);
        let cert = ca.issue(&mut rng, &subject, SubjectKey::Ecdsa(user.q), seed);
        // Round-trips the wire encoding and verifies.
        let decoded = egka_sig::Certificate::decode(&cert.encode()).unwrap();
        prop_assert!(ca.public().verify(&decoded));
        let mut store = CertStore::new();
        prop_assert_eq!(store.check(&decoded, &subject, &ca.public()), CertCheck::NewlyVerified);
        prop_assert_eq!(store.check(&decoded, &subject, &ca.public()), CertCheck::AlreadyTrusted);
        // A different claimed subject is rejected.
        let mut other = subject.clone();
        other[0] ^= 0xff;
        prop_assert_eq!(store.check(&decoded, &other, &ca.public()), CertCheck::Rejected);
    }
}
