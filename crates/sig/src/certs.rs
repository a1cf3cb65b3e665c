//! Certificates, a certifying authority and a verified-certificate cache.
//!
//! The paper's certificate-based baselines (BD with ECDSA / DSA) require
//! each user to ship its certificate in Round 1 and to receive and verify
//! `n − 1` certificates (Table 1). Reconstructing Table 5 shows the paper
//! prices a certificate verification **only the first time a node sees that
//! certificate** (returning members of a Join already trust each other's
//! certificates; the newcomer pays for all of them). [`CertStore`]
//! implements exactly that cache; the protocol layer records a
//! `CertVerify` operation only when [`CertCheck::NewlyVerified`] is
//! returned.
//!
//! Certificate encodings here are honest (length-prefixed TBS bytes, real
//! signatures) but the paper's *printed* sizes — 86-byte ECDSA, 263-byte
//! DSA certificates — are used for energy accounting via
//! `egka_energy::radio::wire`.

use std::collections::HashMap;

use egka_bigint::Ubig;
use egka_ec::Point;
use egka_hash::{Digest, Sha256};
use rand::Rng;

use crate::dsa::{Dsa, DsaKeyPair, DsaSignature};
use crate::ecdsa::{Ecdsa, EcdsaKeyPair, EcdsaPreparedKey, EcdsaSignature};

/// Which certificate-based scheme a credential belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CertScheme {
    /// 1024-bit DSA (263-byte certificates).
    Dsa,
    /// 160-bit ECDSA (86-byte certificates).
    Ecdsa,
}

/// A subject's public key as carried inside a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubjectKey {
    /// DSA public key `y`.
    Dsa(Ubig),
    /// ECDSA public point (affine).
    Ecdsa(Point),
}

impl SubjectKey {
    /// The scheme this key belongs to.
    pub fn scheme(&self) -> CertScheme {
        match self {
            SubjectKey::Dsa(_) => CertScheme::Dsa,
            SubjectKey::Ecdsa(_) => CertScheme::Ecdsa,
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            SubjectKey::Dsa(y) => {
                let mut out = vec![0u8];
                out.extend_from_slice(&y.to_bytes_be());
                out
            }
            SubjectKey::Ecdsa(q) => {
                let mut out = vec![1u8];
                match q.xy() {
                    None => out.push(0),
                    Some((x, y)) => {
                        let xb = x.to_bytes_be();
                        let yb = y.to_bytes_be();
                        out.push(1);
                        out.extend_from_slice(&(xb.len() as u16).to_be_bytes());
                        out.extend_from_slice(&xb);
                        out.extend_from_slice(&(yb.len() as u16).to_be_bytes());
                        out.extend_from_slice(&yb);
                    }
                }
                out
            }
        }
    }
}

/// The CA's signature over a certificate body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaSignature {
    /// DSA-signed certificate.
    Dsa(DsaSignature),
    /// ECDSA-signed certificate.
    Ecdsa(EcdsaSignature),
}

/// A minimal X.509-like certificate binding an identity to a public key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Serial number, chosen by the issuer's caller (a pure function of
    /// the subject, so independent issuers agree on the bytes).
    pub serial: u64,
    /// Issuer name.
    pub issuer: Vec<u8>,
    /// Subject identity (the paper's 32-bit `U_i`, as bytes).
    pub subject: Vec<u8>,
    /// Subject public key.
    pub key: SubjectKey,
    /// CA signature over the TBS bytes.
    pub signature: CaSignature,
}

impl Certificate {
    /// The to-be-signed encoding (everything except the signature).
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"egka.cert.v1");
        out.extend_from_slice(&self.serial.to_be_bytes());
        out.extend_from_slice(&(self.issuer.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.issuer);
        out.extend_from_slice(&(self.subject.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.subject);
        out.extend_from_slice(&self.key.encode());
        out
    }

    /// SHA-256 fingerprint over TBS bytes (cache key in [`CertStore`]).
    pub fn fingerprint(&self) -> [u8; 32] {
        let digest = Sha256::digest(&self.tbs_bytes());
        digest.try_into().expect("SHA-256 digests are 32 bytes")
    }

    /// The scheme of the *subject* key (which is also the CA scheme in this
    /// workspace: the DSA CA certifies DSA keys, the ECDSA CA ECDSA keys,
    /// mirroring the paper's two homogeneous baselines).
    pub fn scheme(&self) -> CertScheme {
        self.key.scheme()
    }

    /// Full wire encoding (TBS fields + signature), decodable by
    /// [`Certificate::decode`].
    pub fn encode(&self) -> Vec<u8> {
        fn put(out: &mut Vec<u8>, b: &[u8]) {
            out.extend_from_slice(&(b.len() as u16).to_be_bytes());
            out.extend_from_slice(b);
        }
        let mut out = Vec::new();
        out.extend_from_slice(&self.serial.to_be_bytes());
        put(&mut out, &self.issuer);
        put(&mut out, &self.subject);
        match &self.key {
            SubjectKey::Dsa(y) => {
                out.push(0);
                put(&mut out, &y.to_bytes_be());
            }
            SubjectKey::Ecdsa(q) => {
                out.push(1);
                match q.xy() {
                    None => out.push(0),
                    Some((x, y)) => {
                        out.push(1);
                        put(&mut out, &x.to_bytes_be());
                        put(&mut out, &y.to_bytes_be());
                    }
                }
            }
        }
        match &self.signature {
            CaSignature::Dsa(s) => {
                out.push(0);
                put(&mut out, &s.r.to_bytes_be());
                put(&mut out, &s.s.to_bytes_be());
            }
            CaSignature::Ecdsa(s) => {
                out.push(1);
                put(&mut out, &s.r.to_bytes_be());
                put(&mut out, &s.s.to_bytes_be());
            }
        }
        out
    }

    /// Inverse of [`Certificate::encode`]; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Certificate> {
        struct Cur<'a>(&'a [u8], usize);
        impl<'a> Cur<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                if self.1 + n > self.0.len() {
                    return None;
                }
                let s = &self.0[self.1..self.1 + n];
                self.1 += n;
                Some(s)
            }
            fn get(&mut self) -> Option<&'a [u8]> {
                let len = self.take(2)?;
                let len = u16::from_be_bytes([len[0], len[1]]) as usize;
                self.take(len)
            }
            fn byte(&mut self) -> Option<u8> {
                Some(self.take(1)?[0])
            }
        }
        let mut c = Cur(buf, 0);
        let serial = u64::from_be_bytes(c.take(8)?.try_into().ok()?);
        let issuer = c.get()?.to_vec();
        let subject = c.get()?.to_vec();
        let key = match c.byte()? {
            0 => SubjectKey::Dsa(Ubig::from_bytes_be(c.get()?)),
            1 => match c.byte()? {
                0 => SubjectKey::Ecdsa(Point::Infinity),
                1 => {
                    let x = Ubig::from_bytes_be(c.get()?);
                    let y = Ubig::from_bytes_be(c.get()?);
                    SubjectKey::Ecdsa(Point::affine(x, y))
                }
                _ => return None,
            },
            _ => return None,
        };
        let signature = match c.byte()? {
            0 => CaSignature::Dsa(DsaSignature {
                r: Ubig::from_bytes_be(c.get()?),
                s: Ubig::from_bytes_be(c.get()?),
            }),
            1 => CaSignature::Ecdsa(EcdsaSignature {
                r: Ubig::from_bytes_be(c.get()?),
                s: Ubig::from_bytes_be(c.get()?),
            }),
            _ => return None,
        };
        if c.1 != buf.len() {
            return None;
        }
        Some(Certificate {
            serial,
            issuer,
            subject,
            key,
            signature,
        })
    }
}

/// A certifying authority issuing certificates under one scheme.
pub struct CertificateAuthority {
    name: Vec<u8>,
    signer: CaSigner,
}

// Variant sizes differ by scheme; boxing would only obscure the hot path.
#[allow(clippy::large_enum_variant)]
enum CaSigner {
    Dsa { dsa: Dsa, key: DsaKeyPair },
    Ecdsa { ecdsa: Ecdsa, key: EcdsaKeyPair },
}

/// The public half of a CA: what relying parties need to verify certs.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // scheme state is intentionally inline
pub enum CaPublic {
    /// DSA verifier: scheme instance + CA public key.
    Dsa(Dsa, Ubig),
    /// ECDSA verifier: scheme instance + CA public point, prepared — its
    /// comb is built on the first verification and shared by every clone
    /// handed to a relying node.
    Ecdsa(Ecdsa, EcdsaPreparedKey),
}

impl CertificateAuthority {
    /// Creates a DSA-signing CA.
    pub fn new_dsa<R: Rng + ?Sized>(rng: &mut R, name: &[u8], dsa: Dsa) -> Self {
        let key = dsa.keygen(rng);
        CertificateAuthority {
            name: name.to_vec(),
            signer: CaSigner::Dsa { dsa, key },
        }
    }

    /// Creates an ECDSA-signing CA.
    pub fn new_ecdsa<R: Rng + ?Sized>(rng: &mut R, name: &[u8], ecdsa: Ecdsa) -> Self {
        let key = ecdsa.keygen(rng);
        CertificateAuthority {
            name: name.to_vec(),
            signer: CaSigner::Ecdsa { ecdsa, key },
        }
    }

    /// The verification half handed to every relying node.
    pub fn public(&self) -> CaPublic {
        match &self.signer {
            CaSigner::Dsa { dsa, key } => CaPublic::Dsa(dsa.clone(), key.y.clone()),
            CaSigner::Ecdsa { ecdsa, key } => {
                CaPublic::Ecdsa(ecdsa.clone(), EcdsaPreparedKey::new(key.q.clone()))
            }
        }
    }

    /// Issues a certificate with `serial` for `(subject, key)`. The CA
    /// keeps no state between issues, so the certificate depends only on
    /// the arguments and the draws from `rng` (the signing nonce).
    ///
    /// # Panics
    /// Panics if the subject key's scheme differs from the CA's scheme.
    pub fn issue<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        subject: &[u8],
        key: SubjectKey,
        serial: u64,
    ) -> Certificate {
        let mut cert = Certificate {
            serial,
            issuer: self.name.clone(),
            subject: subject.to_vec(),
            key,
            // placeholder replaced below
            signature: CaSignature::Dsa(DsaSignature {
                r: Ubig::one(),
                s: Ubig::one(),
            }),
        };
        let tbs = cert.tbs_bytes();
        cert.signature = match &self.signer {
            CaSigner::Dsa { dsa, key: ca } => {
                assert_eq!(cert.key.scheme(), CertScheme::Dsa, "mixed-scheme cert");
                CaSignature::Dsa(dsa.sign(rng, ca, &tbs))
            }
            CaSigner::Ecdsa { ecdsa, key: ca } => {
                assert_eq!(cert.key.scheme(), CertScheme::Ecdsa, "mixed-scheme cert");
                CaSignature::Ecdsa(ecdsa.sign(rng, ca, &tbs))
            }
        };
        cert
    }
}

impl CaPublic {
    /// Cryptographically verifies a certificate against this CA key.
    pub fn verify(&self, cert: &Certificate) -> bool {
        let tbs = cert.tbs_bytes();
        match (self, &cert.signature) {
            (CaPublic::Dsa(dsa, y), CaSignature::Dsa(sig)) => dsa.verify(y, &tbs, sig),
            (CaPublic::Ecdsa(ecdsa, key), CaSignature::Ecdsa(sig)) => {
                ecdsa.verify_prepared(key, &tbs, sig)
            }
            _ => false,
        }
    }
}

/// Outcome of presenting a certificate to a [`CertStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertCheck {
    /// Previously verified: no cryptographic work done (paper: returning
    /// group members do not re-pay certificate verification).
    AlreadyTrusted,
    /// Verified now: one certificate verification was performed.
    NewlyVerified,
    /// Signature invalid or subject mismatch: rejected.
    Rejected,
}

/// Per-node cache of verified certificates, keyed by fingerprint.
#[derive(Default)]
pub struct CertStore {
    trusted: HashMap<[u8; 32], Certificate>,
}

impl CertStore {
    /// An empty store.
    pub fn new() -> Self {
        CertStore::default()
    }

    /// Number of cached certificates.
    pub fn len(&self) -> usize {
        self.trusted.len()
    }

    /// True when no certificates are cached.
    pub fn is_empty(&self) -> bool {
        self.trusted.is_empty()
    }

    /// Presents `cert` (claimed to belong to `expected_subject`): verifies
    /// it against `ca` unless already cached.
    pub fn check(
        &mut self,
        cert: &Certificate,
        expected_subject: &[u8],
        ca: &CaPublic,
    ) -> CertCheck {
        if cert.subject != expected_subject {
            return CertCheck::Rejected;
        }
        let fp = cert.fingerprint();
        if self.trusted.contains_key(&fp) {
            return CertCheck::AlreadyTrusted;
        }
        if ca.verify(cert) {
            self.trusted.insert(fp, cert.clone());
            CertCheck::NewlyVerified
        } else {
            CertCheck::Rejected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    fn ecdsa_ca() -> (CertificateAuthority, Ecdsa) {
        let mut rng = ChaChaRng::seed_from_u64(0xca);
        let ecdsa = Ecdsa::new(egka_ec::secp160r1());
        (
            CertificateAuthority::new_ecdsa(&mut rng, b"egka-ca", ecdsa.clone()),
            ecdsa,
        )
    }

    #[test]
    fn issue_and_verify_ecdsa_cert() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let user = ecdsa.keygen(&mut rng);
        let cert = ca.issue(&mut rng, b"user-1", SubjectKey::Ecdsa(user.q), 1);
        assert!(ca.public().verify(&cert));
        assert_eq!(cert.scheme(), CertScheme::Ecdsa);
    }

    #[test]
    fn issue_and_verify_dsa_cert() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let dsa = Dsa::new(egka_bigint::gen_schnorr_group(&mut rng, 256, 96));
        let ca = CertificateAuthority::new_dsa(&mut rng, b"egka-ca", dsa.clone());
        let user = dsa.keygen(&mut rng);
        let cert = ca.issue(&mut rng, b"user-1", SubjectKey::Dsa(user.y), 1);
        assert!(ca.public().verify(&cert));
        assert_eq!(cert.scheme(), CertScheme::Dsa);
    }

    #[test]
    fn tampered_cert_rejected() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let user = ecdsa.keygen(&mut rng);
        let mut cert = ca.issue(&mut rng, b"user-1", SubjectKey::Ecdsa(user.q), 1);
        cert.subject = b"user-2".to_vec(); // rebind to another identity
        assert!(!ca.public().verify(&cert));
    }

    #[test]
    fn prepared_ca_agrees_with_plain_verify() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(11);
        let other_ca = CertificateAuthority::new_ecdsa(&mut rng, b"egka-ca", ecdsa.clone());
        let capub = ca.public();
        let CaPublic::Ecdsa(_, key) = &capub else {
            unreachable!("an ECDSA CA")
        };
        let n = ecdsa.curve().order().clone();
        // Plain verification of `cert` under the CA's point.
        let plain = |cert: &Certificate| match &cert.signature {
            CaSignature::Ecdsa(sig) => ecdsa.verify(key.point(), &cert.tbs_bytes(), sig),
            CaSignature::Dsa(_) => false,
        };
        let resign = |cert: &Certificate, f: &dyn Fn(&EcdsaSignature) -> EcdsaSignature| {
            let CaSignature::Ecdsa(sig) = &cert.signature else {
                unreachable!("an ECDSA certificate")
            };
            Certificate {
                signature: CaSignature::Ecdsa(f(sig)),
                ..cert.clone()
            }
        };
        for i in 0..6u8 {
            let user = ecdsa.keygen(&mut rng);
            let good = ca.issue(&mut rng, &[i], SubjectKey::Ecdsa(user.q.clone()), i.into());
            let cases = [
                (good.clone(), true),
                (
                    other_ca.issue(&mut rng, &[i], SubjectKey::Ecdsa(user.q), i.into()),
                    false,
                ),
                (
                    resign(&good, &|s| EcdsaSignature {
                        r: s.r.clone(),
                        s: egka_bigint::mod_add(&s.s, &Ubig::one(), &n),
                    }),
                    false,
                ),
                (
                    resign(&good, &|s| EcdsaSignature {
                        r: s.r.add_ref(&n),
                        s: s.s.clone(),
                    }),
                    false,
                ),
                (
                    resign(&good, &|s| EcdsaSignature {
                        r: s.r.clone(),
                        s: n.clone(),
                    }),
                    false,
                ),
                (
                    resign(&good, &|s| EcdsaSignature {
                        r: Ubig::zero(),
                        s: s.s.clone(),
                    }),
                    false,
                ),
            ];
            for (cert, valid) in &cases {
                assert_eq!(plain(cert), *valid, "cert {i}");
                // Every clone shares one comb, built by whichever goes first.
                assert_eq!(capub.clone().verify(cert), *valid, "cert {i}");
            }
        }
    }

    #[test]
    fn issuing_is_a_function_of_its_arguments() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(12);
        let keys: Vec<_> = (0..3).map(|_| ecdsa.keygen(&mut rng)).collect();
        let issue = |i: usize| {
            let mut rng = ChaChaRng::seed_from_u64(100 + i as u64);
            ca.issue(
                &mut rng,
                &[i as u8],
                SubjectKey::Ecdsa(keys[i].q.clone()),
                i as u64,
            )
        };
        let forward: Vec<Certificate> = (0..3).map(issue).collect();
        let backward: Vec<Certificate> = (0..3).rev().map(issue).collect();
        for (i, cert) in forward.iter().enumerate() {
            assert_eq!(cert, &backward[2 - i]);
            assert_eq!(cert.serial, i as u64);
            assert!(ca.public().verify(cert));
        }
    }

    #[test]
    fn store_caches_verifications() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let user = ecdsa.keygen(&mut rng);
        let cert = ca.issue(&mut rng, b"user-1", SubjectKey::Ecdsa(user.q), 1);
        let capub = ca.public();
        let mut store = CertStore::new();
        assert_eq!(
            store.check(&cert, b"user-1", &capub),
            CertCheck::NewlyVerified
        );
        assert_eq!(
            store.check(&cert, b"user-1", &capub),
            CertCheck::AlreadyTrusted
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_rejects_subject_mismatch() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(5);
        let user = ecdsa.keygen(&mut rng);
        let cert = ca.issue(&mut rng, b"user-1", SubjectKey::Ecdsa(user.q), 1);
        let mut store = CertStore::new();
        assert_eq!(
            store.check(&cert, b"user-2", &ca.public()),
            CertCheck::Rejected
        );
        assert!(store.is_empty());
    }

    #[test]
    fn store_rejects_forged_cert() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(6);
        let user = ecdsa.keygen(&mut rng);
        let mut cert = ca.issue(&mut rng, b"user-1", SubjectKey::Ecdsa(user.q.clone()), 1);
        // Swap in a different key without re-signing.
        let other = ecdsa.keygen(&mut rng);
        cert.key = SubjectKey::Ecdsa(other.q);
        let mut store = CertStore::new();
        assert_eq!(
            store.check(&cert, b"user-1", &ca.public()),
            CertCheck::Rejected
        );
    }

    #[test]
    fn cross_scheme_verification_fails() {
        let mut rng = ChaChaRng::seed_from_u64(7);
        let (eca, ecdsa) = ecdsa_ca();
        let dsa = Dsa::new(egka_bigint::gen_schnorr_group(&mut rng, 256, 96));
        let dca = CertificateAuthority::new_dsa(&mut rng, b"dsa-ca", dsa);
        let user = ecdsa.keygen(&mut rng);
        let cert = eca.issue(&mut rng, b"u", SubjectKey::Ecdsa(user.q), 1);
        assert!(!dca.public().verify(&cert));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(9);
        let user = ecdsa.keygen(&mut rng);
        let cert = ca.issue(&mut rng, b"user-9", SubjectKey::Ecdsa(user.q), 1);
        let decoded = Certificate::decode(&cert.encode()).expect("roundtrip");
        assert_eq!(decoded, cert);
        assert!(ca.public().verify(&decoded));
    }

    #[test]
    fn decode_rejects_truncated_and_trailing() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(10);
        let user = ecdsa.keygen(&mut rng);
        let cert = ca.issue(&mut rng, b"u", SubjectKey::Ecdsa(user.q), 1);
        let enc = cert.encode();
        assert!(Certificate::decode(&enc[..enc.len() - 1]).is_none());
        let mut padded = enc.clone();
        padded.push(0);
        assert!(Certificate::decode(&padded).is_none());
    }

    #[test]
    fn fingerprints_differ_per_subject() {
        let (ca, ecdsa) = ecdsa_ca();
        let mut rng = ChaChaRng::seed_from_u64(8);
        let u1 = ecdsa.keygen(&mut rng);
        let u2 = ecdsa.keygen(&mut rng);
        let c1 = ca.issue(&mut rng, b"u1", SubjectKey::Ecdsa(u1.q), 1);
        let c2 = ca.issue(&mut rng, b"u2", SubjectKey::Ecdsa(u2.q), 2);
        assert_ne!(c1.fingerprint(), c2.fingerprint());
    }
}
