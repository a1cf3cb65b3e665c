//! Protocol parameters and the PKG's Setup (paper §4).
//!
//! The paper's Setup produces two algebraic structures:
//!
//! * a **Schnorr group** — 1024-bit prime `p`, 160-bit prime `q | p − 1`,
//!   generator `g` of the order-`q` subgroup (the BD key-agreement group);
//! * a **GQ instance** — RSA modulus `n = p'·q'` with 512-bit factors and a
//!   161-bit prime exponent `e` (the ID-based signature ring).
//!
//! Energy accounting always uses the paper's nominal sizes (1024-bit group
//! elements, 32-bit identities …) regardless of the *actual* parameter
//! sizes, so tests and large sweeps can run on smaller, faster parameters
//! ([`SecurityProfile::Toy`]) while producing exactly the operation counts
//! and wire bits the paper's cost model prices. The full 1024-bit
//! [`SecurityProfile::Paper`] profile is embedded as a pinned fixture
//! (regeneration takes minutes) and exercised by `#[ignore]`d slow tests.
//!
//! Next to the GQ master key, a [`Pkg`] holds the [`Authority`] that issues
//! the baselines' credentials: an ECDSA CA, a DSA CA and a SOK PKG. Issuing
//! is one-time setup, as Extract is: a member's [`Credential`] (its GQ ID
//! key or a baseline's) is a function of the PKG and its id, so it is
//! issued once and travels with the member (`MemberState::cred`).

use std::sync::OnceLock;

use egka_bigint::{gen_schnorr_group, SchnorrGroup, Ubig};
use egka_energy::Scheme;
use egka_hash::ChaChaRng;
use egka_sig::{
    CaPublic, Certificate, CertificateAuthority, Dsa, DsaKeyPair, Ecdsa, EcdsaKeyPair,
    EcdsaPreparedKey, GqPkg, GqSecretKey, SokPkg, SokSecretKey, SubjectKey,
};
use rand::{Rng, SeedableRng};

use crate::authbd::MEMBER_KEY_TEETH;
use crate::ident::UserId;
use crate::suite::mix;

/// How big the actual algebra is. Accounting sizes are profile-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SecurityProfile {
    /// Paper-exact: 1024-bit `p`, 160-bit `q`, 512-bit GQ factors,
    /// 161-bit `e`.
    Paper,
    /// Mid-size for integration tests: 512-bit `p`, 160-bit `q`, 256-bit GQ
    /// factors.
    Medium,
    /// Small and fast for unit tests and big-`n` sweeps: 256-bit `p`,
    /// 96-bit `q`, 128-bit GQ factors, 41-bit `e`.
    Toy,
}

impl SecurityProfile {
    /// `(p_bits, q_bits, gq_factor_bits, gq_e_bits)`.
    pub fn sizes(self) -> (u32, u32, u32, u32) {
        match self {
            SecurityProfile::Paper => (1024, 160, 512, 161),
            SecurityProfile::Medium => (512, 160, 256, 161),
            SecurityProfile::Toy => (256, 96, 128, 41),
        }
    }
}

/// The public protocol parameters shared by every group member.
#[derive(Clone, Debug)]
pub struct Params {
    /// The BD group `(p, q, g)`.
    pub bd: SchnorrGroup,
    /// The GQ signature parameters `(n, e)`.
    pub gq: egka_sig::GqParams,
    /// Which profile generated these parameters.
    pub profile: SecurityProfile,
}

/// The Private Key Generator: owns the GQ master key and extracts ID keys,
/// and holds the [`Authority`] that issues the baselines' credentials.
pub struct Pkg {
    params: Params,
    gq_pkg: GqPkg,
    authority: Authority,
}

impl Pkg {
    /// Runs the paper's Setup under `profile`.
    pub fn setup<R: Rng + ?Sized>(rng: &mut R, profile: SecurityProfile) -> Self {
        let (p_bits, q_bits, factor_bits, e_bits) = profile.sizes();
        let bd = gen_schnorr_group(rng, p_bits, q_bits);
        let gq_pkg = GqPkg::setup_with_e_bits(rng, factor_bits, e_bits);
        Pkg {
            params: Params {
                bd,
                gq: gq_pkg.params.clone(),
                profile,
            },
            gq_pkg,
            authority: Authority::default(),
        }
    }

    /// Builds the PKG around pre-generated parameters (fixtures).
    pub fn from_parts(bd: SchnorrGroup, gq_pkg: GqPkg, profile: SecurityProfile) -> Self {
        Pkg {
            params: Params {
                bd,
                gq: gq_pkg.params.clone(),
                profile,
            },
            gq_pkg,
            authority: Authority::default(),
        }
    }

    /// The public parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The GQ PKG behind [`Pkg::extract`].
    pub fn gq(&self) -> &GqPkg {
        &self.gq_pkg
    }

    /// Extracts the ID-based key for `id` (paper's Extract).
    pub fn extract(&self, id: UserId) -> GqSecretKey {
        #[cfg(test)]
        EXTRACTIONS.with(|n| n.set(n.get() + 1));
        self.gq_pkg.extract(&id.to_bytes())
    }

    /// Issues `id`'s credential under `scheme`: its GQ ID key by
    /// [`Pkg::extract`], any other by the [`Authority`]. The result
    /// depends only on the PKG and the arguments.
    pub fn credential(&self, scheme: Scheme, id: UserId) -> Credential {
        match scheme {
            Scheme::Gq => Credential::Gq(self.extract(id)),
            _ => self.authority.credential(scheme, id),
        }
    }

    /// Extracts keys for ids `0..n` (the usual test group).
    pub fn extract_group(&self, n: u32) -> Vec<GqSecretKey> {
        (0..n).map(|i| self.extract(UserId(i))).collect()
    }

    /// The issuer of the certificate and SOK baselines' credentials.
    pub fn authority(&self) -> &Authority {
        &self.authority
    }
}

#[cfg(test)]
thread_local! {
    /// [`Pkg::extract`] calls on this thread, for tests that count them.
    pub(crate) static EXTRACTIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Seed of every [`Authority`]. It is a constant, as the fixtures' seeds
/// are, so every service (a recovered one included) builds the same CAs
/// and the same SOK PKG, and issues the same credential to an id.
const AUTHORITY_SEED: u64 = 0xa07_4017;

/// The SOK fixture deployment: one deterministic pairing group. Energy is
/// priced from operation counts and the paper's nominal wire sizes, so the
/// fixture's curve size only affects the measured "actual bits" ablation,
/// never the priced joules.
fn sok_pairing() -> &'static egka_ec::PairingGroup {
    static GROUP: OnceLock<egka_ec::PairingGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0x50a1_c0de);
        egka_ec::gen_pairing_group(&mut rng, 96, 64)
    })
}

/// The DSA fixture scheme (deterministic Schnorr group), same rationale
/// as [`sok_pairing`].
fn dsa_scheme() -> &'static Dsa {
    static SCHEME: OnceLock<Dsa> = OnceLock::new();
    SCHEME.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0xd5a_c0de);
        Dsa::new(egka_bigint::gen_schnorr_group(&mut rng, 256, 96))
    })
}

/// One certificate authority with its signing scheme and its public half
/// (built once, so an ECDSA CA's comb is shared by every step).
struct Issuer<S> {
    scheme: S,
    ca: CertificateAuthority,
    public: CaPublic,
}

/// The issuer of the baselines' credentials: an ECDSA CA on secp160r1, a
/// DSA CA on the DSA fixture and a SOK PKG on the pairing fixture. Each
/// part is built on first use, so a service that runs only the proposed
/// suite (or only one baseline) builds nothing it does not use.
///
/// A [`Credential`] is a function of (authority, scheme, id):
/// [`Authority::credential`] draws the key pair and the CA's signing nonce
/// from a generator seeded by the scheme and the id, and uses the id as
/// the certificate's serial. Shards may issue in parallel, in any order,
/// and a session decoded without its credentials is re-issued the same
/// bytes.
#[derive(Default)]
pub struct Authority {
    ecdsa: OnceLock<Issuer<Ecdsa>>,
    dsa: OnceLock<Issuer<Dsa>>,
    sok: OnceLock<SokPkg>,
}

/// A member's credential, issued by a [`Pkg`] ([`Pkg::credential`]): the
/// GQ ID key the proposed suite and SSN sign with, or a baseline's key.
/// Every live member carries one, so the certificate schemes' large
/// payloads are boxed and a GQ credential stays small.
#[derive(Clone, Debug)]
pub enum Credential {
    /// A GQ ID key extracted by the PKG, carrying the public `H(ID)⁻¹`
    /// its signatures verify under.
    Gq(GqSecretKey),
    /// An ECDSA key pair and its certificate.
    Ecdsa(Box<EcdsaCredential>),
    /// A DSA key pair and its certificate.
    Dsa(Box<DsaCredential>),
    /// A SOK ID key extracted by the authority's SOK PKG.
    Sok(SokSecretKey),
}

/// An ECDSA key pair, its certificate, and its public point prepared for
/// verification (the comb is built on first use and shared by every
/// clone).
#[derive(Clone, Debug)]
pub struct EcdsaCredential {
    /// The member's key pair.
    pub key: EcdsaKeyPair,
    /// The CA's certificate over `key.q`.
    pub cert: Certificate,
    /// `key.q`, prepared.
    pub prepared: EcdsaPreparedKey,
}

/// A DSA key pair and its certificate.
#[derive(Clone, Debug)]
pub struct DsaCredential {
    /// The member's key pair.
    pub key: DsaKeyPair,
    /// The CA's certificate over `key.y`.
    pub cert: Certificate,
}

impl Credential {
    /// The signature scheme the credential signs with.
    pub fn scheme(&self) -> Scheme {
        match self {
            Credential::Gq(_) => Scheme::Gq,
            Credential::Ecdsa(_) => Scheme::Ecdsa,
            Credential::Dsa(_) => Scheme::Dsa,
            Credential::Sok(_) => Scheme::Sok,
        }
    }

    /// The GQ ID key, if this is a GQ credential.
    pub fn as_gq(&self) -> Option<&GqSecretKey> {
        match self {
            Credential::Gq(key) => Some(key),
            _ => None,
        }
    }
}

/// The authority's generator for `part`, and for `id` under it.
fn authority_rng(part: Scheme, id: Option<UserId>) -> ChaChaRng {
    let tag = match part {
        Scheme::Ecdsa => 0xec,
        Scheme::Dsa => 0xd5,
        Scheme::Sok => 0x50c,
        Scheme::Gq => 0x60,
    };
    let seed = mix(AUTHORITY_SEED, tag);
    ChaChaRng::seed_from_u64(match id {
        Some(id) => mix(seed, u64::from(id.0)),
        None => seed,
    })
}

impl Authority {
    fn ecdsa(&self) -> &Issuer<Ecdsa> {
        self.ecdsa.get_or_init(|| {
            let scheme = Ecdsa::new(egka_ec::secp160r1());
            let mut rng = authority_rng(Scheme::Ecdsa, None);
            let ca = CertificateAuthority::new_ecdsa(&mut rng, b"egka-ca", scheme.clone());
            let public = ca.public();
            Issuer { scheme, ca, public }
        })
    }

    fn dsa(&self) -> &Issuer<Dsa> {
        self.dsa.get_or_init(|| {
            let scheme = dsa_scheme().clone();
            let mut rng = authority_rng(Scheme::Dsa, None);
            let ca = CertificateAuthority::new_dsa(&mut rng, b"egka-ca", scheme.clone());
            let public = ca.public();
            Issuer { scheme, ca, public }
        })
    }

    fn sok(&self) -> &SokPkg {
        self.sok.get_or_init(|| {
            let mut rng = authority_rng(Scheme::Sok, None);
            SokPkg::setup(&mut rng, sok_pairing().clone())
        })
    }

    /// The ECDSA scheme and CA key every ECDSA credential is checked with.
    pub fn ecdsa_public(&self) -> (&Ecdsa, &CaPublic) {
        let issuer = self.ecdsa();
        (&issuer.scheme, &issuer.public)
    }

    /// The DSA scheme and CA key every DSA credential is checked with.
    pub fn dsa_public(&self) -> (&Dsa, &CaPublic) {
        let issuer = self.dsa();
        (&issuer.scheme, &issuer.public)
    }

    /// The SOK public parameters every SOK credential verifies under.
    pub fn sok_params(&self) -> &egka_sig::SokParams {
        &self.sok().params
    }

    /// Issues `id`'s credential under `scheme`. The result depends only on
    /// the authority and the arguments.
    ///
    /// # Panics
    /// Panics for [`Scheme::Gq`], whose keys the [`Pkg`] extracts
    /// ([`Pkg::credential`]).
    pub fn credential(&self, scheme: Scheme, id: UserId) -> Credential {
        let mut rng = authority_rng(scheme, Some(id));
        let serial = u64::from(id.0);
        match scheme {
            Scheme::Ecdsa => {
                let issuer = self.ecdsa();
                let key = issuer.scheme.keygen(&mut rng);
                let subject = SubjectKey::Ecdsa(key.q.clone());
                let cert = issuer.ca.issue(&mut rng, &id.to_bytes(), subject, serial);
                let prepared = EcdsaPreparedKey::with_teeth(key.q.clone(), MEMBER_KEY_TEETH);
                Credential::Ecdsa(Box::new(EcdsaCredential {
                    key,
                    cert,
                    prepared,
                }))
            }
            Scheme::Dsa => {
                let issuer = self.dsa();
                let key = issuer.scheme.keygen(&mut rng);
                let subject = SubjectKey::Dsa(key.y.clone());
                let cert = issuer.ca.issue(&mut rng, &id.to_bytes(), subject, serial);
                Credential::Dsa(Box::new(DsaCredential { key, cert }))
            }
            Scheme::Sok => Credential::Sok(self.sok().extract(&id.to_bytes())),
            Scheme::Gq => panic!("GQ keys are extracted by the PKG, not issued"),
        }
    }
}

/// The pinned paper-profile fixture (1024-bit BD group, 1024-bit GQ
/// modulus). Generated once offline; every invariant is re-validated by the
/// `paper_fixture_validates` test below (and cheap structural checks run on
/// every construction).
pub fn paper_fixture() -> Pkg {
    let h = |s: &str| Ubig::from_hex(s).expect("valid fixture hex");
    let bd = SchnorrGroup::new(h(BD_P_HEX), h(BD_Q_HEX), h(BD_G_HEX)).expect("odd fixture moduli");
    let gq_pkg = GqPkg::from_master(h(GQ_P_HEX), h(GQ_Q_HEX), h(GQ_E_HEX));
    Pkg::from_parts(bd, gq_pkg, SecurityProfile::Paper)
}

// 1024-bit Schnorr group (q | p − 1, g of order q), generated offline with
// an independent implementation and re-validated by tests.
pub(crate) const BD_P_HEX: &str = "81d8fbb15d144ec5bedd4dc79c1640e85fb10a78c32de4b8f6f0e279bc50a2be309fdece6e95c1df1505bed6272ab50613df3e95d2761bc590d2f53b2dc6f82e9cfc1ef418366d5fb8263c22777cc9e442de47bf581a3a2a46bf678d4817e6f0b5537e5d58bf305916955adb96c3cc3d0e28cf84d1123ab8d9bf1a9664b4f1b9";
pub(crate) const BD_Q_HEX: &str = "8f7d722bac146efe0e4a90096fdff2572806891f";
pub(crate) const BD_G_HEX: &str = "29680b05bfae05dd41fa48712327dd1cc6e976f9b816239b0940589b955151f533d1c90e25b59ceade3516856a12de2bbd5d6bc60ac0d105e50b08a054d4c008ada0110b050103a7b66cc4b564b054defd282a9b044b1d3077ac0af8c9acfab36a3aad7f0648835feacc45bf73128a68ef644d56550a1275193aebafb3827d30";
// 512-bit GQ prime factors and 161-bit prime exponent.
pub(crate) const GQ_P_HEX: &str = "d76361975d9d8e8fa784d2cc168d6a94d6a3ffd4a59ef0a421f311d62ab7c5b7b5f20a6393ab460127a44aec5a09f86598da3bfcc6a7711331dbded1439825e3";
pub(crate) const GQ_Q_HEX: &str = "e926b1d850dda4995032399559f950a1d5a5b7ba7460e7f524e2f8ab3741d8d9214534c342e2fd2b33f1ce71e2fb5294e517298a6b150ea3bfe18e86726daeb5";
pub(crate) const GQ_E_HEX: &str = "1a636a0be83d924dc0e43f27fad6836796b744287";

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    #[test]
    fn toy_setup_produces_valid_group() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        assert!(pkg.params().bd.validate(&mut rng));
        assert_eq!(pkg.params().bd.p.bit_length(), 256);
        assert_eq!(pkg.params().bd.q.bit_length(), 96);
    }

    #[test]
    fn extraction_is_deterministic_per_id() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        assert_eq!(pkg.extract(UserId(5)), pkg.extract(UserId(5)));
        assert_ne!(pkg.extract(UserId(5)).s_id, pkg.extract(UserId(6)).s_id);
    }

    #[test]
    fn extracted_keys_satisfy_gq_identity() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
        let key = pkg.extract(UserId(0));
        let lhs = egka_bigint::mod_pow(&key.s_id, &pkg.params().gq.e, &pkg.params().gq.n);
        assert_eq!(lhs, pkg.params().gq.hash_id(&UserId(0).to_bytes()));
    }

    #[test]
    fn crt_extract_equals_the_plain_exponentiation() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        for pkg in [Pkg::setup(&mut rng, SecurityProfile::Toy), paper_fixture()] {
            let gq = pkg.gq();
            for id in [0u32, 1, 7, 1 << 20, u32::MAX].map(UserId) {
                let h = gq.params.hash_id(&id.to_bytes());
                let plain = egka_bigint::mod_pow(&h, &gq.master().d, &gq.params.n);
                assert_eq!(pkg.extract(id).s_id, plain, "{id:?}");
            }
        }
    }

    #[test]
    fn carried_inverse_is_the_inverse_of_the_id_hash() {
        use crate::group::{GroupSession, MemberState};
        use crate::wire::{Reader, Writer};
        let mut rng = ChaChaRng::seed_from_u64(6);
        for pkg in [Pkg::setup(&mut rng, SecurityProfile::Toy), paper_fixture()] {
            let gq = &pkg.params().gq;
            let ids = [0u32, 7, 1 << 20, u32::MAX].map(UserId);
            let session = GroupSession {
                params: pkg.params().clone(),
                members: ids
                    .iter()
                    .map(|&id| MemberState {
                        id,
                        r: Ubig::one(),
                        z: Ubig::one(),
                        tau: Ubig::zero(),
                        t: Ubig::zero(),
                        cred: Some(std::sync::Arc::new(pkg.credential(Scheme::Gq, id))),
                    })
                    .collect(),
                key: Ubig::one(),
            };
            let mut w = Writer::new();
            session.encode_state(&mut w);
            let buf = w.finish();
            let decoded = GroupSession::decode_state(&mut Reader::new(&buf), pkg.params()).unwrap();
            for (m, d) in session.members.iter().zip(&decoded.members) {
                let want = egka_bigint::mod_inverse(&gq.hash_id(&m.id.to_bytes()), &gq.n).unwrap();
                assert_eq!(m.gq().h_inv(gq), &want, "extracted {:?}", m.id);
                assert_eq!(d.gq().h_inv(gq), &want, "decoded {:?}", m.id);
                assert_eq!(d.gq(), m.gq());
            }
        }
    }

    /// Everything an issued credential consists of, as bytes.
    fn credential_bytes(c: &Credential) -> Vec<Vec<u8>> {
        match c {
            Credential::Ecdsa(c) => {
                let EcdsaCredential {
                    key,
                    cert,
                    prepared,
                } = &**c;
                assert_eq!(prepared.point(), &key.q);
                let (x, y) = key.q.xy().expect("a finite public key");
                vec![
                    key.d.to_bytes_be(),
                    x.to_bytes_be(),
                    y.to_bytes_be(),
                    cert.encode(),
                ]
            }
            Credential::Dsa(c) => {
                vec![
                    c.key.x.to_bytes_be(),
                    c.key.y.to_bytes_be(),
                    c.cert.encode(),
                ]
            }
            Credential::Sok(key) => {
                let (x, y) = key.s_id.xy().expect("a finite ID key");
                vec![key.id.clone(), x.to_bytes_be(), y.to_bytes_be()]
            }
            Credential::Gq(key) => vec![key.id().to_vec(), key.s_id.to_bytes_be()],
        }
    }

    #[test]
    fn independent_authorities_issue_equal_credentials_in_any_order() {
        let ids = [0u32, 5, 1, 900, 1 << 31, u32::MAX].map(UserId);
        for scheme in [Scheme::Ecdsa, Scheme::Dsa, Scheme::Sok] {
            let (a, b) = (Authority::default(), Authority::default());
            let forward: Vec<Credential> = ids.iter().map(|&u| a.credential(scheme, u)).collect();
            let mut backward: Vec<Credential> =
                ids.iter().rev().map(|&u| b.credential(scheme, u)).collect();
            backward.reverse();
            for ((u, x), y) in ids.iter().zip(&forward).zip(&backward) {
                assert_eq!(x.scheme(), scheme);
                assert_eq!(credential_bytes(x), credential_bytes(y), "{scheme:?} {u:?}");
            }
            let distinct: std::collections::BTreeSet<_> =
                forward.iter().map(credential_bytes).collect();
            assert_eq!(
                distinct.len(),
                ids.len(),
                "{scheme:?}: one credential per id"
            );
        }
    }

    #[test]
    fn issued_certificates_verify_under_the_authority_and_bind_the_id() {
        let authority = Authority::default();
        let mut store = egka_sig::CertStore::new();
        for u in [UserId(3), UserId(70_000)] {
            let Credential::Ecdsa(c) = authority.credential(Scheme::Ecdsa, u) else {
                unreachable!("an ECDSA credential")
            };
            let cert = c.cert;
            assert_eq!(cert.serial, u64::from(u.0));
            let ca = authority.ecdsa_public().1;
            assert_eq!(
                store.check(&cert, &u.to_bytes(), ca),
                egka_sig::CertCheck::NewlyVerified
            );
            let Credential::Dsa(c) = authority.credential(Scheme::Dsa, u) else {
                unreachable!("a DSA credential")
            };
            assert!(authority.dsa_public().1.verify(&c.cert));
        }
    }

    #[test]
    fn paper_fixture_structural_checks() {
        let pkg = paper_fixture();
        assert_eq!(pkg.params().bd.p.bit_length(), 1024);
        assert_eq!(pkg.params().bd.q.bit_length(), 160);
        assert_eq!(pkg.params().gq.n.bit_length(), 1024);
        assert_eq!(pkg.params().gq.e.bit_length(), 161);
        // q | p − 1 and g^q = 1
        let p_minus_1 = pkg.params().bd.p.checked_sub(&Ubig::one()).unwrap();
        assert!(p_minus_1.rem_ref(&pkg.params().bd.q).is_zero());
        assert!(
            egka_bigint::mod_pow(&pkg.params().bd.g, &pkg.params().bd.q, &pkg.params().bd.p)
                .is_one()
        );
    }

    /// Full (slow) probabilistic validation of the fixture primes.
    #[test]
    #[ignore = "primality of 1024-bit fixture parameters; run with --ignored"]
    fn paper_fixture_validates() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let pkg = paper_fixture();
        assert!(pkg.params().bd.validate(&mut rng));
        // Sign/verify at full size.
        let key = pkg.extract(UserId(1));
        let sig = pkg.params().gq.sign(&mut rng, &key, b"paper-size smoke");
        assert!(pkg
            .params()
            .gq
            .verify(&UserId(1).to_bytes(), b"paper-size smoke", &sig));
    }
}
