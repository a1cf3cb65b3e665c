//! # egka-sig
//!
//! The four signature schemes priced by the paper's Table 2 plus the
//! certificate machinery of its certificate-based baselines:
//!
//! * [`gq`] — the Guillou–Quisquater ID-based variant of paper §3, including
//!   the **aggregate/batch verification** of eq. (2) that powers the
//!   proposed GKA protocol;
//! * [`dsa`] — 1024-bit DSA over a Schnorr group;
//! * [`ecdsa`] — ECDSA over secp160r1 (and any other `egka-ec` curve);
//! * [`sok`] — the Sakai–Ohgishi–Kasahara pairing-based ID-based signature
//!   (2 scalar-mul sign, 3-pairing verify, MapToPoint per identity/message);
//! * [`certs`] — an X.509-like certificate format, DSA/ECDSA certifying
//!   authorities, and the [`certs::CertStore`] verified-certificate cache
//!   that reproduces the paper's "returning members don't re-verify
//!   certificates" accounting;
//! * [`blame`] — the epoch coordinator's deterministic ECDSA key for
//!   signing eviction blame certificates (`egka-robust`), reproducible bit
//!   for bit across crash recovery.
//!
//! All schemes are built exclusively on the workspace's own substrates
//! (`egka-bigint`, `egka-hash`, `egka-ec`); no external cryptography.
//!
//! ```
//! use egka_ec::secp160r1;
//! use egka_hash::ChaChaRng;
//! use egka_sig::Ecdsa;
//! use rand::SeedableRng;
//!
//! // ECDSA over the paper's 160-bit curve: a good signature verifies,
//! // and verification binds the message.
//! let mut rng = ChaChaRng::seed_from_u64(5);
//! let ecdsa = Ecdsa::new(secp160r1());
//! let keys = ecdsa.keygen(&mut rng);
//! let sig = ecdsa.sign(&mut rng, &keys, b"join round 2");
//! assert!(ecdsa.verify(&keys.q, b"join round 2", &sig));
//! assert!(!ecdsa.verify(&keys.q, b"a different message", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod certs;
pub mod dsa;
pub mod ecdsa;
pub mod gq;
pub mod sok;

pub use blame::{BlamePublic, CoordinatorKey};
pub use certs::{
    CaPublic, CaSignature, CertCheck, CertScheme, CertStore, Certificate, CertificateAuthority,
    SubjectKey,
};
pub use dsa::{Dsa, DsaKeyPair, DsaSignature};
pub use ecdsa::{Ecdsa, EcdsaKeyPair, EcdsaPreparedKey, EcdsaSignature};
pub use gq::{GqMasterKey, GqParams, GqPkg, GqSecretKey, GqSignature};
pub use sok::{SokParams, SokPkg, SokSecretKey, SokSignature};
