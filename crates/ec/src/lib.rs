//! # egka-ec
//!
//! From-scratch elliptic-curve arithmetic for the `egka` reproduction of
//! Tan & Teo, *"Energy-Efficient ID-based Group Key Agreement Protocols for
//! Wireless Networks"* (IPPS 2006).
//!
//! The paper prices two elliptic-curve primitives (Table 2):
//!
//! * **EC scalar multiplication** (8.8 mJ) — the cost unit of ECDSA, the
//!   certificate-based baseline of Tables 1/4/5;
//! * **Tate pairing** (47.0 mJ) and **MapToPoint** (18.4 mJ) — the cost
//!   units of the SOK ID-based signature baseline.
//!
//! This crate provides the real machinery behind those rows:
//!
//! * [`field`] — the prime field `F_p`, every product on one fixed-limb
//!   Montgomery kernel that scalar multiplication shares, and the
//!   quadratic extension `F_p²` with `i² = −1`;
//! * [`curve`] — short-Weierstrass curves, SEC1 point compression, and
//!   scalar multiplication (wNAF, Straus, Lim–Lee comb) on allocation-free
//!   fixed-limb Montgomery coordinates in Jacobian form;
//! * [`curves`] — secp160r1 (the paper's 160-bit ECDSA curve), secp192r1,
//!   secp256k1 and a toy curve for exhaustive tests;
//! * [`pairing`] — the modified Tate pairing on a supersingular curve
//!   `y² = x³ + x` with embedding degree 2 (BKLS denominator elimination),
//!   plus MapToPoint hashing and pairing-group parameter generation.
//!
//! ```
//! use egka_bigint::Ubig;
//! use egka_ec::tiny19;
//!
//! // Scalar multiplication distributes over the group law:
//! // (2 + 3)·G = 2·G + 3·G.
//! let curve = tiny19();
//! let two_g = curve.mul_gen(&Ubig::from(2u64));
//! let three_g = curve.mul_gen(&Ubig::from(3u64));
//! let five_g = curve.mul_gen(&Ubig::from(5u64));
//! assert_eq!(curve.add(&two_g, &three_g), five_g);
//! assert!(curve.is_on_curve(&five_g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod curves;
pub mod field;
mod jacobian;
mod mont;
pub mod pairing;

pub use curve::{Curve, Point, PreparedPoint, PREPARED_TEETH};
pub use curves::{secp160r1, secp192r1, secp256k1, tiny19};
pub use field::{Fp, Fp2, Fp2El};
pub use pairing::{gen_pairing_group, MillerPrecomp, PairingGroup};
