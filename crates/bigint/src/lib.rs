//! # egka-bigint
//!
//! From-scratch arbitrary-precision unsigned integer arithmetic for the
//! `egka` reproduction of Tan & Teo, *"Energy-Efficient ID-based Group Key
//! Agreement Protocols for Wireless Networks"* (IPPS 2006).
//!
//! The paper's protocols live in two algebraic settings, both built on this
//! crate:
//!
//! * the Burmester–Desmedt group: the order-`q` subgroup of `Z_p^*`
//!   (1024-bit `p`, 160-bit `q`) — see [`prime::SchnorrGroup`];
//! * the GQ signature ring `Z_n` for an RSA modulus `n = p'q'`
//!   (512-bit prime factors) — see [`Modulus::pow2`].
//!
//! Both run on one fixed-limb Montgomery kernel ([`MontField`]), which
//! `egka-ec` also uses for its curve fields. The parameters own their
//! kernels: a [`Modulus`] holds one, built once and shared by clones.
//!
//! ## Layout
//!
//! * [`ubig`] — the [`Ubig`] integer type (limb vector, schoolbook +
//!   Karatsuba multiplication, conversions).
//! * [`div`] — Knuth Algorithm D division.
//! * [`modular`] — modular add/sub/mul, `mod_pow`, gcd, inverse, Jacobi
//!   symbol, as free functions for cold code.
//! * [`mont`] — the allocation-free fixed-limb Montgomery kernel
//!   ([`Fe`], [`MontField`]; 4, 8 or 16 limbs for exponentiation), the hot
//!   path for all exponentiation, inversion and product chains
//!   ([`MulChain`]).
//! * [`fixed`] — the [`Modulus`] handle (a modulus with its kernel, and
//!   the hot operations as methods) and the Lim–Lee comb that a
//!   [`SchnorrGroup`] builds for its generator.
//! * [`prime`] — Miller–Rabin, prime search, Schnorr-group generation.
//! * [`rng`] — uniform sampling helpers over any [`rand::Rng`].
//!
//! ```
//! use egka_bigint::{mod_pow, Ubig};
//!
//! // Fermat's little theorem: a^(p-1) ≡ 1 (mod p) for prime p.
//! let (a, p) = (Ubig::from(7u64), Ubig::from(101u64));
//! let e = Ubig::from(100u64);
//! assert_eq!(mod_pow(&a, &e, &p), Ubig::from(1u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod div;
pub mod fixed;
pub mod limbs;
pub mod modular;
pub mod mont;
pub mod prime;
pub mod rng;
pub mod ubig;

pub use fixed::Modulus;
pub use modular::{ext_gcd_mod, gcd, jacobi, mod_add, mod_inverse, mod_mul, mod_pow, mod_sub};
pub use mont::{Fe, MontField, MulChain};
pub use prime::{gen_prime, gen_schnorr_group, is_prime, SchnorrGroup};
pub use rng::{random_below, random_bits, random_range, random_unit};
pub use ubig::{ParseUbigError, Ubig};
