//! Tate pairing on a supersingular curve, for the SOK ID-based signature.
//!
//! The curve is `E : y² = x³ + x` over `F_p` with `p ≡ 3 (mod 4)`, which is
//! supersingular with `#E(F_p) = p + 1` and embedding degree 2. For a prime
//! `q | p + 1` the modified Tate pairing
//!
//! ```text
//! ê(P, Q) = e_q(P, φ(Q)) ∈ μ_q ⊂ F_p²,   φ(x, y) = (−x, i·y)
//! ```
//!
//! (φ the distortion map, `i² = −1`) is a symmetric, non-degenerate bilinear
//! pairing on the order-`q` subgroup of `E(F_p)`. The Miller loop uses the
//! BKLS denominator-elimination trick: because `x(φ(Q)) = −x_Q ∈ F_p`, all
//! vertical-line factors land in `F_p` and are annihilated by the final
//! exponentiation `(p² − 1)/q = (p − 1) · cofactor`, so they are simply
//! skipped. The `(p − 1)` part of the final exponentiation is a Frobenius
//! (conjugation) plus one inversion; only the small cofactor exponent is a
//! real exponentiation.
//!
//! The paper prices this primitive via Table 2's "Tate Pairing" row (47.0 mJ
//! on the StrongARM); here it is implemented for real so the SOK-signed BD
//! variant actually verifies.

use egka_bigint::{is_prime, random_below, Ubig};
use egka_hash::mgf1;
use rand::Rng;

use crate::curve::{Curve, Point};
use crate::field::{Fp, Fp2, Fp2El};

/// Cached Miller-loop line coefficients for one fixed first argument —
/// see [`PairingGroup::precompute`]. One entry per loop line in schedule
/// order (`None` marks the verticals denominator elimination skips).
#[derive(Clone, Debug)]
pub struct MillerPrecomp {
    lines: Vec<Option<(Ubig, Ubig)>>,
}

/// A symmetric pairing group on a supersingular curve.
#[derive(Clone, Debug)]
pub struct PairingGroup {
    curve: Curve,
    fp2: Fp2,
    /// `(p + 1) / q`.
    cofactor: Ubig,
}

impl PairingGroup {
    /// Builds a pairing group from `(p, q, generator)` where `p ≡ 3 (mod 4)`
    /// is prime, `q` is an odd prime dividing `p + 1`, and `gen` generates
    /// the order-`q` subgroup of `E(F_p) : y² = x³ + x`.
    ///
    /// # Panics
    /// Panics if any of those conditions fails (primality is checked
    /// probabilistically with a deterministic RNG).
    pub fn new(p: Ubig, q: Ubig, gen: Point) -> Self {
        use rand::SeedableRng;
        let mut check_rng = rand::rngs::SmallRng::seed_from_u64(0x9e37_79b9);
        assert!(p.low_u64() & 3 == 3, "p must be ≡ 3 (mod 4)");
        assert!(is_prime(&p, &mut check_rng), "p must be prime");
        assert!(is_prime(&q, &mut check_rng), "q must be prime");
        let p_plus_1 = p.add_ref(&Ubig::one());
        let (cofactor, rem) = p_plus_1.div_rem(&q);
        assert!(rem.is_zero(), "q must divide p + 1");
        let field = Fp::new(p);
        let fp2 = Fp2::new(field.clone());
        // E: y² = x³ + 1·x + 0. Curve::new verifies gen is on-curve with order q.
        let curve = Curve::new(
            "supersingular-y2=x3+x",
            field,
            Ubig::one(),
            Ubig::zero(),
            q,
            cofactor.clone(),
            gen,
        );
        PairingGroup {
            curve,
            fp2,
            cofactor,
        }
    }

    /// The paper-profile fixture: 194-bit `p`, 160-bit `q` (matching the
    /// "194-bit SOK" sizing of Table 3). Generated once and pinned; the
    /// constructor re-validates every claimed property.
    pub fn paper_fixture() -> Self {
        let p = Ubig::from_hex("24056cb57801921f30c2993adcde17bb3d0b97964065e4a37").unwrap();
        let q = Ubig::from_hex("a1dbc22e24c7a629b282f6bcb7f2acef5ab3b75f").unwrap();
        let gen = Point::affine(
            Ubig::from_hex("15585c064032bdbd7ae9659c8d2a507b26854a5b8471d5b39").unwrap(),
            Ubig::from_hex("6ea1ebb6990e2a0feb51cd28eec9a264e1f80c4076df85ca").unwrap(),
        );
        Self::new(p, q, gen)
    }

    /// The underlying curve (group operations, scalar multiplication).
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    /// The extension field the pairing maps into.
    pub fn fp2(&self) -> &Fp2 {
        &self.fp2
    }

    /// Subgroup order `q`.
    pub fn order(&self) -> &Ubig {
        self.curve.order()
    }

    /// Hash an arbitrary byte string onto the order-`q` subgroup
    /// (the scheme's MapToPoint primitive).
    ///
    /// Try-and-increment on the x-coordinate followed by cofactor clearing;
    /// expected ~2 field square-root attempts.
    pub fn map_to_point(&self, msg: &[u8]) -> Point {
        let f = self.curve.field();
        let xbytes = f.byte_len() + 8; // oversample to make mod-p bias negligible
        for ctr in 0u32.. {
            let raw = mgf1(
                b"egka.map2point.v1",
                &[msg, &ctr.to_be_bytes()].concat(),
                xbytes,
            );
            let x = f.reduce(&Ubig::from_bytes_be(&raw));
            let rhs = f.add(&f.mul(&f.sqr(&x), &x), &x); // x³ + x
            if let Some(mut y) = f.sqrt(&rhs) {
                // Pick the lexicographically smaller root deterministically.
                let neg = f.neg(&y);
                if neg < y {
                    y = neg;
                }
                let pt = self.curve.mul(&self.cofactor, &Point::affine(x, y));
                if !pt.is_infinity() {
                    return pt;
                }
            }
        }
        unreachable!("try-and-increment terminates with overwhelming probability")
    }

    /// Uniformly random point of order `q` (for tests).
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let f = self.curve.field();
        loop {
            let x = random_below(rng, f.modulus());
            let rhs = f.add(&f.mul(&f.sqr(&x), &x), &x);
            if let Some(y) = f.sqrt(&rhs) {
                let pt = self.curve.mul(&self.cofactor, &Point::affine(x, y));
                if !pt.is_infinity() {
                    return pt;
                }
            }
        }
    }

    /// The modified Tate pairing `ê(P, Q) = e_q(P, φ(Q))`.
    ///
    /// Both inputs must lie in the order-`q` subgroup of `E(F_p)`. Returns an
    /// element of the order-`q` subgroup `μ_q ⊂ F_p²^*`; `ê(P, Q) = 1` iff
    /// either input is the identity.
    pub fn pairing(&self, p_pt: &Point, q_pt: &Point) -> Fp2El {
        let (qx, qy) = match q_pt.xy() {
            None => return Fp2El::one(),
            Some(xy) => (xy.0.clone(), xy.1.clone()),
        };
        if p_pt.is_infinity() {
            return Fp2El::one();
        }
        let f = self.curve.field();
        let fp2 = &self.fp2;
        // φ(Q) = (−qx, i·qy): the line evaluations below use these directly.
        let phi_x = f.neg(&qx);

        let order = self.curve.order().clone();
        let mut acc = Fp2El::one();
        let mut v = p_pt.clone();
        let bits = order.bit_length();
        for i in (0..bits - 1).rev() {
            // acc ← acc² · tangent_{V}(φQ); V ← 2V
            acc = fp2.sqr(&acc);
            if let Some(line) = self.line_eval(&v, None, &phi_x, &qy) {
                acc = fp2.mul(&acc, &line);
            }
            v = self.curve.double(&v);
            if order.bit(i) {
                // acc ← acc · line_{V,P}(φQ); V ← V + P
                if let Some(line) = self.line_eval(&v, Some(p_pt), &phi_x, &qy) {
                    acc = fp2.mul(&acc, &line);
                }
                v = self.curve.add(&v, p_pt);
            }
        }
        debug_assert!(v.is_infinity(), "order-q input must close the Miller loop");
        self.final_exponentiation(&acc)
    }

    /// Precomputes the Miller-loop line coefficients for a fixed first
    /// argument `P`: the loop's `V` trajectory (and every line slope λ)
    /// depends only on `P`, so a pairing against a long-lived point (the
    /// group generator, a master public key) can cache them once and
    /// evaluate each subsequent `Q` with one field multiply per line —
    /// no inversions in the loop ([`PairingGroup::pairing_fixed`]).
    pub fn precompute(&self, p_pt: &Point) -> MillerPrecomp {
        let order = self.curve.order().clone();
        let mut lines = Vec::new();
        let mut v = p_pt.clone();
        let bits = order.bit_length();
        for i in (0..bits - 1).rev() {
            lines.push(self.line_coeffs(&v, None));
            v = self.curve.double(&v);
            if order.bit(i) {
                lines.push(self.line_coeffs(&v, Some(p_pt)));
                v = self.curve.add(&v, p_pt);
            }
        }
        debug_assert!(
            p_pt.is_infinity() || v.is_infinity(),
            "order-q input must close the Miller loop"
        );
        MillerPrecomp { lines }
    }

    /// The modified Tate pairing with the first argument's line
    /// coefficients precomputed ([`PairingGroup::precompute`]). Identical
    /// output to [`PairingGroup::pairing`] — each line's value at
    /// `φ(Q) = (−q_x, i·q_y)` is `(A − λ·φ_x) + i·q_y` with `(λ, A)`
    /// cached, so the loop costs one field multiply per line.
    ///
    /// # Panics
    /// May panic (or return garbage) if `pre` was built by a different
    /// pairing group: the line schedule is keyed to this group's order.
    pub fn pairing_fixed(&self, pre: &MillerPrecomp, q_pt: &Point) -> Fp2El {
        let (qx, qy) = match q_pt.xy() {
            None => return Fp2El::one(),
            Some(xy) => (xy.0.clone(), xy.1.clone()),
        };
        let f = self.curve.field();
        let fp2 = &self.fp2;
        let phi_x = f.neg(&qx);
        let order = self.curve.order();
        let bits = order.bit_length();
        let mut acc = Fp2El::one();
        let mut lines = pre.lines.iter();
        let eval = |acc: &Fp2El, line: Option<&(Ubig, Ubig)>| match line {
            Some((lambda, a)) => {
                let c0 = f.sub(a, &f.mul(lambda, &phi_x));
                fp2.mul(acc, &Fp2El { c0, c1: qy.clone() })
            }
            None => acc.clone(),
        };
        for i in (0..bits - 1).rev() {
            acc = fp2.sqr(&acc);
            acc = eval(&acc, lines.next().expect("line schedule").as_ref());
            if order.bit(i) {
                acc = eval(&acc, lines.next().expect("line schedule").as_ref());
            }
        }
        self.final_exponentiation(&acc)
    }

    /// The Miller line at `V`: the tangent when `p` is `None`, else the
    /// chord through `V` and `P`. Returns its slope λ with `V`'s
    /// coordinates, or `None` when the line is vertical (its value lands
    /// in `F_p`, which the final exponentiation annihilates).
    fn line<'v>(&self, v: &'v Point, p: Option<&Point>) -> Option<(Ubig, &'v Ubig, &'v Ubig)> {
        let f = self.curve.field();
        let (vx, vy) = v.xy()?;
        let lambda = match p {
            // Vertical tangent at a 2-torsion point.
            None if vy.is_zero() => return None,
            // λ = (3x² + 1) / 2y  (curve a = 1)
            None => f.mul(
                &f.add(&f.mul_u64(&f.sqr(vx), 3), &Ubig::one()),
                &f.inv(&f.mul_u64(vy, 2)).expect("vy != 0"),
            ),
            Some(p) => {
                let (px, py) = p.xy()?;
                if vx == px {
                    return None; // V = ±P
                }
                f.mul(&f.sub(py, vy), &f.inv(&f.sub(px, vx)).expect("px != vx"))
            }
        };
        Some((lambda, vx, vy))
    }

    /// `(λ, A = λ·x_V − y_V)` of the Miller line at `V`, for
    /// [`PairingGroup::precompute`]. The line's value at `φ(Q)` is
    /// `(A − λ·φ_x) + i·q_y`.
    fn line_coeffs(&self, v: &Point, p: Option<&Point>) -> Option<(Ubig, Ubig)> {
        let f = self.curve.field();
        let (lambda, vx, vy) = self.line(v, p)?;
        let a = f.sub(&f.mul(&lambda, vx), vy);
        Some((lambda, a))
    }

    /// The Miller line at `V` evaluated at `φ(Q) = (φ_x, i·q_y)`, for
    /// [`PairingGroup::pairing`]: `g = (i·q_y) − y_V − λ·(φ_x − x_V)`,
    /// one multiply.
    fn line_eval(&self, v: &Point, p: Option<&Point>, phi_x: &Ubig, qy: &Ubig) -> Option<Fp2El> {
        let f = self.curve.field();
        let (lambda, vx, vy) = self.line(v, p)?;
        let c0 = f.sub(&f.mul(&lambda, &f.sub(vx, phi_x)), vy);
        Some(Fp2El { c0, c1: qy.clone() })
    }

    /// `f ↦ f^{(p²−1)/q}` via Frobenius: `f^{p−1} = conj(f)·f^{−1}`, then one
    /// exponentiation by the (small) cofactor `(p+1)/q`.
    fn final_exponentiation(&self, f: &Fp2El) -> Fp2El {
        let fp2 = &self.fp2;
        let inv = fp2.inv(f).expect("Miller value is non-zero");
        let powered = fp2.mul(&fp2.conj(f), &inv);
        fp2.pow(&powered, &self.cofactor)
    }
}

/// Generates a fresh pairing group: `q` a `q_bits` prime, `p = q·c − 1` a
/// `p_bits` prime with `p ≡ 3 (mod 4)` (i.e. `4 | c`), plus a generator of
/// the order-`q` subgroup.
///
/// # Panics
/// Panics if `p_bits < q_bits + 3` (no room for the cofactor).
pub fn gen_pairing_group<R: Rng + ?Sized>(rng: &mut R, p_bits: u32, q_bits: u32) -> PairingGroup {
    assert!(p_bits >= q_bits + 3, "cofactor needs at least 3 bits");
    let q = egka_bigint::gen_prime(rng, q_bits);
    loop {
        // c: (p_bits − q_bits)-bit multiple of 4 ⇒ p = qc − 1 ≡ 3 (mod 4).
        let mut c = egka_bigint::random_bits(rng, p_bits - q_bits);
        c = c.shr_bits(2).shl_bits(2);
        if c.is_zero() {
            continue;
        }
        let p = q.mul_ref(&c).checked_sub(&Ubig::one()).unwrap();
        if p.bit_length() != p_bits || !is_prime(&p, rng) {
            continue;
        }
        // Random point → clear cofactor → generator of the order-q subgroup.
        let field = Fp::new(p.clone());
        loop {
            let x = random_below(rng, field.modulus());
            let rhs = field.add(&field.mul(&field.sqr(&x), &x), &x);
            let Some(y) = field.sqrt(&rhs) else { continue };
            // Scalar-multiply by hand here (no Curve yet: its constructor
            // wants the final generator).
            let tmp = Curve::new(
                "supersingular-tmp",
                field.clone(),
                Ubig::one(),
                Ubig::zero(),
                p.add_ref(&Ubig::one()), // full group order p+1
                Ubig::one(),
                Point::affine(x.clone(), y.clone()),
            );
            let gen = tmp.mul(&c, &Point::affine(x, y));
            if !gen.is_infinity() {
                return PairingGroup::new(p, q, gen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    /// Small pairing group for fast tests (generated fresh each call from a
    /// fixed seed, so all tests share identical parameters).
    fn small_group() -> PairingGroup {
        let mut rng = ChaChaRng::seed_from_u64(0x6567_6b61); // "egka"
        gen_pairing_group(&mut rng, 96, 64)
    }

    #[test]
    fn fixture_validates() {
        let g = PairingGroup::paper_fixture();
        assert_eq!(g.curve().field().bits(), 194);
        assert_eq!(g.order().bit_length(), 160);
    }

    #[test]
    fn pairing_is_nondegenerate() {
        let g = small_group();
        let gen = g.curve().generator().clone();
        let e = g.pairing(&gen, &gen);
        assert!(!e.is_one(), "ê(G, G) must be non-trivial (distortion map)");
        // and has order dividing q:
        let eq = g.fp2().pow(&e, g.order());
        assert!(eq.is_one());
    }

    #[test]
    fn pairing_is_bilinear() {
        let g = small_group();
        let mut rng = ChaChaRng::seed_from_u64(11);
        let gen = g.curve().generator().clone();
        let a = g.curve().random_scalar(&mut rng);
        let b = g.curve().random_scalar(&mut rng);
        let pa = g.curve().mul(&a, &gen);
        let pb = g.curve().mul(&b, &gen);
        // ê(aG, bG) == ê(G, G)^{ab} == ê(bG, aG)
        let lhs = g.pairing(&pa, &pb);
        let ab = egka_bigint::mod_mul(&a, &b, g.order());
        let rhs = g.fp2().pow(&g.pairing(&gen, &gen), &ab);
        assert_eq!(lhs, rhs);
        assert_eq!(lhs, g.pairing(&pb, &pa), "modified pairing is symmetric");
    }

    #[test]
    fn pairing_splits_products() {
        // ê(P + R, Q) = ê(P, Q) · ê(R, Q)
        let g = small_group();
        let mut rng = ChaChaRng::seed_from_u64(12);
        let p = g.random_point(&mut rng);
        let r = g.random_point(&mut rng);
        let q = g.random_point(&mut rng);
        let lhs = g.pairing(&g.curve().add(&p, &r), &q);
        let rhs = g.fp2().mul(&g.pairing(&p, &q), &g.pairing(&r, &q));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_identity_inputs() {
        let g = small_group();
        let gen = g.curve().generator().clone();
        assert!(g.pairing(&Point::Infinity, &gen).is_one());
        assert!(g.pairing(&gen, &Point::Infinity).is_one());
    }

    #[test]
    fn map_to_point_lands_in_subgroup() {
        let g = small_group();
        for id in ["alice", "bob", "carol", ""] {
            let pt = g.map_to_point(id.as_bytes());
            assert!(g.curve().is_on_curve(&pt));
            assert!(!pt.is_infinity());
            assert!(
                g.curve().mul_raw(g.order(), &pt).is_infinity(),
                "order-q check"
            );
        }
    }

    #[test]
    fn map_to_point_is_deterministic_and_injective_in_practice() {
        let g = small_group();
        let a1 = g.map_to_point(b"alice");
        let a2 = g.map_to_point(b"alice");
        let b = g.map_to_point(b"bob");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn fixed_base_pairing_matches_generic() {
        let g = small_group();
        let mut rng = ChaChaRng::seed_from_u64(14);
        let gen = g.curve().generator().clone();
        let pre = g.precompute(&gen);
        for _ in 0..4 {
            let q = g.random_point(&mut rng);
            assert_eq!(g.pairing_fixed(&pre, &q), g.pairing(&gen, &q));
        }
        assert!(g.pairing_fixed(&pre, &Point::Infinity).is_one());
        // An arbitrary (non-generator) fixed point works too.
        let p = g.random_point(&mut rng);
        let pre_p = g.precompute(&p);
        let q = g.random_point(&mut rng);
        assert_eq!(g.pairing_fixed(&pre_p, &q), g.pairing(&p, &q));
    }

    #[test]
    fn fixture_pairing_bilinear_spot_check() {
        // One (slower) bilinearity check on the full 194-bit fixture.
        let g = PairingGroup::paper_fixture();
        let mut rng = ChaChaRng::seed_from_u64(13);
        let gen = g.curve().generator().clone();
        let a = g.curve().random_scalar(&mut rng);
        let pa = g.curve().mul(&a, &gen);
        let lhs = g.pairing(&pa, &gen);
        let rhs = g.fp2().pow(&g.pairing(&gen, &gen), &a);
        assert_eq!(lhs, rhs);
    }
}
