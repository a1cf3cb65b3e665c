//! Short-Weierstrass elliptic curves `y² = x³ + a·x + b` over a prime field.
//!
//! Points are exposed in affine `Ubig` coordinates ([`Point`]), and the
//! affine group law ([`Curve::add`], [`Curve::double`]) runs on the field
//! [`Fp`], one kernel call per operation. Scalar multiplication — where
//! essentially all curve time is spent (ECDSA and SOK signing/verifying) —
//! converts its points once into the Montgomery form of the field's own
//! fixed-limb kernel and runs Jacobian width-5 wNAF, Straus and Lim–Lee
//! comb evaluation there (the private `jacobian` module), with no
//! allocation or division per field operation. Signature scalars modulo
//! the subgroup order run on an [`Fp`] over that order.

use std::sync::Arc;

use egka_bigint::Ubig;
use rand::Rng;

use crate::field::Fp;
use crate::jacobian::{AnyComb, AnyEngine};
use crate::mont::{with_width, MAX_LIMBS};

/// Teeth of a [`Curve::prepare`]d point's comb: 63 entries and
/// `⌈bits/6⌉` columns. A prepared key is built for one CA and verified
/// against a dozen times or so, where 6 teeth beat both 4 (cheaper table,
/// longer walk) and 8 (shorter walk, four times the table).
pub const PREPARED_TEETH: u32 = 6;

/// An affine curve point, or the point at infinity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Point {
    /// The identity element.
    Infinity,
    /// An affine point `(x, y)`.
    Affine {
        /// x-coordinate, reduced mod `p`.
        x: Ubig,
        /// y-coordinate, reduced mod `p`.
        y: Ubig,
    },
}

impl Point {
    /// Convenience constructor.
    pub fn affine(x: Ubig, y: Ubig) -> Self {
        Point::Affine { x, y }
    }

    /// True iff this is the identity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }

    /// The affine coordinates, or `None` for infinity.
    pub fn xy(&self) -> Option<(&Ubig, &Ubig)> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, y } => Some((x, y)),
        }
    }
}

/// A point with its Lim–Lee comb, built by [`Curve::prepare`] for a point
/// that is multiplied many times (a CA key verifying certificate after
/// certificate): [`Curve::mul_gen_add`] then walks it and the
/// generator's comb together.
#[derive(Debug)]
pub struct PreparedPoint {
    point: Point,
    /// The arithmetic of the curve that built the comb.
    arith: Arc<Arith>,
    comb: AnyComb,
}

/// A short-Weierstrass curve with a distinguished prime-order subgroup.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Curve name (for display/debug).
    pub name: &'static str,
    field: Fp,
    a: Ubig,
    b: Ubig,
    /// Order of the distinguished subgroup generated by `gen`.
    order: Ubig,
    /// Cofactor `#E / order`.
    cofactor: Ubig,
    gen: Point,
    /// Fixed-limb arithmetic; clones share it, and with it the lazily
    /// built generator tables.
    arith: Arc<Arith>,
}

/// The fixed-limb machinery behind a [`Curve`].
#[derive(Debug)]
struct Arith {
    engine: AnyEngine,
    /// Arithmetic modulo the subgroup order (`None` for an even or
    /// over-wide order; only pairing-group generation's full-group curve,
    /// of even order `p + 1`, has one).
    scalars: Option<Fp>,
}

impl Curve {
    /// Builds a curve. The generator is checked to lie on the curve and to
    /// have the claimed order. The field's modulus is at most 256 bits
    /// ([`Fp::new`] refuses a wider one).
    ///
    /// # Panics
    /// Panics if the generator is off-curve or `order · gen ≠ ∞`.
    pub fn new(
        name: &'static str,
        field: Fp,
        a: Ubig,
        b: Ubig,
        order: Ubig,
        cofactor: Ubig,
        gen: Point,
    ) -> Self {
        let a = field.reduce(&a);
        let b = field.reduce(&b);
        let arith = Arc::new(Arith {
            engine: AnyEngine::new(&field, &a, &gen, &order),
            scalars: (order.is_odd() && order.bit_length() <= 64 * MAX_LIMBS as u32)
                .then(|| Fp::new(order.clone())),
        });
        let c = Curve {
            name,
            field,
            a,
            b,
            order,
            cofactor,
            gen,
            arith,
        };
        assert!(c.is_on_curve(&c.gen), "{name}: generator not on curve");
        assert!(
            c.mul_raw(&c.order, &c.gen).is_infinity(),
            "{name}: generator order mismatch"
        );
        c
    }

    /// The base field.
    pub fn field(&self) -> &Fp {
        &self.field
    }

    /// Curve coefficient `a`.
    pub fn a(&self) -> &Ubig {
        &self.a
    }

    /// Curve coefficient `b`.
    pub fn b(&self) -> &Ubig {
        &self.b
    }

    /// Subgroup order (prime).
    pub fn order(&self) -> &Ubig {
        &self.order
    }

    /// Cofactor.
    pub fn cofactor(&self) -> &Ubig {
        &self.cofactor
    }

    /// The subgroup generator.
    pub fn generator(&self) -> &Point {
        &self.gen
    }

    /// Membership test (infinity counts as on-curve).
    pub fn is_on_curve(&self, pt: &Point) -> bool {
        match pt {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let f = &self.field;
                let lhs = f.sqr(y);
                let rhs = f.add(&f.add(&f.mul(&f.sqr(x), x), &f.mul(&self.a, x)), &self.b);
                lhs == rhs
            }
        }
    }

    /// Point negation.
    pub fn neg(&self, pt: &Point) -> Point {
        match pt {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::Affine {
                x: x.clone(),
                y: self.field.neg(y),
            },
        }
    }

    /// Affine point addition (handles all special cases).
    pub fn add(&self, p: &Point, q: &Point) -> Point {
        let f = &self.field;
        let ((x1, y1), (x2, y2)) = match (p.xy(), q.xy()) {
            (None, _) => return q.clone(),
            (_, None) => return p.clone(),
            (Some(p), Some(q)) => (p, q),
        };
        if x1 == x2 {
            return if y1 == y2 && !y1.is_zero() {
                self.double(p)
            } else {
                // P + (-P) = ∞ (covers y1 = -y2, and the 2-torsion y = 0 case)
                Point::Infinity
            };
        }
        let lambda = f.mul(
            &f.sub(y2, y1),
            &f.inv(&f.sub(x2, x1))
                .expect("x2 != x1 so the difference is invertible"),
        );
        let x3 = f.sub(&f.sub(&f.sqr(&lambda), x1), x2);
        let y3 = f.sub(&f.mul(&lambda, &f.sub(x1, &x3)), y1);
        Point::Affine { x: x3, y: y3 }
    }

    /// Affine point doubling.
    pub fn double(&self, p: &Point) -> Point {
        let f = &self.field;
        let (x, y) = match p.xy() {
            None => return Point::Infinity,
            Some(xy) => xy,
        };
        if y.is_zero() {
            return Point::Infinity; // 2-torsion
        }
        // λ = (3x² + a) / 2y
        let num = f.add(&f.mul_u64(&f.sqr(x), 3), &self.a);
        let den = f.inv(&f.mul_u64(y, 2)).expect("y != 0");
        let lambda = f.mul(&num, &den);
        let x3 = f.sub(&f.sub(&f.sqr(&lambda), x), x);
        let y3 = f.sub(&f.mul(&lambda, &f.sub(x, &x3)), y);
        Point::Affine { x: x3, y: y3 }
    }

    /// Scalar multiplication `k · p` (width-5 wNAF). The scalar is reduced
    /// modulo the subgroup order first (every honest input lies in the
    /// subgroup); use [`Curve::mul_raw`] for membership checks where that
    /// reduction would be circular.
    pub fn mul(&self, k: &Ubig, p: &Point) -> Point {
        self.mul_raw(&k.rem_ref(&self.order), p)
    }

    /// Scalar multiplication without reducing `k` modulo the subgroup order.
    ///
    /// Needed to *verify* subgroup membership (`order · P = ∞`): reducing
    /// first would turn that check into `0 · P = ∞`, which holds for any
    /// point. Used by the constructor's generator check and by signature
    /// verifiers validating attacker-supplied points.
    pub fn mul_raw(&self, k: &Ubig, p: &Point) -> Point {
        with_width!(&self.arith.engine, e => e.mul_multi(&self.gen, &[(k, p)]))
    }

    /// `k1·P + k2·Q` (used by ECDSA verification): interleaved width-4
    /// wNAF (Straus), both scalars sharing one doubling chain.
    pub fn mul_mul_add(&self, k1: &Ubig, p: &Point, k2: &Ubig, q: &Point) -> Point {
        self.mul_multi(&[(k1, p), (k2, q)])
    }

    /// `Σ kᵢ·Pᵢ` — Straus' interleaved multi-scalar multiplication: one
    /// shared doubling chain, per-term width-5 wNAF digit streams and
    /// odd-multiples tables (the generator's is cached). Scalars are
    /// reduced modulo the subgroup order.
    pub fn mul_multi(&self, terms: &[(&Ubig, &Point)]) -> Point {
        let reduced: Vec<Ubig> = terms.iter().map(|(k, _)| k.rem_ref(&self.order)).collect();
        let terms: Vec<(&Ubig, &Point)> = reduced.iter().zip(terms.iter().map(|t| t.1)).collect();
        with_width!(&self.arith.engine, e => e.mul_multi(&self.gen, &terms))
    }

    /// `k · G` for the distinguished generator, via a lazily built (and
    /// clone-shared) Lim–Lee comb: `⌈bits/8⌉` doublings + as many mixed
    /// additions instead of a full wNAF walk.
    pub fn mul_gen(&self, k: &Ubig) -> Point {
        self.arith.engine.mul_gen(&k.rem_ref(&self.order))
    }

    /// Builds `q`'s comb, for [`Curve::mul_gen_add`]. On secp160r1 it
    /// costs about one [`Curve::mul_mul_add`], and each `mul_gen_add`
    /// after it about a third of one.
    pub fn prepare(&self, q: &Point) -> PreparedPoint {
        self.prepare_teeth(q, PREPARED_TEETH)
    }

    /// [`Curve::prepare`] with a comb of `teeth` teeth: `2^teeth − 1`
    /// entries and `⌈bits/teeth⌉` columns. Fewer teeth build a smaller
    /// table, faster, and walk more columns per multiplication.
    ///
    /// # Panics
    /// Panics unless `1 ≤ teeth ≤ 8`.
    pub fn prepare_teeth(&self, q: &Point, teeth: u32) -> PreparedPoint {
        assert!((1..=8).contains(&teeth), "a comb has 1 to 8 teeth");
        PreparedPoint {
            point: q.clone(),
            arith: Arc::clone(&self.arith),
            comb: self.arith.engine.prepare(q, teeth),
        }
    }

    /// `u1·G + u2·Q` (ECDSA verification under a prepared key): one column
    /// walk over the generator's and `Q`'s combs, sharing one doubling
    /// chain. Scalars are reduced modulo the subgroup order. A point
    /// prepared by another curve is multiplied by [`Curve::mul_mul_add`].
    pub fn mul_gen_add(&self, u1: &Ubig, u2: &Ubig, q: &PreparedPoint) -> Point {
        if !Arc::ptr_eq(&self.arith, &q.arith) {
            return self.mul_mul_add(u1, &self.gen, u2, &q.point);
        }
        let (u1, u2) = (u1.rem_ref(&self.order), u2.rem_ref(&self.order));
        self.arith.engine.mul_gen_add(&u1, &u2, &q.comb)
    }

    /// `a · b mod order`, for signature scalars.
    ///
    /// # Panics
    /// Panics if the subgroup order is even or wider than 256 bits.
    pub fn scalar_mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.scalars().mul(a, b)
    }

    /// `a⁻¹ mod order`, or `None` for `a ≡ 0` (or, for a composite
    /// order, any non-unit).
    ///
    /// # Panics
    /// Panics if the subgroup order is even or wider than 256 bits.
    pub fn scalar_inv(&self, a: &Ubig) -> Option<Ubig> {
        self.scalars().inv(a)
    }

    /// `a · bʳ mod p` by `rounds` chained multiplications in the
    /// fixed-limb Montgomery field that scalar multiplication runs on (one
    /// conversion in and one out). It exists so `bench_primitives` can time
    /// that kernel against `Ubig` multiply-and-reduce.
    #[doc(hidden)]
    pub fn field_mul_chain(&self, a: &Ubig, b: &Ubig, rounds: u32) -> Ubig {
        with_width!(self.field.kernel(), k => k.mul_chain(a, b, rounds))
    }

    /// True when `other` shares this curve's fixed-limb arithmetic, and
    /// with it the generator's tables.
    #[cfg(test)]
    pub(crate) fn shares_arith(&self, other: &Curve) -> bool {
        Arc::ptr_eq(&self.arith, &other.arith)
    }

    fn scalars(&self) -> &Fp {
        self.arith
            .scalars
            .as_ref()
            .expect("scalar arithmetic needs an odd prime subgroup order of ≤ 256 bits")
    }

    /// Uniformly random scalar in `[1, order)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        loop {
            let k = egka_bigint::random_below(rng, &self.order);
            if !k.is_zero() {
                return k;
            }
        }
    }

    /// Compressed encoding: `02/03 || x` (SEC1), `00` for infinity.
    pub fn compress(&self, p: &Point) -> Vec<u8> {
        match p {
            Point::Infinity => vec![0u8],
            Point::Affine { x, y } => {
                let mut out = Vec::with_capacity(1 + self.field.byte_len());
                out.push(if y.is_odd() { 3 } else { 2 });
                out.extend_from_slice(&x.to_bytes_be_padded(self.field.byte_len()));
                out
            }
        }
    }

    /// Inverse of [`Curve::compress`]. Requires `p ≡ 3 (mod 4)` for the
    /// square root; returns `None` on malformed input or off-curve x.
    pub fn decompress(&self, bytes: &[u8]) -> Option<Point> {
        if bytes == [0u8] {
            return Some(Point::Infinity);
        }
        if bytes.len() != 1 + self.field.byte_len() || (bytes[0] != 2 && bytes[0] != 3) {
            return None;
        }
        let f = &self.field;
        let x = Ubig::from_bytes_be(&bytes[1..]);
        if &x >= f.modulus() {
            return None;
        }
        let rhs = f.add(&f.add(&f.mul(&f.sqr(&x), &x), &f.mul(&self.a, &x)), &self.b);
        let mut y = f.sqrt(&rhs)?;
        if y.is_odd() != (bytes[0] == 3) {
            y = f.neg(&y);
        }
        Some(Point::Affine { x, y })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Fp;

    /// Tiny curve for exhaustive checks: y² = x³ + 2x + 3 over F_97.
    /// Brute-force group order = 100 = 4 · 25; (3, 6) generates a subgroup
    /// of order 5 — small enough to enumerate by hand below.
    fn tiny() -> Curve {
        // Build by brute force: find the subgroup structure in the test.
        // y² = x³ + x + 1 over F_19: order 21 (known small example), gen (0,1), order 21.
        // Verify in-test by exhaustion instead of trusting the comment.
        let f = Fp::new(Ubig::from_u64(19)); // 19 ≡ 3 mod 4
        Curve::new(
            "tiny19",
            f,
            Ubig::from_u64(1),
            Ubig::from_u64(1),
            Ubig::from_u64(21),
            Ubig::from_u64(1),
            Point::affine(Ubig::from_u64(0), Ubig::from_u64(1)),
        )
    }

    fn enumerate_points(c: &Curve) -> Vec<Point> {
        let p = c.field().modulus().to_u64().unwrap();
        let mut pts = vec![Point::Infinity];
        for x in 0..p {
            for y in 0..p {
                let pt = Point::affine(Ubig::from_u64(x), Ubig::from_u64(y));
                if c.is_on_curve(&pt) {
                    pts.push(pt);
                }
            }
        }
        pts
    }

    #[test]
    fn tiny_curve_group_order_is_21() {
        let c = tiny();
        assert_eq!(enumerate_points(&c).len(), 21);
    }

    #[test]
    fn addition_is_closed_and_commutative() {
        let c = tiny();
        let pts = enumerate_points(&c);
        for p in &pts {
            for q in &pts {
                let s1 = c.add(p, q);
                let s2 = c.add(q, p);
                assert!(c.is_on_curve(&s1));
                assert_eq!(s1, s2);
            }
        }
    }

    #[test]
    fn addition_is_associative_on_sample() {
        let c = tiny();
        let pts = enumerate_points(&c);
        for (i, p) in pts.iter().enumerate() {
            for (j, q) in pts.iter().enumerate() {
                if (i + j) % 3 != 0 {
                    continue; // sample to keep the O(n³) check fast
                }
                for r in &pts {
                    assert_eq!(c.add(&c.add(p, q), r), c.add(p, &c.add(q, r)));
                }
            }
        }
    }

    #[test]
    fn neg_is_inverse() {
        let c = tiny();
        for p in enumerate_points(&c) {
            assert!(c.add(&p, &c.neg(&p)).is_infinity());
        }
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let c = tiny();
        let g = c.generator().clone();
        let mut acc = Point::Infinity;
        for k in 0..=42u64 {
            assert_eq!(c.mul(&Ubig::from_u64(k), &g), acc, "k = {k}");
            acc = c.add(&acc, &g);
        }
    }

    #[test]
    fn generator_has_order_21() {
        let c = tiny();
        assert!(c.mul_raw(&Ubig::from_u64(21), c.generator()).is_infinity());
        for k in 1..21u64 {
            assert!(
                !c.mul_raw(&Ubig::from_u64(k), c.generator()).is_infinity(),
                "order divides {k}?"
            );
        }
    }

    #[test]
    fn mul_reduces_but_mul_raw_does_not_hide_order() {
        let c = tiny();
        let g = c.generator().clone();
        // 22 ≡ 1 (mod 21): reducing multiply gives G back.
        assert_eq!(c.mul(&Ubig::from_u64(22), &g), g);
        // mul_raw walks the full scalar and agrees (22·G = G in the group).
        assert_eq!(c.mul_raw(&Ubig::from_u64(22), &g), g);
    }

    #[test]
    fn mul_mul_add_matches_separate() {
        let c = tiny();
        let g = c.generator().clone();
        let q = c.mul(&Ubig::from_u64(5), &g);
        for k1 in 0..10u64 {
            for k2 in 0..10u64 {
                let fused = c.mul_mul_add(&Ubig::from_u64(k1), &g, &Ubig::from_u64(k2), &q);
                let split = c.add(
                    &c.mul(&Ubig::from_u64(k1), &g),
                    &c.mul(&Ubig::from_u64(k2), &q),
                );
                assert_eq!(fused, split, "k1={k1} k2={k2}");
            }
        }
    }

    /// `k · p` by textbook MSB-first affine double-and-add on the `Ubig`
    /// field — an oracle independent of the fixed-limb engine.
    fn naive_mul(c: &Curve, k: &Ubig, p: &Point) -> Point {
        let mut acc = Point::Infinity;
        for i in (0..k.bit_length()).rev() {
            acc = c.double(&acc);
            if k.bit(i) {
                acc = c.add(&acc, p);
            }
        }
        acc
    }

    #[test]
    fn secp160r1_scalars_at_and_above_2_pow_160() {
        let c = crate::secp160r1();
        let n = c.order().clone(); // 161 bits: just above 2^160
        let g = c.generator().clone();
        let p = c.mul_gen(&Ubig::from_u64(7));
        let two = |e: u32| Ubig::one().shl_bits(e);
        let one = Ubig::one();
        let scalars = [
            two(160),
            two(160).add_ref(&one),
            n.checked_sub(&one).unwrap(),
            n.clone(),
            n.add_ref(&one),
            two(161).checked_sub(&one).unwrap(),
            two(200).add_ref(&Ubig::from_u64(3)),
            two(300).add_ref(&Ubig::from_u64(7)), // five limbs
        ];
        for k in &scalars {
            let reduced = k.rem_ref(&n);
            for base in [&g, &p] {
                let want = naive_mul(&c, &reduced, base);
                assert_eq!(c.mul(k, base), want, "mul, k = {k}");
                // Both bases have order n, so the unreduced walk agrees.
                assert_eq!(c.mul_raw(k, base), want, "mul_raw, k = {k}");
            }
            assert_eq!(
                c.mul_gen(k),
                naive_mul(&c, &reduced, &g),
                "mul_gen, k = {k}"
            );
        }
    }

    /// `y² = x³ + 2x + 3` over `F_97`: 100 points, with `(3, 6)` generating
    /// the order-5 subgroup (cofactor 20), so most points lie outside it.
    fn tiny97() -> Curve {
        Curve::new(
            "tiny97",
            Fp::new(Ubig::from_u64(97)),
            Ubig::from_u64(2),
            Ubig::from_u64(3),
            Ubig::from_u64(5),
            Ubig::from_u64(20),
            Point::affine(Ubig::from_u64(3), Ubig::from_u64(6)),
        )
    }

    #[test]
    fn mul_raw_order_exposes_points_outside_the_subgroup() {
        let c = tiny97();
        let pts = enumerate_points(&c);
        assert_eq!(pts.len(), 100);
        let mut outside = 0;
        for p in &pts {
            let raw = c.mul_raw(c.order(), p);
            assert_eq!(raw, naive_mul(&c, c.order(), p));
            // Reducing the scalar first would make every point look fine.
            assert!(c.mul(c.order(), p).is_infinity());
            if !raw.is_infinity() {
                outside += 1;
            }
        }
        assert_eq!(outside, 95, "only the 5 subgroup points satisfy 5·P = ∞");
    }

    #[test]
    fn window_tables_of_small_order_points_match_double_and_add() {
        // Points of order 2, 4 and 5 make the odd-multiples chain add a
        // point to itself or to its negation; scalars up to 70 use every
        // table entry, negative digits and the final wNAF carry.
        let c = tiny97();
        for p in enumerate_points(&c) {
            for k in 0..=70u64 {
                let k = Ubig::from_u64(k);
                assert_eq!(c.mul_raw(&k, &p), naive_mul(&c, &k, &p), "k = {k}, {p:?}");
            }
        }
    }

    #[test]
    fn mul_multi_with_repeated_and_cancelling_terms_matches_separate() {
        for c in [tiny(), crate::secp160r1()] {
            let g = c.generator().clone();
            let neg_g = c.neg(&g);
            let p = c.mul_gen(&Ubig::from_u64(11));
            let k = Ubig::from_u64(123_456_789).rem_ref(c.order());
            let minus_k = c.order().checked_sub(&k).unwrap();
            let three = Ubig::from_u64(3);
            let cases: [&[(&Ubig, &Point)]; 5] = [
                &[(&k, &p), (&k, &p)],
                &[(&k, &p), (&minus_k, &p)],
                &[(&k, &g), (&k, &neg_g)],
                &[(&k, &g), (&three, &p), (&k, &g), (&k, &Point::Infinity)],
                &[(&k, &p), (&k, &p), (&k, &p), (&minus_k, &p), (&minus_k, &p)],
            ];
            for terms in cases {
                let want = terms
                    .iter()
                    .fold(Point::Infinity, |acc, (k, q)| c.add(&acc, &c.mul(k, q)));
                assert_eq!(c.mul_multi(terms), want, "{}: {terms:?}", c.name);
            }
        }
    }

    #[test]
    fn comb_walk_matches_mul_mul_add() {
        // tiny and tiny97 have one-column combs whose tables hold ∞, and
        // tiny97's points mostly lie outside the order-5 subgroup.
        for c in [tiny(), tiny97(), crate::secp160r1(), crate::secp256k1()] {
            let g = c.generator().clone();
            let n = c.order().clone();
            let one = Ubig::one();
            let mut scalars = vec![
                Ubig::zero(),
                one.clone(),
                Ubig::from_u64(2),
                n.checked_sub(&one).unwrap(),
                n.clone(),
            ];
            let points = if n.bit_length() < 8 {
                enumerate_points(&c)
            } else {
                let k = Ubig::from_u64(0x1234_5678_9abc_def1).shl_bits(90);
                scalars.push(k.rem_ref(&n));
                vec![g.clone(), c.neg(&g), c.mul_gen(&k), Point::Infinity]
            };
            for q in &points {
                let prepared = c.prepare(q);
                for u1 in &scalars {
                    for u2 in &scalars {
                        assert_eq!(
                            c.mul_gen_add(u1, u2, &prepared),
                            c.mul_mul_add(u1, &g, u2, q),
                            "{}: u1 = {u1}, u2 = {u2}, Q = {q:?}",
                            c.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_point_prepared_by_another_curve_is_still_multiplied_right() {
        let (c, other) = (tiny(), tiny());
        assert!(!c.shares_arith(&other));
        let q = c.mul_gen(&Ubig::from_u64(4));
        let prepared = other.prepare(&q);
        for k in 0..21u64 {
            let k = Ubig::from_u64(k);
            assert_eq!(
                c.mul_gen_add(&k, &Ubig::from_u64(3), &prepared),
                c.mul_mul_add(&k, c.generator(), &Ubig::from_u64(3), &q)
            );
        }
    }

    #[test]
    fn compress_roundtrip() {
        let c = tiny();
        for p in enumerate_points(&c) {
            let bytes = c.compress(&p);
            assert_eq!(c.decompress(&bytes), Some(p));
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        let c = tiny();
        assert_eq!(c.decompress(&[9, 9, 9]), None);
        // x = 4: rhs = 64 + 4 + 1 = 69 ≡ 12 (mod 19); 12 is a QR mod 19? 12 = 5²=25≡6,
        // squares mod 19: {1,4,9,16,6,17,11,7,5,0}; 12 is not → decompress fails.
        assert_eq!(c.decompress(&[2, 4]), None);
    }
}
