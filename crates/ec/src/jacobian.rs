//! The scalar-multiplication engine: Jacobian point arithmetic on
//! fixed-limb Montgomery coordinates, in the curve field's own kernel
//! ([`crate::field::Fp`]).
//!
//! [`crate::curve::Curve`] converts affine `Ubig` points in once, runs every
//! doubling and addition here without allocating or dividing, and converts
//! the result out once. Window tables are built in Jacobian form and
//! normalized with one batched inversion (Montgomery's trick). The
//! generator's Lim–Lee comb and its wNAF window table are built lazily,
//! once per curve; a comb for any other point is built on request
//! ([`AnyEngine::prepare`]) and walked together with the generator's.

use std::sync::OnceLock;

use egka_bigint::Ubig;

use crate::curve::Point;
use crate::field::Fp;
use crate::mont::{with_width, Fe, MontField, Width};

/// An affine point (never the identity).
#[derive(Clone, Copy, Debug)]
struct Aff<const N: usize> {
    x: Fe<N>,
    y: Fe<N>,
}

/// Jacobian coordinates `(X : Y : Z)` representing `(X/Z², Y/Z³)`.
#[derive(Clone, Copy, Debug)]
struct Jac<const N: usize> {
    x: Fe<N>,
    y: Fe<N>,
    z: Fe<N>, // zero ⇔ infinity
}

impl<const N: usize> Jac<N> {
    const INFINITY: Self = Jac {
        x: Fe::ZERO,
        y: Fe::ZERO,
        z: Fe::ZERO,
    };
}

/// Width-5 wNAF window table: `P, 3P, …, 15P`, `None` where a multiple is
/// `∞` (tiny curves only). Negative digits negate `y` on the fly.
type OddTable<const N: usize> = [Option<Aff<N>>; 8];

/// Lim–Lee comb for a point `P`: the scalar is viewed as `teeth` rows of
/// `cols` bits, and `table[t - 1] = (Σ_{j ∈ t} 2^{j·cols}) · P` for every
/// non-empty tooth subset `t` (`None` where that is `∞`; the table of `∞`
/// is empty). Evaluation is `cols` doublings + at most `cols` mixed
/// additions — roughly `teeth`× fewer doublings than a wNAF walk.
#[derive(Debug)]
pub(crate) struct Comb<const N: usize> {
    teeth: u32,
    cols: u32,
    table: Vec<Option<Aff<N>>>,
}

impl<const N: usize> Comb<N> {
    /// The entry column `col` of the scalar `k` selects, `None` for an
    /// all-zero column or an `∞` entry.
    fn entry(&self, k: &[u64], col: u32) -> Option<&Aff<N>> {
        let bit = |i: u32| {
            k.get((i / 64) as usize)
                .is_some_and(|limb| (limb >> (i % 64)) & 1 == 1)
        };
        let t = (0..self.teeth)
            .filter(|&j| bit(j * self.cols + col))
            .fold(0usize, |t, j| t | 1 << j);
        self.table.get(t.checked_sub(1)?)?.as_ref()
    }
}

/// Teeth of the generator's comb. It is built once per curve, so it takes
/// the widest table that still pays: 255 entries, `⌈bits/8⌉` columns.
const GEN_TEETH: u32 = 8;

/// Curve arithmetic over an `N`-limb field.
#[derive(Debug)]
pub(crate) struct Engine<const N: usize> {
    f: MontField<N>,
    a: Fe<N>,
    /// True when `a ≡ −3 (mod p)`, enabling the faster doubling formula.
    a_is_minus_3: bool,
    /// The distinguished generator, `None` if it is `∞`.
    gen: Option<Aff<N>>,
    /// Bits of the subgroup order (the comb's row length).
    order_bits: u32,
    gen_comb: OnceLock<Comb<N>>,
    gen_odd: OnceLock<OddTable<N>>,
}

/// The engine at whichever limb width the curve's field needs.
pub(crate) type AnyEngine = Width<Engine<1>, Engine<2>, Engine<3>, Engine<4>>;

/// A comb at whichever limb width its curve's field needs.
pub(crate) type AnyComb = Width<Comb<1>, Comb<2>, Comb<3>, Comb<4>>;

impl AnyEngine {
    /// Builds the engine for `y² = x³ + a·x + b` over `field`, on a
    /// clone of the field's kernel (the `b` coefficient never enters the
    /// addition formulas; `a` is reduced).
    pub(crate) fn new(field: &Fp, a: &Ubig, gen: &Point, order: &Ubig) -> Self {
        match field.kernel() {
            Width::W1(f) => Width::W1(Engine::new(f.clone(), a, gen, order)),
            Width::W2(f) => Width::W2(Engine::new(f.clone(), a, gen, order)),
            Width::W3(f) => Width::W3(Engine::new(f.clone(), a, gen, order)),
            Width::W4(f) => Width::W4(Engine::new(f.clone(), a, gen, order)),
        }
    }

    /// The `teeth`-tooth comb of `p`.
    pub(crate) fn prepare(&self, p: &Point, teeth: u32) -> AnyComb {
        match self {
            Width::W1(e) => Width::W1(e.build_comb(e.point_in(p), teeth)),
            Width::W2(e) => Width::W2(e.build_comb(e.point_in(p), teeth)),
            Width::W3(e) => Width::W3(e.build_comb(e.point_in(p), teeth)),
            Width::W4(e) => Width::W4(e.build_comb(e.point_in(p), teeth)),
        }
    }

    /// `u1·G + u2·Q` for `Q`'s comb, built by [`AnyEngine::prepare`] on
    /// this engine; scalars below the order.
    pub(crate) fn mul_gen_add(&self, u1: &Ubig, u2: &Ubig, q: &AnyComb) -> Point {
        match (self, q) {
            (Width::W1(e), Width::W1(q)) => e.mul_gen_add(u1, u2, q),
            (Width::W2(e), Width::W2(q)) => e.mul_gen_add(u1, u2, q),
            (Width::W3(e), Width::W3(q)) => e.mul_gen_add(u1, u2, q),
            (Width::W4(e), Width::W4(q)) => e.mul_gen_add(u1, u2, q),
            _ => unreachable!("a comb is walked by the engine that built it"),
        }
    }

    /// `k·G` through the generator's comb, for `k` below the order.
    pub(crate) fn mul_gen(&self, k: &Ubig) -> Point {
        with_width!(self, e => e.comb_sum(&[(e.gen_comb(), k.limbs())]))
    }
}

impl<const N: usize> Engine<N> {
    fn new(f: MontField<N>, a: &Ubig, gen: &Point, order: &Ubig) -> Self {
        let a = f.to_mont(a);
        let a_is_minus_3 = f.add(&a, &f.to_mont(&Ubig::from_u64(3))).is_zero();
        let mut e = Engine {
            a,
            f,
            a_is_minus_3,
            gen: None,
            order_bits: order.bit_length().max(1),
            gen_comb: OnceLock::new(),
            gen_odd: OnceLock::new(),
        };
        e.gen = e.point_in(gen);
        e
    }

    fn point_in(&self, p: &Point) -> Option<Aff<N>> {
        p.xy().map(|(x, y)| Aff {
            x: self.f.to_mont(x),
            y: self.f.to_mont(y),
        })
    }

    fn jac(&self, p: &Aff<N>) -> Jac<N> {
        Jac {
            x: p.x,
            y: p.y,
            z: self.f.one(),
        }
    }

    /// Affine forms of `pts` with a single field inversion.
    fn normalize(&self, pts: &[Jac<N>]) -> Vec<Option<Aff<N>>> {
        let f = &self.f;
        // prefix[i] = product of the non-zero z among pts[..=i].
        let mut prefix = Vec::with_capacity(pts.len());
        let mut acc = f.one();
        for p in pts {
            if !p.z.is_zero() {
                acc = f.mul(&acc, &p.z);
            }
            prefix.push(acc);
        }
        let mut inv = f.inv(&acc).expect("a product of non-zero z is non-zero");
        let mut out = vec![None; pts.len()];
        for (i, p) in pts.iter().enumerate().rev() {
            if p.z.is_zero() {
                continue;
            }
            // inv = (z_0 ⋯ z_i)⁻¹ here, so z_i⁻¹ = inv · (z_0 ⋯ z_{i−1}).
            let zinv = if i == 0 {
                inv
            } else {
                f.mul(&inv, &prefix[i - 1])
            };
            inv = f.mul(&inv, &p.z);
            let zinv2 = f.sqr(&zinv);
            out[i] = Some(Aff {
                x: f.mul(&p.x, &zinv2),
                y: f.mul(&p.y, &f.mul(&zinv2, &zinv)),
            });
        }
        out
    }

    fn point_out(&self, p: &Jac<N>) -> Point {
        match self.normalize(std::slice::from_ref(p))[0] {
            None => Point::Infinity,
            Some(q) => Point::Affine {
                x: self.f.to_ubig(&q.x),
                y: self.f.to_ubig(&q.y),
            },
        }
    }

    /// Jacobian doubling ("dbl-2007-bl" shape; the `a = -3` fast path folds
    /// the `a·Z⁴` term into a product of sums).
    fn double(&self, p: &Jac<N>) -> Jac<N> {
        let f = &self.f;
        if p.z.is_zero() || p.y.is_zero() {
            return Jac::INFINITY;
        }
        let xx = f.sqr(&p.x);
        let yy = f.sqr(&p.y);
        let yyyy = f.sqr(&yy);
        let zz = f.sqr(&p.z);
        // S = 2·((X+YY)² − XX − YYYY)
        let s = {
            let t = f.sub(&f.sub(&f.sqr(&f.add(&p.x, &yy)), &xx), &yyyy);
            f.add(&t, &t)
        };
        // M = 3·XX + a·ZZ²
        let m = if self.a_is_minus_3 {
            // 3·(X−ZZ)(X+ZZ)
            let t = f.mul(&f.sub(&p.x, &zz), &f.add(&p.x, &zz));
            f.add(&f.add(&t, &t), &t)
        } else {
            f.add(&f.add(&f.add(&xx, &xx), &xx), &f.mul(&self.a, &f.sqr(&zz)))
        };
        let x = f.sub(&f.sqr(&m), &f.add(&s, &s));
        let yyyy8 = {
            let t = f.add(&yyyy, &yyyy);
            let t = f.add(&t, &t);
            f.add(&t, &t)
        };
        let y = f.sub(&f.mul(&m, &f.sub(&s, &x)), &yyyy8);
        let z = f.sub(&f.sub(&f.sqr(&f.add(&p.y, &p.z)), &yy), &zz);
        Jac { x, y, z }
    }

    /// Mixed addition `p + q` with `q` affine (`Z = 1`).
    fn add_affine(&self, p: &Jac<N>, q: &Aff<N>) -> Jac<N> {
        let f = &self.f;
        if p.z.is_zero() {
            return self.jac(q);
        }
        let zz = f.sqr(&p.z);
        let u2 = f.mul(&q.x, &zz);
        let s2 = f.mul(&q.y, &f.mul(&zz, &p.z));
        let h = f.sub(&u2, &p.x);
        let r = f.sub(&s2, &p.y);
        if h.is_zero() {
            return if r.is_zero() {
                self.double(p)
            } else {
                Jac::INFINITY
            };
        }
        let hh = f.sqr(&h);
        let hhh = f.mul(&hh, &h);
        let v = f.mul(&p.x, &hh);
        let x = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.add(&v, &v));
        let y = f.sub(&f.mul(&r, &f.sub(&v, &x)), &f.mul(&p.y, &hhh));
        let z = f.mul(&p.z, &h);
        Jac { x, y, z }
    }

    /// General Jacobian addition `p + q` ("add-2007-bl" shape).
    fn add(&self, p: &Jac<N>, q: &Jac<N>) -> Jac<N> {
        let f = &self.f;
        if p.z.is_zero() {
            return *q;
        }
        if q.z.is_zero() {
            return *p;
        }
        let z1z1 = f.sqr(&p.z);
        let z2z2 = f.sqr(&q.z);
        let u1 = f.mul(&p.x, &z2z2);
        let u2 = f.mul(&q.x, &z1z1);
        let s1 = f.mul(&p.y, &f.mul(&q.z, &z2z2));
        let s2 = f.mul(&q.y, &f.mul(&p.z, &z1z1));
        let h = f.sub(&u2, &u1);
        let r = f.sub(&s2, &s1);
        if h.is_zero() {
            return if r.is_zero() {
                self.double(p)
            } else {
                Jac::INFINITY
            };
        }
        let hh = f.sqr(&h);
        let hhh = f.mul(&hh, &h);
        let v = f.mul(&u1, &hh);
        let x = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.add(&v, &v));
        let y = f.sub(&f.mul(&r, &f.sub(&v, &x)), &f.mul(&s1, &hhh));
        let z = f.mul(&f.mul(&p.z, &q.z), &h);
        Jac { x, y, z }
    }

    /// `P, 3P, …, 15P`, chained in Jacobian form and normalized together.
    fn odd_multiples(&self, p: &Aff<N>) -> OddTable<N> {
        let first = self.jac(p);
        let two_p = self.double(&first);
        let mut chain = [first; 8];
        for i in 1..8 {
            chain[i] = self.add(&chain[i - 1], &two_p);
        }
        self.normalize(&chain)
            .try_into()
            .expect("normalize keeps the length")
    }

    /// `Σ kᵢ·Pᵢ` — Straus' interleaved multi-scalar multiplication: one
    /// shared doubling chain, per-term width-5 wNAF digit streams and
    /// odd-multiples tables (the generator's table is cached). Scalars are
    /// used as given, unreduced.
    pub(crate) fn mul_multi(&self, gen: &Point, terms: &[(&Ubig, &Point)]) -> Point {
        let mut streams = Vec::with_capacity(terms.len());
        for &(k, p) in terms {
            if k.is_zero() {
                continue;
            }
            let table = match self.gen {
                Some(g) if p == gen => *self.gen_odd.get_or_init(|| self.odd_multiples(&g)),
                _ => match self.point_in(p) {
                    Some(q) => self.odd_multiples(&q),
                    None => continue,
                },
            };
            streams.push((wnaf(k.limbs()), table));
        }
        let longest = streams.iter().map(|(naf, _)| naf.len()).max().unwrap_or(0);
        let mut acc = Jac::INFINITY;
        for i in (0..longest).rev() {
            acc = self.double(&acc);
            for (naf, table) in &streams {
                let digit = naf.get(i).copied().unwrap_or(0);
                if digit == 0 {
                    continue;
                }
                if let Some(q) = table[(digit.unsigned_abs() as usize - 1) / 2] {
                    let q = if digit > 0 {
                        q
                    } else {
                        Aff {
                            x: q.x,
                            y: self.f.neg(&q.y),
                        }
                    };
                    acc = self.add_affine(&acc, &q);
                }
            }
        }
        self.point_out(&acc)
    }

    fn mul_gen_add(&self, u1: &Ubig, u2: &Ubig, q: &Comb<N>) -> Point {
        self.comb_sum(&[(self.gen_comb(), u1.limbs()), (q, u2.limbs())])
    }

    /// The generator's comb, built on first use.
    fn gen_comb(&self) -> &Comb<N> {
        self.gen_comb
            .get_or_init(|| self.build_comb(self.gen, GEN_TEETH))
    }

    /// `Σ kᵢ·Pᵢ` over the combs of the `Pᵢ` as one column walk: one
    /// doubling chain as long as the longest comb, and each comb adds in
    /// its own last `cols` columns. Each scalar must fit its comb's
    /// `teeth · cols` bits, as any scalar below the order does.
    fn comb_sum(&self, terms: &[(&Comb<N>, &[u64])]) -> Point {
        let cols = terms.iter().map(|(comb, _)| comb.cols).max().unwrap_or(0);
        let mut acc = Jac::INFINITY;
        for col in (0..cols).rev() {
            acc = self.double(&acc);
            for (comb, k) in terms.iter().filter(|(comb, _)| col < comb.cols) {
                if let Some(q) = comb.entry(k, col) {
                    acc = self.add_affine(&acc, q);
                }
            }
        }
        self.point_out(&acc)
    }

    fn build_comb(&self, p: Option<Aff<N>>, teeth: u32) -> Comb<N> {
        let cols = self.order_bits.div_ceil(teeth);
        let Some(p) = p else {
            return Comb {
                teeth,
                cols,
                table: Vec::new(),
            };
        };
        // powers[j] = 2^(j·cols) · P
        let mut powers = Vec::with_capacity(teeth as usize);
        powers.push(self.jac(&p));
        for j in 1..teeth as usize {
            let mut q = powers[j - 1];
            for _ in 0..cols {
                q = self.double(&q);
            }
            powers.push(q);
        }
        // Subset sums, each built from a smaller subset with one addition.
        let mut table: Vec<Jac<N>> = Vec::with_capacity((1 << teeth) - 1);
        for t in 1usize..(1 << teeth) {
            let low = t.trailing_zeros() as usize;
            let rest = t & (t - 1);
            let entry = if rest == 0 {
                powers[low]
            } else {
                self.add(&table[rest - 1], &powers[low])
            };
            table.push(entry);
        }
        Comb {
            teeth,
            cols,
            table: self.normalize(&table),
        }
    }
}

/// Width-5 non-adjacent form of the little-endian limbs `k`, least
/// significant digit first, trailing zeros trimmed. Digits are odd in
/// `[−15, 15]` (one [`OddTable`] entry each) or zero, and any nonzero
/// digit is followed by at least four zeros.
fn wnaf(k: &[u64]) -> Vec<i8> {
    const W: usize = 5;
    let bits = k
        .iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |top| 64 * (top + 1) - k[top].leading_zeros() as usize);
    let bit = |i: usize| k.get(i / 64).map_or(0, |limb| (limb >> (i % 64)) & 1);
    // One extra position absorbs the final carry.
    let mut out = vec![0i8; bits + 1];
    let mut carry = 0u64;
    let mut i = 0;
    while i <= bits {
        if bit(i) == carry {
            // bit + carry is 0 or 2: digit 0, carry unchanged.
            i += 1;
            continue;
        }
        // bit + carry = 1: take a W-bit odd window and signed-round it.
        let mut window = carry;
        for b in 0..W {
            window += bit(i + b) << b;
        }
        carry = window >> (W - 1);
        out[i] = (window as i64 - ((carry as i64) << W)) as i8;
        i += W;
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wnaf_reconstructs_value() {
        let samples: [&[u64]; 11] = [
            &[1],
            &[2],
            &[3],
            &[7],
            &[15],
            &[16],
            &[255],
            &[1000],
            &[0xdead_beef],
            &[u64::MAX, u64::MAX],
            &[0x8000_0000_0000_0001, 0x7fff_ffff_ffff_ffff, 1],
        ];
        for k in samples {
            let naf = wnaf(k);
            let mut acc = Ubig::zero();
            let mut neg = Ubig::zero();
            for (i, &d) in naf.iter().enumerate() {
                let term = Ubig::from_u64(d.unsigned_abs() as u64).shl_bits(i as u32);
                if d > 0 {
                    acc = acc.add_ref(&term);
                } else {
                    neg = neg.add_ref(&term);
                }
            }
            let want = Ubig::from_limbs(k.to_vec());
            assert_eq!(acc.checked_sub(&neg), Some(want), "k = {k:x?}");
            for (i, &d) in naf.iter().enumerate() {
                assert!(d == 0 || (d % 2 != 0 && d.abs() < 16), "digit {d}");
                if d != 0 {
                    for &next in naf.iter().skip(i + 1).take(4) {
                        assert_eq!(next, 0, "digits too close in {naf:?}");
                    }
                }
            }
        }
        assert!(wnaf(&[]).is_empty());
    }
}
