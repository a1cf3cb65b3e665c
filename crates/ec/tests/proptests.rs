//! Property tests on the elliptic-curve substrate: field axioms, curve
//! group laws (on both the exhaustive toy curve and secp160r1), point
//! compression and decompression of arbitrary bytes, and pairing
//! bilinearity.

use std::sync::OnceLock;

use egka_bigint::{mod_add, mod_mul, Ubig};
use egka_ec::{secp160r1, tiny19, Curve, Fp, PairingGroup, Point};
use proptest::prelude::*;

fn fp160() -> Fp {
    secp160r1().field().clone()
}

/// Deterministic pseudo-element of a field from a u64 seed.
fn elem(f: &Fp, seed: u64) -> Ubig {
    f.reduce(
        &Ubig::from_u64(seed).mul_ref(&Ubig::from_hex("9e3779b97f4a7c15f39cc0605cedc835").unwrap()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn field_ring_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let f = fp160();
        let (a, b, c) = (elem(&f, a), elem(&f, b), elem(&f, c));
        // commutativity + associativity + distributivity
        prop_assert_eq!(f.add(&a, &b), f.add(&b, &a));
        prop_assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
        prop_assert_eq!(f.add(&f.add(&a, &b), &c), f.add(&a, &f.add(&b, &c)));
        prop_assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
        prop_assert_eq!(
            f.mul(&a, &f.add(&b, &c)),
            f.add(&f.mul(&a, &b), &f.mul(&a, &c))
        );
        // additive/multiplicative inverses
        prop_assert!(f.add(&a, &f.neg(&a)).is_zero());
        if !a.is_zero() {
            prop_assert!(f.mul(&a, &f.inv(&a).unwrap()).is_one());
        }
        // squares have roots (p ≡ 3 mod 4)
        let sq = f.sqr(&a);
        let r = f.sqrt(&sq).unwrap();
        prop_assert_eq!(f.sqr(&r), sq);
    }

    #[test]
    fn scalar_mul_is_homomorphic(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
        let c = secp160r1();
        let (ka, kb) = (Ubig::from_u64(a), Ubig::from_u64(b));
        // (a+b)G = aG + bG
        let sum = mod_add(&ka, &kb, c.order());
        prop_assert_eq!(
            c.mul_gen(&sum),
            c.add(&c.mul_gen(&ka), &c.mul_gen(&kb))
        );
        // a(bG) = (ab)G
        let prod = mod_mul(&ka, &kb, c.order());
        let bg = c.mul_gen(&kb);
        prop_assert_eq!(c.mul(&ka, &bg), c.mul_gen(&prod));
    }

    #[test]
    fn points_stay_on_curve_and_compress(k in 1u64..u64::MAX) {
        let c = secp160r1();
        let p = c.mul_gen(&Ubig::from_u64(k));
        prop_assert!(c.is_on_curve(&p));
        prop_assert_eq!(c.decompress(&c.compress(&p)), Some(p));
    }

    #[test]
    fn tiny_curve_full_group_law(i in 0u64..21, j in 0u64..21) {
        let c: Curve = tiny19();
        let g = c.generator().clone();
        let p = c.mul_raw(&Ubig::from_u64(i), &g);
        let q = c.mul_raw(&Ubig::from_u64(j), &g);
        let direct = c.add(&p, &q);
        let via_scalar = c.mul_raw(&Ubig::from_u64(i + j), &g);
        prop_assert_eq!(direct, via_scalar);
        // negation: P + (−P) = ∞
        prop_assert!(c.add(&p, &c.neg(&p)).is_infinity());
    }
}

/// The curves whose points cross the wire compressed: secp160r1 (ECDSA
/// keys) and the paper's pairing curve (SOK signature points).
fn wire_curves() -> &'static [Curve] {
    static CURVES: OnceLock<Vec<Curve>> = OnceLock::new();
    CURVES.get_or_init(|| vec![secp160r1(), PairingGroup::paper_fixture().curve().clone()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decompress` is the wire boundary for peer-sent points: on any
    /// bytes it returns without panicking, and a point it accepts lies on
    /// the curve and survives a compress/decompress round trip. (The bytes
    /// themselves need not: `03‖0…0` decodes to the 2-torsion point
    /// `(0, 0)` of the pairing curve, which re-encodes with `02`.)
    #[test]
    fn decompress_survives_arbitrary_bytes(
        byte in any::<u8>(),
        sec1_tag in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..40),
        shape in 0u8..3,
    ) {
        for c in wire_curves() {
            let (p, len) = (c.field().modulus(), c.field().byte_len());
            // Half the prefixes are a SEC1 tag, 02 or 03; the rest any byte.
            let prefix = if sec1_tag { 2 | (byte & 1) } else { byte };
            let x = match shape {
                // Any length.
                0 => body.clone(),
                // The encoding's length, x < p.
                1 => Ubig::from_bytes_be(&body).rem_ref(p).to_bytes_be_padded(len),
                // The encoding's length, x ≥ p.
                _ => {
                    let k = Ubig::from_bytes_be(&body[..body.len().min(2)]);
                    p.add_ref(&k).to_bytes_be_padded(len)
                }
            };
            let bytes = [&[prefix][..], &x].concat();
            let decoded = c.decompress(&bytes);
            if shape == 2 {
                prop_assert_eq!(&decoded, &None, "x ≥ p accepted on {}", c.name);
            }
            if let Some(pt) = decoded {
                prop_assert!(c.is_on_curve(&pt), "{}: {:02x?}", c.name, bytes);
                prop_assert_eq!(c.decompress(&c.compress(&pt)), Some(pt));
            }
        }
    }
}

proptest! {
    // Pairings are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pairing_bilinearity(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        use egka_hash::ChaChaRng;
        use rand::SeedableRng;
        let mut rng = ChaChaRng::seed_from_u64(0x70726f70);
        let g = egka_ec::gen_pairing_group(&mut rng, 80, 48);
        let gen: Point = g.curve().generator().clone();
        let (ka, kb) = (Ubig::from_u64(a), Ubig::from_u64(b));
        let lhs = g.pairing(&g.curve().mul(&ka, &gen), &g.curve().mul(&kb, &gen));
        let ab = mod_mul(&ka, &kb, g.order());
        let rhs = g.fp2().pow(&g.pairing(&gen, &gen), &ab);
        prop_assert_eq!(lhs, rhs);
    }
}

// -------------------------------------------------------------------------
// Reference equivalence: every accelerated ladder (generic wNAF `mul`, the
// fixed-base comb behind `mul_gen`, the Straus interleaving behind
// `mul_mul_add`) must agree with textbook MSB-first double-and-add — on
// random scalars and on the order-boundary edge cases where window and comb
// bookkeeping is most likely to slip.

/// Textbook double-and-add. Deliberately the dumbest correct algorithm: no
/// windows, no NAF, no comb — one double per bit, one add per set bit.
fn naive_mul(c: &Curve, k: &Ubig, p: &Point) -> Point {
    let mut acc = Point::Infinity;
    for bit in (0..k.bit_length()).rev() {
        acc = c.double(&acc);
        if k.bit(bit) {
            acc = c.add(&acc, p);
        }
    }
    acc
}

/// `0, 1, n−1, n, n+1` — the scalars that straddle the subgroup order.
fn edge_scalars(c: &Curve) -> Vec<Ubig> {
    let n = c.order();
    vec![
        Ubig::zero(),
        Ubig::one(),
        n.checked_sub(&Ubig::one()).unwrap(),
        n.clone(),
        n.add_ref(&Ubig::one()),
    ]
}

/// Asserts all three accelerated paths match the naive reference for `k`
/// (reduced mod the order first, matching `mul`/`mul_gen` semantics).
fn assert_ladders_match(c: &Curve, k: &Ubig) {
    let g = c.generator().clone();
    let reduced = k.rem_ref(c.order());
    let want = naive_mul(c, &reduced, &g);
    assert_eq!(c.mul(k, &g), want, "mul disagrees with double-and-add");
    assert_eq!(c.mul_gen(k), want, "mul_gen disagrees with double-and-add");
    // k·G + 0·G and ⌊k/2⌋·G + ⌈k/2⌉·G both equal k·G.
    let half = reduced.shr_bits(1);
    let rest = reduced.checked_sub(&half).unwrap();
    assert_eq!(
        c.mul_mul_add(&half, &g, &rest, &g),
        want,
        "mul_mul_add disagrees with double-and-add"
    );
}

#[test]
fn ladders_match_naive_on_edge_scalars() {
    for c in [tiny19(), secp160r1()] {
        for k in edge_scalars(&c) {
            assert_ladders_match(&c, &k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ladders_match_naive_on_random_scalars(seed in any::<u64>()) {
        for c in [tiny19(), secp160r1()] {
            // Stretch the u64 across the full scalar width so high comb
            // columns are exercised, not just the low 64 bits.
            let wide = elem(c.field(), seed);
            assert_ladders_match(&c, &wide);
            assert_ladders_match(&c, &Ubig::from_u64(seed));
        }
    }

    #[test]
    fn mul_mul_add_matches_naive_on_distinct_points(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
        let c = secp160r1();
        let g = c.generator().clone();
        let (ka, kb) = (Ubig::from_u64(a), Ubig::from_u64(b));
        let q = c.mul_gen(&Ubig::from_u64(0x9e37_79b9));
        let want = c.add(&naive_mul(&c, &ka, &g), &naive_mul(&c, &kb, &q));
        prop_assert_eq!(c.mul_mul_add(&ka, &g, &kb, &q), want);
    }
}

#[test]
fn fixture_pairing_group_is_reusable() {
    // Not a proptest (expensive); pins that the 194-bit fixture behaves.
    let g = PairingGroup::paper_fixture();
    let p = g.map_to_point(b"prop-fixture");
    assert!(g.curve().is_on_curve(&p));
    assert!(g.curve().mul_raw(g.order(), &p).is_infinity());
}
