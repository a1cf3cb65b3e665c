//! Primitive micro-bench: old-vs-new timings for the field kernel, the
//! fixed-base and the batch accelerations, measured **in one binary** so
//! the ratios cannot drift with toolchains or machines.
//!
//! ```text
//! cargo run --release -p egka-bench --bin bench_primitives
//! cargo run --release -p egka-bench --bin bench_primitives -- \
//!     [--seed N] [--p-bits N] [--q-bits N] [--check-determinism] \
//!     [--json PATH]
//! ```
//!
//! Each pair times the *pre-acceleration* shape against the shipped one on
//! the identical deterministic workload, asserting bit-equal results first:
//!
//! * **Field multiplication** (secp160r1's `p`) — `Ubig` multiply then
//!   long-division reduce vs the fixed-limb Montgomery multiplication every
//!   scalar multiplication runs on ([`Curve::field_mul_chain`]).
//! * **1024-bit modular multiplication** — the same pair at the paper's
//!   BD/GQ modulus size, against the 16-limb kernel under every 1024-bit
//!   exponentiation ([`MontField::mul_chain`]).
//! * **Fixed-base EC scalar mult** — generic wNAF `curve.mul(k, G)` vs the
//!   comb-backed [`Curve::mul_gen`].
//! * **Fixed-base modexp** — the windowed [`Modulus::pow`] on the group's
//!   held modulus vs [`SchnorrGroup::g_pow`] (the generator's `q`-sized
//!   comb), on q-sized exponents under a Schnorr modulus — the BD/DSA
//!   shape.
//! * **Fixed-argument pairing** — full Miller loop vs
//!   [`PairingGroup::pairing_fixed`] over a cached [`egka_ec::MillerPrecomp`].
//! * **1024-bit inverse** — the allocating extended Euclid
//!   ([`ext_gcd_mod`]) vs [`Modulus::inverse`], Kaliski's almost inverse
//!   on 16 fixed limbs, on random values modulo a 1024-bit odd modulus.
//! * **1024-bit product chain** — a fold of [`egka_bigint::mod_mul`] vs
//!   [`Modulus::product`] (one [`egka_bigint::MulChain`] in Montgomery form), on
//!   the 16-factor products of BD's Lemma 1 and GQ's aggregation.
//! * **GQ Extract** — `H(ID)^d mod n` vs the CRT [`GqPkg::extract`]
//!   on the paper's 1024-bit fixture modulus.
//! * **ECDSA certificate verification** — [`Ecdsa::verify`] under the CA's
//!   point (Straus over wNAF tables) vs [`CaPublic::verify`], which walks
//!   the generator's comb and the CA key's prepared comb together
//!   ([`egka_sig::Ecdsa::verify_prepared`]), on secp160r1.
//!
//! * **GQ commitment recovery** — the per-member check
//!   ([`egka_sig::GqParams::recover_commitment`]) from the signer's
//!   identity (hash, inversion, two-base power) vs from the `H(ID)⁻¹` its
//!   key carries ([`GqSecretKey::h_inv`]), on a Toy-size modulus.
//!
//! It also records single timings with no pair: variable-base EC scalar
//! mult on a non-generator point, ECDSA sign and verify on secp160r1, and
//! DSA verify under the Schnorr group.
//!
//! The artifact (`BENCH_primitives.json`, schema `egka-primitives/1`)
//! carries each pair as `*_ns` plus a `*_speedup` ratio; `bench_diff`
//! holds `field_mul_speedup` above 4×, `modmul_1024_speedup`,
//! `fixed_base_mul_speedup`, `fixed_base_modexp_speedup`,
//! `pairing_fixed_speedup`, `inverse_1024_speedup`, `gq_extract_speedup`
//! and `ecdsa_cert_verify_speedup` above 2×, and `gq_verify_speedup` above
//! its floor in CI.
//! `--check-determinism`
//! regenerates every workload from the seed and asserts the result
//! fingerprint reproduces.

use std::time::Instant;

use egka_bench::{arg_value, has_flag};
use egka_bigint::{
    ext_gcd_mod, gen_schnorr_group, mod_mul, random_below, random_bits, Modulus, MontField,
    SchnorrGroup, Ubig,
};
use egka_ec::{secp160r1, Curve, PairingGroup, Point};
use egka_hash::ChaChaRng;
use egka_sig::{
    CaPublic, CaSignature, Certificate, CertificateAuthority, Dsa, DsaSignature, Ecdsa,
    EcdsaSignature, GqPkg, GqSecretKey, SubjectKey,
};
use rand::SeedableRng;

/// FNV-1a over every workload result — the determinism witness.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Nanoseconds per call of `f` over `iters` calls.
fn per_op_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

struct Pair {
    old_ns: f64,
    new_ns: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.old_ns / self.new_ns
    }
    fn print(&self, name: &str) {
        println!(
            "{name:24} old {:>12.0} ns   new {:>12.0} ns   {:>5.2}x",
            self.old_ns,
            self.new_ns,
            self.speedup()
        );
    }
}

// ------------------------------------------------------ field multiplication

/// Chained multiplications per timed call, so the per-call conversions in
/// and out of Montgomery form are amortized away.
const MUL_CHAIN: u32 = 256;

fn field_mul_workload(seed: u64, curve: &Curve, fp: &mut Fnv) -> Vec<(Ubig, Ubig)> {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xf1e1d);
    let f = curve.field();
    let pairs: Vec<(Ubig, Ubig)> = (0..16)
        .map(|_| (f.random(&mut rng), f.random(&mut rng)))
        .collect();
    for (a, b) in &pairs {
        let new = curve.field_mul_chain(a, b, MUL_CHAIN);
        assert_eq!(
            new,
            ubig_mul_chain(a, b, f.modulus()),
            "field_mul_chain disagrees"
        );
        fp.push(&new.to_bytes_be());
    }
    pairs
}

/// The pre-rewrite field multiplication: `Ubig` product, then `rem`.
fn ubig_mul_chain(a: &Ubig, b: &Ubig, p: &Ubig) -> Ubig {
    let mut acc = a.clone();
    for _ in 0..MUL_CHAIN {
        acc = acc.mul_ref(b).rem_ref(p);
    }
    acc
}

fn bench_field_mul(seed: u64, fp: &mut Fnv) -> Pair {
    let curve = secp160r1();
    let pairs = field_mul_workload(seed, &curve, fp);
    let p = curve.field().modulus();
    let mut i = 0usize;
    let old_ns = per_op_ns(64, || {
        let (a, b) = &pairs[i % pairs.len()];
        std::hint::black_box(ubig_mul_chain(a, b, p));
        i += 1;
    }) / f64::from(MUL_CHAIN);
    let new_ns = per_op_ns(64, || {
        let (a, b) = &pairs[i % pairs.len()];
        std::hint::black_box(curve.field_mul_chain(a, b, MUL_CHAIN));
        i += 1;
    }) / f64::from(MUL_CHAIN);
    Pair { old_ns, new_ns }
}

// ------------------------------------------ 1024-bit modular multiplication

/// A 1024-bit odd modulus and operand pairs below it.
fn modmul_workload(seed: u64, fp: &mut Fnv) -> (MontField<16>, Ubig, Vec<(Ubig, Ubig)>) {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x1024);
    let mut m = random_bits(&mut rng, 1024);
    m.set_bit(0);
    let kernel = MontField::<16>::new(&m);
    let pairs: Vec<(Ubig, Ubig)> = (0..16)
        .map(|_| (random_below(&mut rng, &m), random_below(&mut rng, &m)))
        .collect();
    for (a, b) in &pairs {
        let new = kernel.mul_chain(a, b, MUL_CHAIN);
        assert_eq!(new, ubig_mul_chain(a, b, &m), "kernel mul_chain disagrees");
        fp.push(&new.to_bytes_be());
    }
    (kernel, m, pairs)
}

fn bench_modmul(seed: u64, fp: &mut Fnv) -> Pair {
    let (kernel, m, pairs) = modmul_workload(seed, fp);
    let mut i = 0usize;
    let old_ns = per_op_ns(16, || {
        let (a, b) = &pairs[i % pairs.len()];
        std::hint::black_box(ubig_mul_chain(a, b, &m));
        i += 1;
    }) / f64::from(MUL_CHAIN);
    let new_ns = per_op_ns(16, || {
        let (a, b) = &pairs[i % pairs.len()];
        std::hint::black_box(kernel.mul_chain(a, b, MUL_CHAIN));
        i += 1;
    }) / f64::from(MUL_CHAIN);
    Pair { old_ns, new_ns }
}

// ---------------------------------------------- 1024-bit inverse and product

/// A 1024-bit odd modulus and values below it: every one is inverted, and
/// the values form 16-factor products.
fn inverse_workload(seed: u64, fp: &mut Fnv) -> (Modulus, Vec<Ubig>) {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x1a7);
    let mut m = random_bits(&mut rng, 1024);
    m.set_bit(0);
    let values: Vec<Ubig> = (0..64).map(|_| random_below(&mut rng, &m)).collect();
    let m = Modulus::new(m).expect("odd");
    for a in &values {
        let (g, x) = ext_gcd_mod(a, &m);
        let new = m.inverse(a);
        assert_eq!(new, g.is_one().then_some(x), "mod_inverse disagrees");
        fp.push(&new.map_or(vec![0], |x| x.to_bytes_be()));
    }
    for chunk in values.chunks(16) {
        let new = m.product(chunk);
        assert_eq!(new, fold_mod_mul(chunk, &m), "Modulus::product disagrees");
        fp.push(&new.to_bytes_be());
    }
    (m, values)
}

/// The pre-chain product: one allocating `mod_mul` per factor.
fn fold_mod_mul(factors: &[Ubig], m: &Ubig) -> Ubig {
    factors
        .iter()
        .fold(Ubig::one(), |acc, x| mod_mul(&acc, x, m))
}

/// The inverse pair, then the product-chain pair (per product).
fn bench_inverse(seed: u64, fp: &mut Fnv) -> (Pair, Pair) {
    let (m, values) = inverse_workload(seed, fp);
    let mut i = 0usize;
    let old_ns = per_op_ns(128, || {
        std::hint::black_box(ext_gcd_mod(&values[i % values.len()], &m));
        i += 1;
    });
    let new_ns = per_op_ns(128, || {
        std::hint::black_box(m.inverse(&values[i % values.len()]));
        i += 1;
    });
    let inverse = Pair { old_ns, new_ns };
    let chunks: Vec<&[Ubig]> = values.chunks(16).collect();
    let old_ns = per_op_ns(64, || {
        std::hint::black_box(fold_mod_mul(chunks[i % chunks.len()], &m));
        i += 1;
    }) / 16.0;
    let new_ns = per_op_ns(64, || {
        std::hint::black_box(m.product(chunks[i % chunks.len()]));
        i += 1;
    }) / 16.0;
    (inverse, Pair { old_ns, new_ns })
}

// ------------------------------------------------------------- GQ Extract

/// Extract on the paper fixture's 1024-bit modulus (512-bit factors), and
/// the identities it extracts for.
fn extract_workload(fp: &mut Fnv) -> (GqPkg, Vec<Vec<u8>>) {
    let pkg = egka_core::paper_fixture().gq().clone();
    let ids: Vec<Vec<u8>> = (0..16u32).map(|i| i.to_be_bytes().to_vec()).collect();
    for id in &ids {
        let new = pkg.extract(id);
        assert_eq!(new.s_id, plain_extract(&pkg, id), "CRT extract disagrees");
        fp.push(&new.s_id.to_bytes_be());
    }
    (pkg, ids)
}

/// The pre-CRT Extract: one exponentiation by the full 1024-bit `d`.
fn plain_extract(pkg: &GqPkg, id: &[u8]) -> Ubig {
    pkg.params.n.pow(&pkg.params.hash_id(id), &pkg.master().d)
}

fn bench_extract(fp: &mut Fnv) -> Pair {
    let (pkg, ids) = extract_workload(fp);
    let mut i = 0usize;
    let old_ns = per_op_ns(16, || {
        std::hint::black_box(plain_extract(&pkg, &ids[i % ids.len()]));
        i += 1;
    });
    let new_ns = per_op_ns(16, || {
        std::hint::black_box(pkg.extract(&ids[i % ids.len()]));
        i += 1;
    });
    Pair { old_ns, new_ns }
}

// ------------------------------------------------------------ EC scalar mul

fn ec_workload(seed: u64, curve: &Curve, fp: &mut Fnv) -> Vec<Ubig> {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xec);
    let scalars: Vec<Ubig> = (0..64).map(|_| curve.random_scalar(&mut rng)).collect();
    for k in &scalars {
        let new = curve.mul_gen(k);
        assert_eq!(new, curve.mul(k, curve.generator()), "mul_gen disagrees");
        fp.push(&curve.compress(&new));
    }
    scalars
}

/// The fixed-base pair (wNAF on `G` vs the comb), plus the variable-base
/// time: wNAF on a point that is not the generator, so no table is cached.
fn bench_ec(seed: u64, fp: &mut Fnv) -> (Pair, f64) {
    let curve = secp160r1();
    let scalars = ec_workload(seed, &curve, fp); // also warms the comb
    let g = curve.generator().clone();
    let base = curve.mul_gen(&scalars[0]);
    let mut i = 0usize;
    let old_ns = per_op_ns(256, || {
        std::hint::black_box(curve.mul(&scalars[i % scalars.len()], &g));
        i += 1;
    });
    let new_ns = per_op_ns(256, || {
        std::hint::black_box(curve.mul_gen(&scalars[i % scalars.len()]));
        i += 1;
    });
    let variable_ns = per_op_ns(256, || {
        std::hint::black_box(curve.mul(&scalars[i % scalars.len()], &base));
        i += 1;
    });
    (Pair { old_ns, new_ns }, variable_ns)
}

// --------------------------------------------------------- fixed-base modexp

fn modexp_workload(seed: u64, group: &SchnorrGroup, fp: &mut Fnv) -> Vec<Ubig> {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x90d);
    let exps: Vec<Ubig> = (0..64).map(|_| random_below(&mut rng, &group.q)).collect();
    for e in &exps {
        let new = group.g_pow(e);
        assert_eq!(new, group.p.pow(&group.g, e), "g_pow disagrees");
        fp.push(&new.to_bytes_be());
    }
    exps
}

fn bench_modexp(seed: u64, group: &SchnorrGroup, fp: &mut Fnv) -> Pair {
    let exps = modexp_workload(seed, group, fp); // also warms kernel + comb
    let mut i = 0usize;
    // The generic shape: a 4-bit window walk over the whole exponent.
    let old_ns = per_op_ns(128, || {
        std::hint::black_box(group.p.pow(&group.g, &exps[i % exps.len()]));
        i += 1;
    });
    let new_ns = per_op_ns(128, || {
        std::hint::black_box(group.g_pow(&exps[i % exps.len()]));
        i += 1;
    });
    Pair { old_ns, new_ns }
}

// ---------------------------------------------------------- fixed pairing

fn bench_pairing(seed: u64, fp: &mut Fnv) -> Pair {
    let group = PairingGroup::paper_fixture();
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x9a1);
    let points: Vec<Point> = (0..8).map(|_| group.random_point(&mut rng)).collect();
    let gen = group.curve().generator().clone();
    let pre = group.precompute(&gen);
    for q in &points {
        let new = group.pairing_fixed(&pre, q);
        assert_eq!(new, group.pairing(&gen, q), "pairing_fixed disagrees");
        fp.push(&new.c0.to_bytes_be());
        fp.push(&new.c1.to_bytes_be());
    }
    let mut i = 0usize;
    let old_ns = per_op_ns(32, || {
        std::hint::black_box(group.pairing(&gen, &points[i % points.len()]));
        i += 1;
    });
    let new_ns = per_op_ns(32, || {
        std::hint::black_box(group.pairing_fixed(&pre, &points[i % points.len()]));
        i += 1;
    });
    Pair { old_ns, new_ns }
}

// ------------------------------------------------------------ signatures

/// ECDSA sign and verify on secp160r1, in ns per call.
fn bench_ecdsa(seed: u64, fp: &mut Fnv) -> (f64, f64) {
    let scheme = Ecdsa::new(secp160r1());
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xba7c);
    let triples: Vec<(_, Vec<u8>, EcdsaSignature)> = (0..16)
        .map(|i| {
            let kp = scheme.keygen(&mut rng);
            let msg = format!("epoch share {i}").into_bytes();
            let sig = scheme.sign(&mut rng, &kp, &msg);
            (kp, msg, sig)
        })
        .collect();
    for (kp, msg, sig) in &triples {
        assert!(scheme.verify(&kp.q, msg, sig));
        fp.push(&sig.r.to_bytes_be());
    }
    let n = triples.len() as f64;
    let sign_ns = per_op_ns(8, || {
        for (kp, msg, _) in &triples {
            std::hint::black_box(scheme.sign(&mut rng, kp, msg));
        }
    }) / n;
    let verify_ns = per_op_ns(8, || {
        for (kp, msg, sig) in &triples {
            assert!(scheme.verify(&kp.q, msg, sig));
        }
    }) / n;
    (sign_ns, verify_ns)
}

/// One secp160r1 CA and the certificates it issued; verifying them all
/// here also builds the CA key's comb.
fn cert_workload(seed: u64, fp: &mut Fnv) -> (CaPublic, Vec<Certificate>) {
    let scheme = Ecdsa::new(secp160r1());
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xce27);
    let ca = CertificateAuthority::new_ecdsa(&mut rng, b"bench-ca", scheme.clone());
    let certs: Vec<Certificate> = (0..16u32)
        .map(|i| {
            let user = scheme.keygen(&mut rng);
            ca.issue(
                &mut rng,
                &i.to_be_bytes(),
                SubjectKey::Ecdsa(user.q),
                u64::from(i) + 1,
            )
        })
        .collect();
    let public = ca.public();
    for cert in &certs {
        assert!(plain_cert_verify(&public, cert), "plain verify rejects");
        assert!(public.verify(cert), "prepared verify rejects");
        fp.push(&cert.encode());
    }
    (public, certs)
}

/// The pre-comb certificate check: [`Ecdsa::verify`] under the CA's point.
fn plain_cert_verify(ca: &CaPublic, cert: &Certificate) -> bool {
    match (ca, &cert.signature) {
        (CaPublic::Ecdsa(scheme, key), CaSignature::Ecdsa(sig)) => {
            scheme.verify(key.point(), &cert.tbs_bytes(), sig)
        }
        _ => false,
    }
}

/// Old and new alternate, one pass over the certificates each, so a
/// change in host load lands on both sides of the ratio.
fn bench_cert_verify(seed: u64, fp: &mut Fnv) -> Pair {
    let (ca, certs) = cert_workload(seed, fp);
    let rounds = 8;
    let n = f64::from(rounds) * certs.len() as f64;
    let (mut old_ns, mut new_ns) = (0.0, 0.0);
    for _ in 0..rounds {
        old_ns += per_op_ns(1, || {
            for cert in &certs {
                assert!(plain_cert_verify(&ca, cert));
            }
        });
        new_ns += per_op_ns(1, || {
            for cert in &certs {
                assert!(ca.verify(cert));
            }
        });
    }
    Pair {
        old_ns: old_ns / n,
        new_ns: new_ns / n,
    }
}

/// DSA verify on the Schnorr group, in ns per call.
fn bench_dsa(seed: u64, group: &SchnorrGroup, fp: &mut Fnv) -> f64 {
    let scheme = Dsa::new(group.clone());
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xd5a);
    let triples: Vec<(Ubig, Vec<u8>, DsaSignature)> = (0..8)
        .map(|i| {
            let kp = scheme.keygen(&mut rng);
            let msg = format!("epoch share {i}").into_bytes();
            let sig = scheme.sign(&mut rng, &kp, &msg);
            (kp.y, msg, sig)
        })
        .collect();
    for (y, msg, sig) in &triples {
        assert!(scheme.verify(y, msg, sig));
        fp.push(&sig.s.to_bytes_be());
    }
    per_op_ns(8, || {
        for (y, msg, sig) in &triples {
            assert!(scheme.verify(y, msg, sig));
        }
    }) / triples.len() as f64
}

/// GQ commitment recovery `t = s^e · H(ID)^{−c}` (the per-member check
/// of SSN's implicit authentication, and the core of every GQ verify), in
/// ns per member: from the identity alone (hash, invert, two-base power)
/// vs from the signer's carried `H(ID)⁻¹` (the two-base power). Old and
/// new alternate, as in [`bench_cert_verify`].
fn bench_gq_verify(seed: u64, fp: &mut Fnv) -> Pair {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x60);
    let pkg = GqPkg::setup_with_e_bits(&mut rng, 128, 41);
    let p = &pkg.params;
    let n = 16usize;
    let ids: Vec<Vec<u8>> = (0..n).map(|i| format!("member-{i}").into_bytes()).collect();
    let keys: Vec<GqSecretKey> = ids.iter().map(|id| pkg.extract(id)).collect();
    let commits: Vec<(Ubig, Ubig)> = (0..n).map(|_| p.commit(&mut rng)).collect();
    let t_agg =
        p.aggregate_commitments(&commits.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>());
    let c = p.shared_challenge(&t_agg, b"bench epoch");
    let values: Vec<(&GqSecretKey, &Ubig, Ubig)> = (0..n)
        .map(|i| {
            (
                &keys[i],
                &commits[i].1,
                p.respond(&keys[i], &commits[i].0, &c),
            )
        })
        .collect();
    let plain = |key: &GqSecretKey, s: &Ubig| p.recover_commitment(&p.h_inv(key.id()), s, &c);
    for (key, t, s) in &values {
        assert_eq!(&plain(key, s), *t);
        assert_eq!(&p.recover_commitment(key.h_inv(p), s, &c), *t);
        fp.push(&s.to_bytes_be());
    }
    let rounds = 8;
    let (mut old_ns, mut new_ns) = (0.0, 0.0);
    for _ in 0..rounds {
        old_ns += per_op_ns(1, || {
            for (key, t, s) in &values {
                assert_eq!(&plain(key, s), *t);
            }
        });
        new_ns += per_op_ns(1, || {
            for (key, t, s) in &values {
                assert_eq!(&p.recover_commitment(key.h_inv(p), s, &c), *t);
            }
        });
    }
    let per = f64::from(rounds) * n as f64;
    Pair {
        old_ns: old_ns / per,
        new_ns: new_ns / per,
    }
}

fn main() {
    let start = Instant::now();
    let seed: u64 = arg_value("--seed").map_or(0x9121, |v| v.parse().expect("--seed N"));
    let p_bits: u32 = arg_value("--p-bits").map_or(512, |v| v.parse().expect("--p-bits N"));
    let q_bits: u32 = arg_value("--q-bits").map_or(160, |v| v.parse().expect("--q-bits N"));
    println!("bench_primitives: seed {seed:#x}, Schnorr {p_bits}/{q_bits} bits\n");

    let mut group_rng = ChaChaRng::seed_from_u64(seed ^ 0x5c0);
    let group = gen_schnorr_group(&mut group_rng, p_bits, q_bits);

    let mut fp = Fnv::new();
    let field_mul = bench_field_mul(seed, &mut fp);
    field_mul.print("field_mul");
    let modmul = bench_modmul(seed, &mut fp);
    modmul.print("modmul_1024");
    let (ec, variable_base_ns) = bench_ec(seed, &mut fp);
    ec.print("fixed_base_mul");
    println!("{:24} {variable_base_ns:>12.0} ns", "variable_base_mul");
    let modexp = bench_modexp(seed, &group, &mut fp);
    modexp.print("fixed_base_modexp");
    let pairing = bench_pairing(seed, &mut fp);
    pairing.print("pairing_fixed");
    let (inverse, product) = bench_inverse(seed, &mut fp);
    inverse.print("inverse_1024");
    product.print("mod_product_1024");
    let extract = bench_extract(&mut fp);
    extract.print("gq_extract");
    let (ecdsa_sign_ns, ecdsa_verify_ns) = bench_ecdsa(seed, &mut fp);
    println!("{:24} {ecdsa_sign_ns:>12.0} ns", "ecdsa_sign");
    println!("{:24} {ecdsa_verify_ns:>12.0} ns", "ecdsa_verify");
    let cert_verify = bench_cert_verify(seed, &mut fp);
    cert_verify.print("ecdsa_cert_verify");
    let dsa_verify_ns = bench_dsa(seed, &group, &mut fp);
    println!("{:24} {dsa_verify_ns:>12.0} ns", "dsa_verify");
    let gq_verify = bench_gq_verify(seed, &mut fp);
    gq_verify.print("gq_verify");
    let fingerprint = fp.0;
    println!("\nworkload fingerprint {fingerprint:016x}");

    if has_flag("--check-determinism") {
        println!("re-deriving every workload for the determinism check…");
        let mut again = Fnv::new();
        let curve = secp160r1();
        field_mul_workload(seed, &curve, &mut again);
        modmul_workload(seed, &mut again);
        ec_workload(seed, &curve, &mut again);
        modexp_workload(seed, &group, &mut again);
        bench_pairing(seed, &mut again);
        inverse_workload(seed, &mut again);
        extract_workload(&mut again);
        bench_ecdsa(seed, &mut again);
        cert_workload(seed, &mut again);
        bench_dsa(seed, &group, &mut again);
        bench_gq_verify(seed, &mut again);
        assert_eq!(
            fingerprint, again.0,
            "same seed must reproduce every workload result bit for bit"
        );
        println!("deterministic ✓");
    }

    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let json = format!(
        "{{\n  \
         \"schema\": \"egka-primitives/1\",\n  \
         \"seed\": {seed},\n  \
         \"p_bits\": {p_bits},\n  \
         \"q_bits\": {q_bits},\n  \
         \"workload_fingerprint\": \"{fingerprint:016x}\",\n  \
         \"plain_field_mul_ns\": {:.1},\n  \
         \"field_mul_ns\": {:.1},\n  \
         \"field_mul_speedup\": {:.3},\n  \
         \"plain_modmul_1024_ns\": {:.1},\n  \
         \"modmul_1024_ns\": {:.1},\n  \
         \"modmul_1024_speedup\": {:.3},\n  \
         \"variable_base_mul_ns\": {variable_base_ns:.0},\n  \
         \"generator_wnaf_mul_ns\": {:.0},\n  \
         \"fixed_base_mul_ns\": {:.0},\n  \
         \"fixed_base_mul_speedup\": {:.3},\n  \
         \"plain_modexp_ns\": {:.0},\n  \
         \"fixed_base_modexp_ns\": {:.0},\n  \
         \"fixed_base_modexp_speedup\": {:.3},\n  \
         \"pairing_ns\": {:.0},\n  \
         \"pairing_fixed_ns\": {:.0},\n  \
         \"pairing_fixed_speedup\": {:.3},\n  \
         \"plain_inverse_1024_ns\": {:.0},\n  \
         \"inverse_1024_ns\": {:.0},\n  \
         \"inverse_1024_speedup\": {:.3},\n  \
         \"plain_mod_product_1024_ns\": {:.1},\n  \
         \"mod_product_1024_ns\": {:.1},\n  \
         \"mod_product_1024_speedup\": {:.3},\n  \
         \"plain_gq_extract_ns\": {:.0},\n  \
         \"gq_extract_ns\": {:.0},\n  \
         \"gq_extract_speedup\": {:.3},\n  \
         \"ecdsa_sign_ns\": {ecdsa_sign_ns:.0},\n  \
         \"ecdsa_verify_ns\": {ecdsa_verify_ns:.0},\n  \
         \"plain_ecdsa_cert_verify_ns\": {:.0},\n  \
         \"ecdsa_cert_verify_ns\": {:.0},\n  \
         \"ecdsa_cert_verify_speedup\": {:.3},\n  \
         \"dsa_verify_ns\": {dsa_verify_ns:.0},\n  \
         \"plain_gq_verify_ns\": {:.0},\n  \
         \"gq_verify_ns\": {:.0},\n  \
         \"gq_verify_speedup\": {:.3},\n  \
         \"wall_ms\": {wall_ms:.1}\n}}\n",
        field_mul.old_ns,
        field_mul.new_ns,
        field_mul.speedup(),
        modmul.old_ns,
        modmul.new_ns,
        modmul.speedup(),
        ec.old_ns,
        ec.new_ns,
        ec.speedup(),
        modexp.old_ns,
        modexp.new_ns,
        modexp.speedup(),
        pairing.old_ns,
        pairing.new_ns,
        pairing.speedup(),
        inverse.old_ns,
        inverse.new_ns,
        inverse.speedup(),
        product.old_ns,
        product.new_ns,
        product.speedup(),
        extract.old_ns,
        extract.new_ns,
        extract.speedup(),
        cert_verify.old_ns,
        cert_verify.new_ns,
        cert_verify.speedup(),
        gq_verify.old_ns,
        gq_verify.new_ns,
        gq_verify.speedup(),
    );
    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_primitives.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("wrote {json_path}");
    } else {
        print!("{json}");
    }
}
