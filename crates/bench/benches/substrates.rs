//! Criterion micro-benchmarks for the from-scratch substrates: big-integer
//! arithmetic (the paper's "modular exponentiation" cost unit), hashing,
//! AES, elliptic-curve scalar multiplication and the Tate pairing.
//!
//! These are the Rust-measured analogues of Table 2's primitive rows; the
//! `tables` bench and EXPERIMENTS.md relate their ratios to the paper's
//! (e.g. pairing ≈ 5× a 1024-bit modexp on the paper's hardware).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egka_bigint::{Modulus, Ubig};
use egka_ec::PairingGroup;
use egka_hash::{ChaChaRng, Digest, Sha256};
use egka_symmetric::Aes;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_modexp(c: &mut Criterion) {
    let mut rng = ChaChaRng::seed_from_u64(1);
    let mut group = c.benchmark_group("modexp");
    group.sample_size(20);
    for bits in [256u32, 512, 1024] {
        // A held modulus, as the protocols' parameters hold theirs: the
        // kernel is built once, outside the timed loop.
        let p = Modulus::new(egka_bigint::gen_prime(&mut rng, bits)).expect("an odd prime");
        let base = egka_bigint::random_below(&mut rng, &p);
        let exp = egka_bigint::random_bits(&mut rng, 160); // paper: 160-bit exponents
        group.bench_with_input(BenchmarkId::new("mont_160bit_exp", bits), &bits, |b, _| {
            b.iter(|| black_box(&p).pow(black_box(&base), black_box(&exp)));
        });
    }
    group.finish();
}

fn bench_mul(c: &mut Criterion) {
    let mut rng = ChaChaRng::seed_from_u64(2);
    let mut group = c.benchmark_group("bigint_mul");
    for limbs in [16usize, 32, 64, 128] {
        let a = Ubig::from_limbs((0..limbs).map(|_| rng.next_u64()).collect());
        let b = Ubig::from_limbs((0..limbs).map(|_| rng.next_u64()).collect());
        group.bench_with_input(BenchmarkId::from_parameter(limbs), &limbs, |bch, _| {
            bch.iter(|| black_box(&a).mul_ref(black_box(&b)));
        });
    }
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let data = vec![0xabu8; 4096];
    c.bench_function("sha256_4k", |b| {
        b.iter(|| Sha256::digest(black_box(&data)));
    });
}

fn bench_aes(c: &mut Criterion) {
    let aes = Aes::new(&[0x42u8; 16]);
    let iv = [0u8; 16];
    let data = vec![0x5au8; 1024];
    c.bench_function("aes128_cbc_1k", |b| {
        b.iter(|| egka_symmetric::cbc_encrypt(black_box(&aes), black_box(&iv), black_box(&data)));
    });
}

fn bench_curve(c: &mut Criterion) {
    let mut rng = ChaChaRng::seed_from_u64(3);
    let curve = egka_ec::secp160r1();
    let k = curve.random_scalar(&mut rng);
    c.bench_function("secp160r1_scalar_mul", |b| {
        b.iter(|| curve.mul_gen(black_box(&k)));
    });
}

fn bench_pairing(c: &mut Criterion) {
    let g = PairingGroup::paper_fixture();
    let mut rng = ChaChaRng::seed_from_u64(4);
    let p = g.random_point(&mut rng);
    let q = g.random_point(&mut rng);
    let mut group = c.benchmark_group("pairing");
    group.sample_size(10);
    group.bench_function("tate_194bit", |b| {
        b.iter(|| g.pairing(black_box(&p), black_box(&q)));
    });
    group.bench_function("map_to_point", |b| {
        let mut ctr = 0u64;
        b.iter(|| {
            ctr += 1;
            g.map_to_point(black_box(&ctr.to_be_bytes()))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_modexp,
    bench_mul,
    bench_hash,
    bench_aes,
    bench_curve,
    bench_pairing
);
criterion_main!(benches);
