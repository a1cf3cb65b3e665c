//! Criterion benchmarks for the four signature schemes, including the
//! paper's central ablation: **GQ batch verification vs `n` individual
//! verifications** — the mechanism behind the proposed protocol's constant
//! "Sign Ver" column in Table 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egka_bigint::Ubig;
use egka_hash::ChaChaRng;
use egka_sig::{Dsa, Ecdsa, GqPkg, SokPkg};
use rand::SeedableRng;
use std::hint::black_box;

/// Mid-size GQ so the benches finish quickly but exercise real arithmetic.
fn gq() -> GqPkg {
    let mut rng = ChaChaRng::seed_from_u64(0x6271);
    GqPkg::setup_with_e_bits(&mut rng, 256, 161)
}

fn bench_gq(c: &mut Criterion) {
    let pkg = gq();
    let mut rng = ChaChaRng::seed_from_u64(1);
    let key = pkg.extract(b"alice");
    let sig = pkg.params.sign(&mut rng, &key, b"msg");
    c.bench_function("gq_sign", |b| {
        b.iter(|| pkg.params.sign(&mut rng, &key, black_box(b"msg")));
    });
    c.bench_function("gq_verify", |b| {
        b.iter(|| pkg.params.verify(black_box(b"alice"), b"msg", &sig));
    });
}

/// The ablation: one aggregate check vs n individual GQ verifications.
fn bench_gq_batch(c: &mut Criterion) {
    let pkg = gq();
    let mut rng = ChaChaRng::seed_from_u64(2);
    let mut group = c.benchmark_group("gq_batch_vs_individual");
    group.sample_size(10);
    for n in [4usize, 16, 64] {
        let ids: Vec<Vec<u8>> = (0..n).map(|i| format!("user-{i}").into_bytes()).collect();
        let keys: Vec<_> = ids.iter().map(|id| pkg.extract(id)).collect();
        let bind = b"Z";
        let mut taus = Vec::new();
        let mut ts = Vec::new();
        for _ in 0..n {
            let (tau, t) = pkg.params.commit(&mut rng);
            taus.push(tau);
            ts.push(t);
        }
        let c_shared = pkg
            .params
            .shared_challenge(&pkg.params.aggregate_commitments(&ts), bind);
        let responses: Vec<Ubig> = keys
            .iter()
            .zip(&taus)
            .map(|(k, tau)| pkg.params.respond(k, tau, &c_shared))
            .collect();
        let h_invs: Vec<Ubig> = keys.iter().map(|k| k.h_inv(&pkg.params).clone()).collect();
        group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| {
            b.iter(|| {
                assert!(pkg.params.aggregate_verify(
                    black_box(&h_invs),
                    black_box(&responses),
                    &c_shared,
                    bind
                ))
            });
        });
        // Individual verification of n per-member tags (what SSN-style
        // per-sender checks cost): t_j == s_j^e · H(U_j)^{−c}.
        group.bench_with_input(BenchmarkId::new("individual", n), &n, |b, _| {
            b.iter(|| {
                for j in 0..n {
                    let t = pkg
                        .params
                        .recover_commitment(&h_invs[j], &responses[j], &c_shared);
                    assert_eq!(t, ts[j]);
                }
            });
        });
    }
    group.finish();
}

fn bench_dsa_ecdsa(c: &mut Criterion) {
    let mut rng = ChaChaRng::seed_from_u64(3);
    let dsa = Dsa::new(egka_bigint::gen_schnorr_group(&mut rng, 512, 160));
    let kp = dsa.keygen(&mut rng);
    let sig = dsa.sign(&mut rng, &kp, b"m");
    c.bench_function("dsa512_sign", |b| {
        b.iter(|| dsa.sign(&mut rng, &kp, black_box(b"m")))
    });
    c.bench_function("dsa512_verify", |b| {
        b.iter(|| dsa.verify(&kp.y, b"m", black_box(&sig)))
    });

    let ecdsa = Ecdsa::new(egka_ec::secp160r1());
    let ekp = ecdsa.keygen(&mut rng);
    let esig = ecdsa.sign(&mut rng, &ekp, b"m");
    c.bench_function("ecdsa160_sign", |b| {
        b.iter(|| ecdsa.sign(&mut rng, &ekp, black_box(b"m")))
    });
    c.bench_function("ecdsa160_verify", |b| {
        b.iter(|| ecdsa.verify(&ekp.q, b"m", black_box(&esig)))
    });
}

fn bench_sok(c: &mut Criterion) {
    let mut rng = ChaChaRng::seed_from_u64(4);
    let group = egka_ec::PairingGroup::paper_fixture();
    let pkg = SokPkg::setup(&mut rng, group);
    let key = pkg.extract(b"alice");
    let sig = pkg.params.sign(&mut rng, &key, b"m");
    let mut g = c.benchmark_group("sok_194bit");
    g.sample_size(10);
    g.bench_function("sign", |b| {
        b.iter(|| pkg.params.sign(&mut rng, &key, black_box(b"m")))
    });
    g.bench_function("verify_3_pairings", |b| {
        b.iter(|| assert!(pkg.params.verify(b"alice", b"m", black_box(&sig))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gq,
    bench_gq_batch,
    bench_dsa_ecdsa,
    bench_sok
);
criterion_main!(benches);
