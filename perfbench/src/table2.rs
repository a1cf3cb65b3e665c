//! "Table 2 for this host": the unit cost of every operation class the
//! energy meter counts, timed here on the crates' public functions at the
//! workload's parameter sizes, printed next to the paper's StrongARM row.

use std::time::Instant;

use egka_bigint::{mod_inverse, mod_mul, mod_pow, random_below};
use egka_core::{Pkg, UserId};
use egka_ec::secp160r1;
use egka_energy::{table2_row, CompOp, Scheme};
use egka_hash::{ChaChaRng, Digest, Sha256};
use egka_sig::{Dsa, Ecdsa};
use egka_symmetric::Envelope;
use rand::SeedableRng;

/// Wall time each unit cost is measured over.
const MEASURE_S: f64 = 0.15;

/// Microseconds per call of `f`, over at least [`MEASURE_S`] and at
/// least eight calls.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and interned contexts first
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 8 || started.elapsed().as_secs_f64() < MEASURE_S {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Times one operation class on `pkg`'s parameters; `None` for the
/// pairing classes, which no workload runs.
pub fn unit_us(pkg: &Pkg, op: CompOp) -> Option<f64> {
    let mut rng = ChaChaRng::seed_from_u64(0x7ab1e2);
    let bd = &pkg.params().bd;
    let gq = &pkg.params().gq;
    let msg = b"perfbench unit cost";
    let us = match op {
        CompOp::ModExp => {
            let (b, e) = (random_below(&mut rng, &bd.p), random_below(&mut rng, &bd.q));
            per_call_us(|| {
                std::hint::black_box(mod_pow(&b, &e, &bd.p));
            })
        }
        CompOp::ModMul => {
            let (a, b) = (random_below(&mut rng, &bd.p), random_below(&mut rng, &bd.p));
            per_call_us(|| {
                std::hint::black_box(mod_mul(&a, &b, &bd.p));
            })
        }
        CompOp::ModInv => {
            let a = random_below(&mut rng, &bd.q);
            per_call_us(|| {
                std::hint::black_box(mod_inverse(&a, &bd.q));
            })
        }
        CompOp::Hash => per_call_us(|| {
            std::hint::black_box(Sha256::digest(&[0u8; 64]));
        }),
        CompOp::SymEnc | CompOp::SymDec => {
            let env = Envelope::from_key_material(&[7u8; 32]);
            let sealed = env.seal(&mut rng, &[1u8; 32]);
            if op == CompOp::SymEnc {
                per_call_us(|| {
                    std::hint::black_box(env.seal(&mut rng, &[1u8; 32]));
                })
            } else {
                per_call_us(|| {
                    std::hint::black_box(env.open(&sealed).expect("own envelope opens"));
                })
            }
        }
        CompOp::EcScalarMul => {
            let curve = secp160r1();
            let p = curve.mul_gen(&curve.random_scalar(&mut rng));
            let k = curve.random_scalar(&mut rng);
            per_call_us(|| {
                std::hint::black_box(curve.mul(&k, &p));
            })
        }
        CompOp::SignGen(Scheme::Gq) => {
            let key = pkg.extract(UserId(1));
            per_call_us(|| {
                std::hint::black_box(gq.sign(&mut rng, &key, msg));
            })
        }
        CompOp::SignVerify(Scheme::Gq) | CompOp::CertVerify(Scheme::Gq) => {
            let sig = gq.sign(&mut rng, &pkg.extract(UserId(1)), msg);
            let id = UserId(1).to_bytes();
            per_call_us(|| assert!(gq.verify(&id, msg, &sig)))
        }
        CompOp::SignGen(Scheme::Ecdsa) => {
            let ecdsa = Ecdsa::new(secp160r1());
            let kp = ecdsa.keygen(&mut rng);
            per_call_us(|| {
                std::hint::black_box(ecdsa.sign(&mut rng, &kp, msg));
            })
        }
        CompOp::SignVerify(Scheme::Ecdsa) | CompOp::CertVerify(Scheme::Ecdsa) => {
            let ecdsa = Ecdsa::new(secp160r1());
            let kp = ecdsa.keygen(&mut rng);
            let sig = ecdsa.sign(&mut rng, &kp, msg);
            per_call_us(|| assert!(ecdsa.verify(&kp.q, msg, &sig)))
        }
        CompOp::SignGen(Scheme::Dsa) => {
            let dsa = Dsa::new(bd.clone());
            let kp = dsa.keygen(&mut rng);
            per_call_us(|| {
                std::hint::black_box(dsa.sign(&mut rng, &kp, msg));
            })
        }
        CompOp::SignVerify(Scheme::Dsa) | CompOp::CertVerify(Scheme::Dsa) => {
            let dsa = Dsa::new(bd.clone());
            let kp = dsa.keygen(&mut rng);
            let sig = dsa.sign(&mut rng, &kp, msg);
            per_call_us(|| assert!(dsa.verify(&kp.y, msg, &sig)))
        }
        CompOp::MapToPoint
        | CompOp::TatePairing
        | CompOp::SignGen(Scheme::Sok)
        | CompOp::SignVerify(Scheme::Sok)
        | CompOp::CertVerify(Scheme::Sok) => return None,
    };
    Some(us)
}

/// One row of the host table.
pub struct Row {
    pub op: CompOp,
    pub count: u64,
    pub unit_us: f64,
}

impl Row {
    /// CPU milliseconds the class accounts for: count × unit cost.
    pub fn estimate_ms(&self) -> f64 {
        self.count as f64 * self.unit_us / 1e3
    }
}

/// Renders the table: each class's count, its unit cost here, the
/// paper's StrongARM time for it, and its share of the estimate.
pub fn render(rows: &[Row]) -> String {
    let total: f64 = rows.iter().map(Row::estimate_ms).sum();
    let mut out = format!(
        "{:<22} {:>9} {:>12} {:>14} {:>12} {:>8}\n",
        "op class", "count", "here µs", "StrongARM ms", "estimate ms", "share"
    );
    for r in rows {
        let arm = table2_row(r.op).map_or("negligible".to_string(), |row| {
            format!("{:.2}", row.strongarm_ms)
        });
        out += &format!(
            "{:<22} {:>9} {:>12.2} {:>14} {:>12.1} {:>7.1}%\n",
            format!("{:?}", r.op),
            r.count,
            r.unit_us,
            arm,
            r.estimate_ms(),
            100.0 * r.estimate_ms() / total.max(f64::MIN_POSITIVE)
        );
    }
    out
}
