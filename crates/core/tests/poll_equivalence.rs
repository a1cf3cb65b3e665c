//! Equivalence of the poll-driven sans-IO engine with the seed's blocking
//! lock-step drivers.
//!
//! Two layers of evidence:
//!
//! 1. **Goldens**: key values and traffic counters captured from the
//!    blocking implementation (commit `9f68242`, before the sans-IO
//!    refactor) for fixed seeds. The machines must reproduce them bit for
//!    bit — same per-node RNG draw order, same wire accounting.
//! 2. **Properties**: for arbitrary `(n, seed)`, the engine's group key
//!    equals an independent oracle that replays the per-node RNG streams
//!    and evaluates the Burmester–Desmedt closed form `K = g^{Σ r_i
//!    r_{i+1}}` directly — and every node's traffic matches the paper's
//!    closed-form counts.

use egka_core::{bd, dynamics, proposed, ssn, Pkg, RunConfig, SecurityProfile, UserId};
use egka_energy::complexity::InitialProtocol;
use egka_hash::ChaChaRng;
use proptest::prelude::*;
use rand::SeedableRng;

fn key_hex(k: &egka_bigint::Ubig) -> String {
    k.to_bytes_be()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<String>()
}

/// Shared toy PKG, same setup seed as the golden capture.
fn pkg() -> &'static Pkg {
    use std::sync::OnceLock;
    static PKG: OnceLock<Pkg> = OnceLock::new();
    PKG.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0x50524f50);
        Pkg::setup(&mut rng, SecurityProfile::Toy)
    })
}

#[test]
fn proposed_keys_match_blocking_driver_goldens() {
    // Captured from the seed blocking implementation; see module docs.
    let goldens = [
        (
            2u32,
            7u64,
            "8886a514ad361fa118a1cd73380944296912afb00629fe37c99c8726ad1b0d7d",
        ),
        (
            3,
            1,
            "684a19cb10dbeaba3949453ae485980ca375f9c229f1eace542103ac528e20c8",
        ),
        (
            5,
            42,
            "2fa3cedbb0f1e3e5c0e7c94e6337d687cdaa44cfa692f150bce416b9c287822c",
        ),
        (
            8,
            1,
            "8c4b34ccdd04863be792a94715b0eed12d8c34832f05560992c7a550e0aedf61",
        ),
    ];
    for (n, seed, want) in goldens {
        let keys = pkg().extract_group(n);
        let (report, _) = proposed::run(pkg().params(), &keys, seed, RunConfig::default());
        assert_eq!(key_hex(report.key()), want, "n={n} seed={seed}");
        assert_eq!(report.attempts, 1);
    }
}

#[test]
fn faulted_retransmission_matches_blocking_driver_golden() {
    let keys = pkg().extract_group(4);
    let config = RunConfig {
        max_attempts: 3,
        fault: Some(proposed::Fault::CorruptX {
            node: 2,
            on_attempt: 0,
        }),
    };
    let (report, _) = proposed::run(pkg().params(), &keys, 9, config);
    assert_eq!(
        key_hex(report.key()),
        "185dd2e4c96b126ab5ceb70997b1105fcdfe797c9ce4ebdc071ed019fd6fa373"
    );
    assert_eq!(report.attempts, 2);
}

#[test]
fn ssn_key_matches_blocking_driver_golden() {
    let mut rng = ChaChaRng::seed_from_u64(0x53534e);
    let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
    let keys = pkg.extract_group(5);
    let report = ssn::run(pkg.params(), &keys, 1);
    assert_eq!(
        key_hex(report.key()),
        "9cff934f1f05c1be4f3163a97022dd63c1ed2bc3778ab00414656ea69c25ed40"
    );
}

#[test]
fn authbd_key_matches_blocking_driver_golden() {
    let mut grng = ChaChaRng::seed_from_u64(0x41424400);
    let g = egka_bigint::gen_schnorr_group(&mut grng, 192, 64);
    let mut rng = ChaChaRng::seed_from_u64(1);
    let kit =
        egka_core::AuthKit::setup_ecdsa(&mut rng, egka_sig::Ecdsa::new(egka_ec::secp160r1()), 5);
    let report = egka_core::authbd::run(&g, &kit, 2);
    assert_eq!(
        key_hex(report.key()),
        "4a1b312d44b98307dfbb99f0d3c5e2b37a77bb8fb0c93066"
    );
}

#[test]
fn dynamics_keys_match_blocking_driver_goldens() {
    let mut rng = ChaChaRng::seed_from_u64(0xd1a_0000 ^ 1);
    let pkg = Pkg::setup(&mut rng, SecurityProfile::Toy);
    let keys = pkg.extract_group(5);
    let (_, s0) = proposed::run(pkg.params(), &keys, 11, RunConfig::default());
    let nk = pkg.extract(UserId(5));

    let joined = dynamics::join(&s0, UserId(5), &nk, 99, true);
    assert_eq!(
        key_hex(&joined.session.key),
        "2aa832f5f92d6479522152e747e27d8f67b56007851ef08b751e7bce497a3276"
    );
    let joined_paper = dynamics::join(&s0, UserId(5), &nk, 99, false);
    assert_eq!(joined_paper.session.key, joined.session.key);

    let left = dynamics::leave(&joined.session, 3, 50);
    assert_eq!(
        key_hex(&left.session.key),
        "521feaacaf471cf5c07ca130b0dd9bd8ba56fe539d1aa13ec35d42367fb19d83"
    );

    let part = dynamics::partition(&joined.session, &[1, 4], 52);
    assert_eq!(
        key_hex(&part.session.key),
        "33dd6b8b72be39072d1228dec44d31e6a90f10ae9d23c7522087e2ac48d34398"
    );

    let keys_b: Vec<_> = (20u32..24).map(|i| pkg.extract(UserId(i))).collect();
    let (_, sb) = proposed::run(pkg.params(), &keys_b, 12, RunConfig::default());
    let merged = dynamics::merge(&s0, &sb, 21);
    assert_eq!(
        key_hex(&merged.session.key),
        "4bbfb29a5db1c40b08bc159e96bed6a98939802cfdeeba5bab070766a0a16ef3"
    );
    assert_eq!(merged.reports[0].counts.tx_bits, 6496, "merge U1 tx bits");
    assert_eq!(merged.reports[0].counts.rx_bits, 5408, "merge U1 rx bits");
}

/// Replays exactly the per-node RNG draw sequence of the (machine and
/// blocking) proposed driver and evaluates the BD closed form directly.
fn oracle_key(n: u32, seed: u64) -> egka_bigint::Ubig {
    let params = pkg().params();
    let rs: Vec<egka_bigint::Ubig> = (0..n as u64)
        .map(|i| {
            let mut rng = ChaChaRng::seed_from_u64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let share = bd::round1_share(&mut rng, &params.bd);
            // The driver's second draw (the GQ commitment) does not enter
            // the key; replay it only to mirror the stream.
            let _ = params.gq.commit(&mut rng);
            share.r
        })
        .collect();
    bd::compute_key_reference(&params.bd, &rs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The poll-driven engine derives exactly the key the RNG streams
    /// dictate (no hidden draw reordering anywhere in the machines), and
    /// every node's traffic matches the paper's closed form.
    #[test]
    fn engine_key_and_traffic_match_oracle(n in 2u32..9, seed in any::<u64>()) {
        let keys = pkg().extract_group(n);
        let (report, session) = proposed::run(pkg().params(), &keys, seed, RunConfig::default());
        prop_assert_eq!(report.key(), &oracle_key(n, seed), "n={} seed={}", n, seed);
        prop_assert!(session.invariant_holds());
        let expect = InitialProtocol::ProposedGqBatch.per_user_counts(u64::from(n));
        for node in &report.nodes {
            prop_assert_eq!(node.counts.tx_bits, expect.tx_bits);
            prop_assert_eq!(node.counts.rx_bits, expect.rx_bits);
            prop_assert_eq!(node.counts.msgs_tx, expect.msgs_tx);
            prop_assert_eq!(node.counts.msgs_rx, expect.msgs_rx);
            prop_assert_eq!(node.counts.exps(), expect.exps());
        }
    }

    /// Interleaving many runs on one scheduler thread changes nothing:
    /// same keys, same traffic as dedicated back-to-back runs.
    #[test]
    fn interleaved_scheduling_is_transparent(seed in any::<u64>()) {
        let params = pkg().params();
        let keys_a = pkg().extract_group(4);
        let keys_b = pkg().extract_group(6);
        let (ra, _) = proposed::run(params, &keys_a, seed, RunConfig::default());
        let (rb, _) = proposed::run(params, &keys_b, seed ^ 1, RunConfig::default());

        use egka_core::machine::Faults;
        use egka_core::proposed::{gq_creds, GkaRun};
        use egka_core::SuiteRun;
        let (creds_a, creds_b) = (gq_creds(&keys_a), gq_creds(&keys_b));
        let mut a = GkaRun::new(params, &creds_a, seed, RunConfig::default(), &Faults::none());
        let mut b = GkaRun::new(params, &creds_b, seed ^ 1, RunConfig::default(), &Faults::none());
        // Deliberately lopsided round-robin: b gets two quanta per sweep.
        while !(a.is_done() && b.is_done()) {
            a.pump();
            b.pump();
            b.pump();
        }
        let (ia, _) = a.finish();
        let (ib, _) = b.finish();
        prop_assert_eq!(ia.key(), ra.key());
        prop_assert_eq!(ib.key(), rb.key());
        for (x, y) in ia.nodes.iter().zip(&ra.nodes) {
            prop_assert_eq!(&x.counts, &y.counts);
        }
        for (x, y) in ib.nodes.iter().zip(&rb.nodes) {
            prop_assert_eq!(&x.counts, &y.counts);
        }
    }
}
