//! The protocol-erased suite boundary, exercised end to end through
//! `KeyService`:
//!
//! 1. **Every suite serves**: all five Table 1 protocols run the full
//!    service lifecycle (create → churn → tick) behind `dyn Suite`, with
//!    correct membership and fresh keys.
//! 2. **Liveness per suite**: one detached member stalls only its own
//!    group, whichever protocol it runs.
//! 3. **Policy**: `SuitePolicy::Cheapest` equals the closed-form argmin
//!    (proptest over sizes, join batches and both paper transceivers),
//!    picks different suites for different hardware profiles, and
//!    migrates a group across the crossover at a full rekey.
//! 4. **Golden**: `Fixed(Proposed)` planning is bit-for-bit the legacy
//!    planner.
//! 5. **Credentials travel with the member**: a BD+ECDSA member keeps one
//!    certificate and key through rekeys, merges, handoffs and recovery.

use std::sync::Arc;

use egka_core::suite::SuiteId;
use egka_core::{Credential, Pkg, SecurityProfile, UserId};
use egka_energy::{CpuModel, OpCounts, Scheme, Transceiver};
use egka_hash::ChaChaRng;
use egka_service::{
    plan_group, plan_group_suite, CostModel, KeyService, MemStore, MembershipEvent, StoreConfig,
    SuitePolicy,
};
use proptest::prelude::*;
use rand::SeedableRng;

/// Shared toy PKG (parameter generation is too slow to re-run per case).
fn pkg() -> &'static Arc<Pkg> {
    use std::sync::OnceLock;
    static PKG: OnceLock<Arc<Pkg>> = OnceLock::new();
    PKG.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0x5017e5);
        Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy))
    })
}

fn fixed_service(seed: u64, id: SuiteId) -> KeyService {
    KeyService::builder()
        .shards(2)
        .seed(seed)
        .suite_policy(SuitePolicy::Fixed(id))
        .build(Arc::clone(pkg()))
}

fn sensor_cheapest() -> SuitePolicy {
    SuitePolicy::Cheapest {
        cpu: CpuModel::strongarm_133(),
        transceiver: Transceiver::radio_100kbps(),
    }
}

fn wlan_cheapest() -> SuitePolicy {
    SuitePolicy::Cheapest {
        cpu: CpuModel::strongarm_133(),
        transceiver: Transceiver::wlan_spectrum24(),
    }
}

#[test]
fn every_suite_runs_the_service_lifecycle_end_to_end() {
    for (i, id) in SuiteId::ALL.into_iter().enumerate() {
        let mut svc = fixed_service(0x51 ^ i as u64, id);
        let members: Vec<UserId> = (0..4).map(UserId).collect();
        svc.create_group(9, &members).unwrap();
        assert_eq!(svc.suite_of(9), Some(id), "{}", id.key());
        let key0 = svc.group_key(9).unwrap().clone();

        svc.submit(9, MembershipEvent::Join(UserId(100))).unwrap();
        svc.submit(9, MembershipEvent::Leave(UserId(1))).unwrap();
        let report = svc.tick();
        assert_eq!(report.events_applied, 2, "{}", id.key());
        assert!(report.rekeys_executed >= 1, "{}", id.key());
        assert!(report.energy_mj > 0.0, "{}", id.key());
        // The epoch's cost ledger attributes the work to the right suite.
        let usage = report.per_suite.get(&id).expect("suite charged");
        assert!(usage.rekeys >= 1 && usage.energy_mj > 0.0, "{}", id.key());

        let s = svc.session(9).unwrap();
        assert_eq!(s.n(), 4, "{}", id.key());
        assert!(s.contains(UserId(100)), "{}", id.key());
        assert!(!s.contains(UserId(1)), "{}", id.key());
        assert_ne!(
            &key0,
            svc.group_key(9).unwrap(),
            "{}: key must change on churn",
            id.key()
        );
        // The proposed suite's ring invariant is checkable; baselines
        // re-derive their sessions from full runs, whose BD share
        // invariant also holds except for SSN's confirmation exponent.
        if id != SuiteId::Ssn {
            assert!(s.invariant_holds(), "{}", id.key());
        }
    }
}

#[test]
fn every_suite_is_deterministic_per_seed() {
    for id in SuiteId::ALL {
        let run = |seed: u64| {
            let mut svc = fixed_service(seed, id);
            svc.create_group(3, &(0..5).map(UserId).collect::<Vec<_>>())
                .unwrap();
            svc.submit(3, MembershipEvent::Join(UserId(50))).unwrap();
            svc.tick();
            svc.group_key(3).unwrap().clone()
        };
        assert_eq!(run(7), run(7), "{}: same seed, same key", id.key());
        assert_ne!(run(7), run(8), "{}: seed must matter", id.key());
    }
}

#[test]
fn one_detached_member_stalls_only_its_group_under_every_suite() {
    for (i, id) in SuiteId::ALL.into_iter().enumerate() {
        let mut svc = fixed_service(0xde7ac ^ i as u64, id);
        for g in 0..3u64 {
            let base = g as u32 * 10;
            svc.create_group(g, &(base..base + 4).map(UserId).collect::<Vec<_>>())
                .unwrap();
        }
        let keys_before: Vec<_> = (0..3u64)
            .map(|g| svc.group_key(g).unwrap().clone())
            .collect();
        // Member 12 (group 1) powers off; every group gets churn.
        svc.detach_member(UserId(12));
        for g in 0..3u64 {
            svc.submit(g, MembershipEvent::Join(UserId(100 + g as u32)))
                .unwrap();
        }
        let report = svc.tick();
        assert_eq!(report.groups_stalled, 1, "{}", id.key());
        assert_eq!(
            svc.group_key(1).unwrap(),
            &keys_before[1],
            "{}: stalled group keeps its pre-epoch key",
            id.key()
        );
        for g in [0u64, 2] {
            assert_ne!(
                svc.group_key(g).unwrap(),
                &keys_before[g as usize],
                "{}: healthy groups rekeyed in the same epoch",
                id.key()
            );
        }
        // Recovery: reattach, next tick applies the requeued join.
        svc.attach_member(UserId(12));
        let report = svc.tick();
        assert_eq!(report.groups_stalled, 0, "{}", id.key());
        assert!(
            svc.session(1).unwrap().contains(UserId(101)),
            "{}",
            id.key()
        );
    }
}

#[test]
fn cheapest_picks_different_suites_for_different_hardware_profiles() {
    let cost = CostModel::default();
    // 3-member groups on the 100 kbps sensor radio: the ECDSA baseline's
    // smaller wire format wins. On the WLAN card traffic is nearly free,
    // so the proposed scheme's cheap compute wins at the same size.
    let on_radio = sensor_cheapest().choose(&cost, 3, 0);
    let on_wlan = wlan_cheapest().choose(&cost, 3, 0);
    assert_eq!(on_radio, SuiteId::BdEcdsa);
    assert_eq!(on_wlan, SuiteId::Proposed);
    assert_ne!(on_radio, on_wlan, "hardware profile must matter");
    // And group size matters too: by n = 10 the batch verification
    // dominates everywhere (Figure 1's story).
    assert_eq!(sensor_cheapest().choose(&cost, 10, 0), SuiteId::Proposed);
    assert_eq!(wlan_cheapest().choose(&cost, 10, 0), SuiteId::Proposed);
}

#[test]
fn cheapest_service_founds_a_mixed_fleet_and_reports_per_suite_costs() {
    let mut svc = KeyService::builder()
        .shards(2)
        .seed(0xa11)
        .suite_policy(sensor_cheapest())
        .build(Arc::clone(pkg()));
    svc.create_group(1, &[UserId(0), UserId(1)]).unwrap();
    svc.create_group(2, &(10..16).map(UserId).collect::<Vec<_>>())
        .unwrap();
    assert_eq!(svc.suite_of(1), Some(SuiteId::BdEcdsa), "small group");
    assert_eq!(svc.suite_of(2), Some(SuiteId::Proposed), "large group");
    let mix = svc.groups_per_suite();
    assert_eq!(mix.len(), 2);
    let m = svc.metrics();
    assert!(m.per_suite.get(&SuiteId::BdEcdsa).unwrap().energy_mj > 0.0);
    assert!(m.per_suite.get(&SuiteId::Proposed).unwrap().energy_mj > 0.0);
}

#[test]
fn baseline_group_migrates_to_proposed_when_it_outgrows_the_crossover() {
    let mut svc = KeyService::builder()
        .shards(2)
        .seed(0x916)
        .suite_policy(sensor_cheapest())
        .build(Arc::clone(pkg()));
    svc.create_group(4, &[UserId(0), UserId(1)]).unwrap();
    assert_eq!(svc.suite_of(4), Some(SuiteId::BdEcdsa));
    // Three arrivals push the final size to 5 — past the crossover. The
    // baseline realizes the batch as one full rekey, at which the policy
    // re-picks the suite: the group migrates.
    for u in 100..103u32 {
        svc.submit(4, MembershipEvent::Join(UserId(u))).unwrap();
    }
    let report = svc.tick();
    assert_eq!(report.rekeys_executed, 1, "one full re-run covers all 3");
    assert_eq!(svc.suite_of(4), Some(SuiteId::Proposed), "migrated");
    let s = svc.session(4).unwrap();
    assert_eq!(s.n(), 5);
    assert!(s.invariant_holds(), "proposed session after migration");
    // From here the group uses native §7 dynamics again.
    svc.submit(4, MembershipEvent::Leave(UserId(100))).unwrap();
    let report = svc.tick();
    assert_eq!(report.rekeys_executed, 1);
    assert_eq!(svc.session(4).unwrap().n(), 4);
}

/// Fixed(Proposed) planning is the legacy planner, bit for bit.
fn arbitrary_events(n_members: u32) -> impl Strategy<Value = Vec<MembershipEvent>> {
    prop::collection::vec(any::<u64>(), 0..8).prop_map(move |words| {
        words
            .into_iter()
            .map(|w| {
                let u = UserId(((w >> 1) % u64::from(n_members + 6)) as u32);
                if w & 1 == 0 {
                    MembershipEvent::Join(u)
                } else {
                    MembershipEvent::Leave(u)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `SuitePolicy::Cheapest` returns exactly the argmin of the
    /// per-suite closed-form totals (initial + pending joins) over random
    /// group sizes, join batch sizes, and both paper hardware profiles.
    #[test]
    fn cheapest_is_the_closed_form_argmin(
        n in 2u64..200,
        k in 0u64..6,
        wlan in any::<bool>(),
        composable in any::<bool>(),
    ) {
        let cost = CostModel { composable_joins: composable, ..CostModel::default() };
        let transceiver = if wlan {
            Transceiver::wlan_spectrum24()
        } else {
            Transceiver::radio_100kbps()
        };
        let cpu = CpuModel::strongarm_133();
        let policy = SuitePolicy::Cheapest { cpu: cpu.clone(), transceiver: transceiver.clone() };
        let chosen = policy.choose(&cost, n, k);

        let priced = CostModel { cpu, radio: transceiver, composable_joins: composable };
        let mj = |id: SuiteId| {
            let mut total = priced.suite_initial_total(id, n);
            total.merge(&priced.suite_joins_total(id, n, k));
            priced.price_mj(&total)
        };
        let best = mj(chosen);
        for id in SuiteId::ALL {
            prop_assert!(
                best <= mj(id),
                "{} ({best} mJ) must not lose to {} ({} mJ) at n={n}, k={k}",
                chosen.key(), id.key(), mj(id)
            );
        }
        // Strict argmin up to ties; ties break toward the earlier column.
        for id in SuiteId::ALL {
            if id < chosen {
                prop_assert!(mj(id) > best, "tie must break toward {}", id.key());
            }
        }
    }

    /// The suite-aware planner under `Fixed(Proposed)` reproduces the
    /// legacy proposed planner bit for bit — steps, admission accounting
    /// and all.
    #[test]
    fn fixed_proposed_planning_matches_the_legacy_planner(
        n in 3u32..8,
        seed in any::<u64>(),
        events in arbitrary_events(8),
    ) {
        let mut svc = fixed_service(seed, SuiteId::Proposed);
        let members: Vec<UserId> = (0..n).map(UserId).collect();
        svc.create_group(1, &members).unwrap();
        let session = svc.session(1).unwrap();
        let cost = CostModel::default();
        let legacy = plan_group(session, &events, &cost);
        let erased = plan_group_suite(
            session,
            &events,
            &cost,
            SuiteId::Proposed,
            &SuitePolicy::Fixed(SuiteId::Proposed),
        );
        prop_assert_eq!(&legacy.steps, &erased.steps);
        prop_assert_eq!(legacy.events_applied, erased.events_applied);
        prop_assert_eq!(legacy.events_cancelled, erased.events_cancelled);
        prop_assert_eq!(&legacy.rejected, &erased.rejected);
        prop_assert_eq!(erased.suite, SuiteId::Proposed);
    }

    /// A baseline suite collapses any net change into exactly one full
    /// rekey over the final membership (or a dissolve) — never a §7 step.
    #[test]
    fn baseline_plans_are_single_full_rekeys(
        n in 2u32..8,
        seed in any::<u64>(),
        events in arbitrary_events(8),
    ) {
        let mut svc = fixed_service(seed, SuiteId::Ssn);
        let members: Vec<UserId> = (0..n).map(UserId).collect();
        svc.create_group(1, &members).unwrap();
        let session = svc.session(1).unwrap();
        let cost = CostModel::default();
        let plan = plan_group_suite(
            session,
            &events,
            &cost,
            SuiteId::Ssn,
            &SuitePolicy::Fixed(SuiteId::Ssn),
        );
        prop_assert!(plan.steps.len() <= 1, "one step at most: {:?}", plan.steps);
        if let Some(step) = plan.steps.first() {
            prop_assert!(
                matches!(
                    step,
                    egka_service::RekeyStep::FullRekey { .. } | egka_service::RekeyStep::Dissolve
                ),
                "baseline step must be a full rekey or dissolve: {step:?}"
            );
        }
        // And the admission accounting matches the legacy planner's (the
        // event-folding rules are protocol independent).
        let legacy = plan_group(session, &events, &cost);
        prop_assert_eq!(legacy.events_applied, plan.events_applied);
        prop_assert_eq!(legacy.events_cancelled, plan.events_cancelled);
        prop_assert_eq!(&legacy.rejected, &plan.rejected);
    }
}

#[test]
fn suite_closed_forms_price_the_instrumented_service_runs() {
    // A Fixed(BdEcdsa) group creation's metered ops equal the closed-form
    // initial total the planner prices — the consistency the whole
    // cost-aware selection rests on.
    for id in [SuiteId::BdEcdsa, SuiteId::Ssn, SuiteId::Proposed] {
        let mut svc = fixed_service(0xc057 ^ id as u64, id);
        svc.create_group(1, &(0..5).map(UserId).collect::<Vec<_>>())
            .unwrap();
        let measured: &OpCounts = &svc.metrics().ops;
        let expect = CostModel::default().suite_initial_total(id, 5);
        assert_eq!(measured.exps(), expect.exps(), "{}", id.key());
        assert_eq!(measured.tx_bits, expect.tx_bits, "{}", id.key());
        assert_eq!(measured.rx_bits, expect.rx_bits, "{}", id.key());
    }
}

/// The certificate and secret key of an ECDSA credential, as bytes.
fn ecdsa_bytes(c: &Credential) -> (Vec<u8>, Vec<u8>) {
    match c {
        Credential::Ecdsa(c) => (c.cert.encode(), c.key.d.to_bytes_be()),
        other => panic!(
            "a BD+ECDSA member carries a {:?} credential",
            other.scheme()
        ),
    }
}

/// The credential `id` carries in group `gid`, if its session holds one.
fn carried(svc: &KeyService, gid: u64, id: UserId) -> Option<(Vec<u8>, Vec<u8>)> {
    let s = svc.session(gid).expect("a live group");
    let m = &s.members[s.position_of(id).expect("a member")];
    m.cred.as_deref().map(ecdsa_bytes)
}

#[test]
fn a_bd_ecdsa_member_keeps_its_credential_through_rekey_merge_handoff_and_recovery() {
    let store = StoreConfig::new(Arc::new(MemStore::new())).snapshot_every(0);
    let builder = || {
        KeyService::builder()
            .shards(2)
            .seed(0xce27)
            .suite_policy(SuitePolicy::Fixed(SuiteId::BdEcdsa))
            .store(store.clone())
    };
    let issued = |u: u32| ecdsa_bytes(&pkg().authority().credential(Scheme::Ecdsa, UserId(u)));
    let (alice, bob) = (UserId(1), UserId(11));
    let check = |svc: &KeyService, step: &str| {
        assert_eq!(carried(svc, 1, alice), Some(issued(1)), "{step}: U1");
        if svc.session(1).unwrap().contains(bob) {
            assert_eq!(carried(svc, 1, bob), Some(issued(11)), "{step}: U11");
        }
    };

    let mut svc = builder().build(Arc::clone(pkg()));
    svc.create_group(1, &(0..4).map(UserId).collect::<Vec<_>>())
        .unwrap();
    svc.create_group(2, &(10..13).map(UserId).collect::<Vec<_>>())
        .unwrap();
    check(&svc, "create");

    svc.submit(1, MembershipEvent::Join(UserId(50))).unwrap();
    svc.submit(1, MembershipEvent::Leave(UserId(3))).unwrap();
    svc.tick();
    assert!(svc.session(1).unwrap().contains(UserId(50)));
    check(&svc, "rekey");

    svc.submit(1, MembershipEvent::MergeWith(2)).unwrap();
    svc.tick();
    assert!(svc.session(1).unwrap().contains(bob), "the merge folded");
    check(&svc, "merge");

    let to = 1 - svc.shard_of(1);
    svc.move_group(1, to).unwrap();
    svc.submit(1, MembershipEvent::Leave(UserId(50))).unwrap();
    svc.tick();
    assert_eq!(svc.shard_of(1), to);
    check(&svc, "handoff");

    svc.snapshot_now();
    let (mut recovered, _) = builder().recover(Arc::clone(pkg())).unwrap();
    for s in [&mut svc, &mut recovered] {
        s.submit(1, MembershipEvent::Join(UserId(60))).unwrap();
        s.tick();
    }
    check(&recovered, "snapshot + recover");
    assert_eq!(recovered.group_key(1), svc.group_key(1));
    for u in recovered.session(1).unwrap().member_ids() {
        assert_eq!(carried(&recovered, 1, u), carried(&svc, 1, u), "{u:?}");
    }
}

/// Whether every member of group `gid` carries a GQ key.
fn all_carry_gq(svc: &KeyService, gid: u64) -> bool {
    let s = svc.session(gid).expect("a live group");
    s.members
        .iter()
        .all(|m| m.cred.as_ref().is_some_and(|c| c.scheme() == Scheme::Gq))
}

#[test]
fn proposed_merges_fold_bd_ecdsa_groups_live_and_after_recovery() {
    let store = StoreConfig::new(Arc::new(MemStore::new())).snapshot_every(0);
    let builder = || {
        KeyService::builder()
            .shards(2)
            .seed(0x3e76)
            .suite_policy(sensor_cheapest())
            .store(store.clone())
    };
    let mut svc = builder().build(Arc::clone(pkg()));
    // Two proposed groups and two BD+ECDSA pairs (the sensor radio's
    // crossover lies between 3 and 10 members).
    let founded = [
        (1, 0..6, SuiteId::Proposed),
        (2, 10..12, SuiteId::BdEcdsa),
        (3, 20..22, SuiteId::BdEcdsa),
        (4, 30..36, SuiteId::Proposed),
    ];
    for (gid, ids, suite) in founded {
        svc.create_group(gid, &ids.map(UserId).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(svc.suite_of(gid), Some(suite), "group {gid}");
    }
    svc.snapshot_now();
    let (mut recovered, _) = builder().recover(Arc::clone(pkg())).unwrap();

    for s in [&mut svc, &mut recovered] {
        // A proposed host folds a BD+ECDSA target with its native Merge;
        // a BD+ECDSA host's re-run migrates to proposed at the merged size
        // and folds a proposed target.
        s.submit(1, MembershipEvent::MergeWith(2)).unwrap();
        s.submit(3, MembershipEvent::MergeWith(4)).unwrap();
        s.tick();
        for (gid, n) in [(1, 8), (3, 8)] {
            assert_eq!(s.session(gid).unwrap().n(), n, "group {gid} merged");
            assert_eq!(s.suite_of(gid), Some(SuiteId::Proposed));
            assert!(all_carry_gq(s, gid), "group {gid}");
        }
        // Later native steps may have any member sign, the former BD+ECDSA
        // members included.
        for (gid, u) in [(1, 0), (1, 10), (3, 21), (3, 30)] {
            s.submit(gid, MembershipEvent::Leave(UserId(u))).unwrap();
        }
        s.tick();
        for gid in [1, 3] {
            assert_eq!(s.session(gid).unwrap().n(), 6, "group {gid} left");
            assert!(s.session(gid).unwrap().invariant_holds());
        }
    }
    for gid in [1, 3] {
        assert_eq!(recovered.group_key(gid), svc.group_key(gid), "group {gid}");
    }
}
