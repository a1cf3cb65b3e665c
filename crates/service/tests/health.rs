//! Health-plane reconciliation properties.
//!
//! 1. Per-shard [`ShardStats`] are an exact *partition* of the service
//!    totals: over random churn (creates, joins, leaves, merges,
//!    detaches, loss) and across a shard's retirement, every
//!    [`egka_service::Counters`] field sums precisely to
//!    [`egka_service::ServiceMetrics`]'s, energy to floating-point
//!    association order.
//! 2. The stall ledger's consecutive-epoch counter grows while a member
//!    keeps a group stalled and resets on the first successful rekey,
//!    while the cumulative counter never forgets.

use std::sync::Arc;

use egka_core::{Pkg, SecurityProfile, UserId};
use egka_hash::ChaChaRng;
use egka_service::{HealthReport, KeyService, MembershipEvent, ShardStats, STALLED_AFTER_EPOCHS};
use proptest::prelude::*;
use rand::SeedableRng;

fn service(seed: u64, shards: usize) -> KeyService {
    let mut rng = ChaChaRng::seed_from_u64(0x4ea1 ^ seed);
    let pkg = Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy));
    KeyService::builder().shards(shards).seed(seed).build(pkg)
}

/// Group `g`'s founders are `g*100 .. g*100+size`.
fn founders(g: u64, size: u32) -> Vec<UserId> {
    (0..size).map(|i| UserId(g as u32 * 100 + i)).collect()
}

fn assert_reconciles(svc: &KeyService) {
    if let Err(e) = ShardStats::reconcile(&svc.shard_stats(), svc.metrics()) {
        panic!("per-shard stats do not partition the service totals: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random churn over several epochs; after every tick the per-shard
    /// stats must partition the cumulative service metrics exactly.
    #[test]
    fn shard_stats_partition_service_metrics(
        seed in 0u64..1_000,
        shards in 1usize..5,
        n_groups in 2u64..6,
        sizes in proptest::collection::vec(3u32..6, 5),
        epochs in 2u64..5,
        loss_pct in 0u32..30,
    ) {
        let mut svc = service(seed, shards);
        for g in 0..n_groups {
            svc.create_group(g, &founders(g, sizes[g as usize % sizes.len()])).unwrap();
        }
        // Below 5% acts as the lossless case.
        if loss_pct >= 5 {
            svc.set_loss(f64::from(loss_pct) / 100.0);
        }
        for e in 0..epochs {
            for g in 0..n_groups {
                let base = g as u32 * 100;
                match (e + g) % 4 {
                    0 => { let _ = svc.submit(g, MembershipEvent::Join(UserId(base + 50 + e as u32))); }
                    1 => { let _ = svc.submit(g, MembershipEvent::Leave(UserId(base))); }
                    2 => { let _ = svc.submit(g, MembershipEvent::MergeWith((g + 1) % n_groups)); }
                    _ => {
                        // A join/leave pair that cancels, plus a detach to
                        // exercise the stall path.
                        let u = UserId(base + 70 + e as u32);
                        let _ = svc.submit(g, MembershipEvent::Join(u));
                        let _ = svc.submit(g, MembershipEvent::Leave(u));
                        if e == 1 {
                            svc.detach_member(UserId(base + 1));
                        }
                    }
                }
            }
            svc.tick();
            assert_reconciles(&svc);
        }
    }
}

/// Retiring a shard folds its history into shard 0's row: the rows still
/// partition the totals, and nothing the retired shard counted is lost.
#[test]
fn retiring_a_shard_keeps_the_partition() {
    let mut svc = service(11, 3);
    for g in 0..6 {
        svc.create_group(g, &founders(g, 4)).unwrap();
    }
    // Make sure the shard to retire hosts work: pin a group onto it.
    svc.move_group(0, 2).unwrap();
    for e in 0..3u32 {
        for g in svc.group_ids() {
            let u = UserId(g as u32 * 100 + 50 + e);
            svc.submit(g, MembershipEvent::Join(u)).unwrap();
        }
        svc.submit(0, MembershipEvent::MergeWith(5 - e as u64))
            .unwrap();
        svc.tick();
    }
    let before = svc.shard_stats();
    let retired = before[2].clone();
    assert!(retired.rekeys_executed > 0 && retired.energy_mj > 0.0);
    assert!(retired.full_gka_runs + retired.events_applied > 0);
    svc.remove_shard(2).unwrap();
    assert_reconciles(&svc);
    let after = svc.shard_stats();
    assert_eq!(after.len(), 2);
    assert_eq!(
        after[0].rekeys_executed,
        before[0].rekeys_executed + retired.rekeys_executed
    );
    assert_eq!(after[0].ops, {
        let mut sum = before[0].counters.clone();
        sum.add(&retired.counters);
        sum.ops
    });
    // Work after the retirement keeps reconciling.
    for g in svc.group_ids() {
        svc.submit(g, MembershipEvent::Join(UserId(9_000 + g as u32)))
            .unwrap();
    }
    svc.tick();
    assert_reconciles(&svc);
}

#[test]
fn stall_ledger_streak_resets_on_success_and_health_tracks_it() {
    let mut svc = service(7, 2);
    svc.create_group(1, &founders(1, 4)).unwrap();
    svc.create_group(2, &founders(2, 4)).unwrap();
    assert_eq!(svc.health(), HealthReport::Healthy);

    // Member 101 powers off; group 1's leave of member 100 now needs the
    // silent 101 and stalls every epoch, while group 2 churns happily.
    let culprit = UserId(101);
    svc.detach_member(culprit);
    svc.submit(1, MembershipEvent::Leave(UserId(100))).unwrap();
    for e in 1..=STALLED_AFTER_EPOCHS {
        svc.submit(2, MembershipEvent::Join(UserId(250 + e as u32)))
            .unwrap();
        svc.tick();
        let stall = svc.stall_ledger().member(1, culprit).expect("attributed");
        assert_eq!(stall.consecutive, e);
        assert_eq!(stall.cumulative, e);
        // Group 2 keeps succeeding: its streak stays closed.
        assert!(svc.stall_ledger().member(2, UserId(201)).is_none());
        if e < STALLED_AFTER_EPOCHS {
            assert!(
                matches!(svc.health(), HealthReport::Degraded { .. }),
                "short streak degrades"
            );
        }
    }
    assert_eq!(
        svc.health(),
        HealthReport::Stalled { groups: vec![1] },
        "streak of {STALLED_AFTER_EPOCHS} flags the group"
    );

    // The member comes back; the requeued leave applies and the streak
    // closes — but the cumulative history survives.
    svc.attach_member(culprit);
    let report = svc.tick();
    assert_eq!(report.rekeys_executed, 1);
    let stall = svc.stall_ledger().member(1, culprit).expect("history kept");
    assert_eq!(stall.consecutive, 0);
    assert_eq!(stall.cumulative, STALLED_AFTER_EPOCHS);
    assert_eq!(svc.health(), HealthReport::Healthy);
}
