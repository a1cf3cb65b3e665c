//! # egka-service — sharded multi-group key management with epoch-batched
//! rekeying
//!
//! The paper's protocols run one group at a time; production serves *many
//! thousands of concurrent groups* under *continuous membership churn*.
//! This crate is the service layer that closes that gap:
//!
//! ## Architecture
//!
//! ```text
//!                 ┌──────────────────────────────────────────────┐
//!   create_group  │ KeyService                                   │
//!   submit(event) │   epoch tick                                 │
//!   tick()  ─────▶│   1. coordinator: cross-group MergeWith      │
//!                 │      requests → one merge_many fold          │
//!                 │   2. shard fan-out (threads)                 │
//!                 │   ┌─────────┐ ┌─────────┐     ┌─────────┐    │
//!                 │   │ shard 0 │ │ shard 1 │  …  │ shard N │    │
//!                 │   │ groups  │ │ groups  │     │ groups  │    │
//!                 │   │ queues  │ │ queues  │     │ queues  │    │
//!                 │   │ ⟲ pump  │ │ ⟲ pump  │     │ ⟲ pump  │    │
//!                 │   └─────────┘ └─────────┘     └─────────┘    │
//!                 └──────────────────────────────────────────────┘
//! ```
//!
//! * **Sharded registry** (shard layer): the [`ShardDirectory`] places
//!   groups on `N` worker shards — [`jump_hash`] homes by default
//!   (consistent: growing the pool relocates only `≈ 1/(N+1)` of the
//!   groups), per-group pins after a live [`KeyService::move_group`]
//!   handoff; during a tick each shard runs single-threaded over its own
//!   groups, so group state needs **no locking** and results are
//!   deterministic regardless of thread scheduling. Only shards — never
//!   individual groups — are fanned across threads.
//! * **Elastic resharding** ([`KeyService::add_shard`],
//!   [`KeyService::remove_shard`], [`KeyService::move_group`], an armed
//!   [`Rebalancer`]): the pool grows and shrinks *live*. Handoffs run
//!   through the sealed snapshot codec between epochs (seal, install on
//!   the target shard, flip the directory — no replay, no stalled
//!   epochs), every placement mutation gets its own WAL record so
//!   recovery rebuilds the directory bit for bit, and the rebalancer
//!   drains pending-event hot spots with cooldown hysteresis.
//! * **Shards are schedulers, not drivers**: every rekey step is a
//!   sans-IO `egka_core::machine` execution, and within a tick the shard
//!   **interleaves** all pending groups' round machines round-robin
//!   (`pump` in the diagram). A group stalled by a powered-off member or
//!   persistent loss is detected, retried with fresh randomness, and
//!   finally given up on — keeping its pre-epoch key, requeueing its events
//!   — while every other group on the shard completes in the same epoch.
//! * **Epoch-batched rekey coordinator** ([`plan`]): membership events
//!   queue per group between ticks; each tick collapses a queue into the
//!   **minimal sequence of the paper's §7 dynamics** — k leaves become one
//!   Partition, k joins become either k paper Joins or one newcomer GKA +
//!   Merge (whichever the paper's own closed-form energy model prices
//!   cheaper), a join cancelled by a leave of the same pending user costs
//!   nothing, and cross-group merge requests fold with one `merge_many`.
//! * **Metrics** ([`metrics`]): one [`Counters`] block — events
//!   coalesced, rekeys executed/failed, steps retransmitted, priced
//!   energy (mJ), operation counts and `egka_medium::TrafficStats` —
//!   embedded per epoch ([`EpochReport`]), per shard ([`ShardStats`]) and
//!   cumulatively ([`ServiceMetrics`]), so the shard rows partition the
//!   total by construction.
//!
//! Every rekey executes the real protocols over the simulated medium —
//! keys are derived by actual modular arithmetic on every simulated node
//! and the per-node meters feed straight into the paper's pricing, so
//! service-level energy totals are *measurements*, not estimates.
//!
//! ## Mapping onto the paper's §7
//!
//! | queued events                 | executed dynamic                        |
//! |-------------------------------|-----------------------------------------|
//! | 1 leave                       | Leave (reduced rekey)                    |
//! | k ≥ 2 leaves                  | one Partition                            |
//! | 1 join                        | Join                                     |
//! | k ≥ 2 joins                   | min-cost{k × Join, newcomer GKA + Merge} |
//! | k merge requests              | one `merge_many` (k ≥ 2 groups)          |
//! | join+leave of pending user    | nothing                                  |
//! | < 3 survivors                 | full GKA re-run over final membership    |
//!
//! * **Protocol-erased suites** ([`SuitePolicy`]): every group runs one
//!   of the five Table 1 protocols behind `egka_core::suite::Suite` —
//!   fixed fleet-wide, or picked per group by the closed-form energy
//!   argmin for a hardware profile (`Cheapest`), with per-suite costs
//!   surfaced in [`Counters::per_suite`].
//! * **Durability** ([`StoreConfig`], [`ServiceBuilder::store`],
//!   [`ServiceBuilder::recover`]): state-changing calls are write-ahead
//!   logged to an `egka-store` backend with one commit record per applied
//!   epoch (appended before the report is returned), plus periodic
//!   compacting snapshots with session-key material sealed under the
//!   authenticated envelope. Recovery replays snapshot + tail through the
//!   ordinary entry points and reconstructs every shard bit for bit —
//!   groups survive the controller process.
//! * **Robustness** ([`ServiceBuilder::eviction`], `egka-robust`): with
//!   an armed [`EvictionPolicy`], a group whose stall streak crosses the
//!   threshold has the ledger's culprits *evicted* at the next tick —
//!   synthesized Leaves complete the epoch over the survivors, a signed
//!   [`BlameCert`] lands in the WAL so recovery replays the eviction bit
//!   for bit, and evicted members serve an escalating-backoff
//!   [`Quarantine`] before a Join readmits them.
//!
//! ```
//! use std::sync::Arc;
//! use egka_core::{Pkg, SecurityProfile, UserId};
//! use egka_hash::ChaChaRng;
//! use egka_service::{KeyService, MembershipEvent};
//! use rand::SeedableRng;
//!
//! let mut rng = ChaChaRng::seed_from_u64(7);
//! let pkg = Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy));
//! let mut svc = KeyService::builder().build(pkg);
//! svc.create_group(1, &[UserId(0), UserId(1), UserId(2), UserId(3)]).unwrap();
//! svc.submit(1, MembershipEvent::Join(UserId(10))).unwrap();
//! svc.submit(1, MembershipEvent::Leave(UserId(2))).unwrap();
//! let report = svc.tick();
//! assert_eq!(report.events_applied, 2);
//! assert!(svc.session(1).unwrap().invariant_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hashing;
pub mod health;
pub mod metrics;
mod persist;
pub mod plan;
mod service;
mod shard;

pub use egka_core::suite::{Suite, SuiteId};
pub use egka_robust::{BlameCert, EvictionDecision, EvictionPolicy, MemberEvidence, Quarantine};
pub use egka_sig::blame::BlamePublic;
pub use egka_store::{FileStore, MemStore, Store, StoreError};
pub use egka_trace::StallCause;
pub use event::{GroupId, MembershipEvent, RejectReason, ServiceError};
pub use hashing::{jump_hash, ShardDirectory};
pub use health::{
    HealthReport, MemberStall, PhaseBucket, PhaseProfile, ShardStats, StallEvent, StallLedger,
    StallRecord, STALLED_AFTER_EPOCHS,
};
pub use metrics::{quantiles3, Counters, EpochReport, ServiceMetrics, SuiteUsage};
pub use persist::{RecoveryReport, StoreConfig};
pub use plan::{plan_group, plan_group_suite, CostModel, RekeyPlan, RekeyStep, SuitePolicy};
pub use service::{KeyService, RadioConfig, Rebalancer, ServiceBuilder};
pub use shard::{final_membership, GroupState};

#[cfg(test)]
mod tests {
    use super::*;
    use egka_core::{Pkg, SecurityProfile, UserId};
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn service(seed: u64) -> KeyService {
        let mut rng = ChaChaRng::seed_from_u64(0x5e81 ^ seed);
        let pkg = Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy));
        KeyService::builder().seed(seed).build(pkg)
    }

    fn users(range: std::ops::Range<u32>) -> Vec<UserId> {
        range.map(UserId).collect()
    }

    #[test]
    fn create_submit_tick_lifecycle() {
        let mut svc = service(1);
        svc.create_group(7, &users(0..5)).unwrap();
        assert_eq!(svc.groups_active(), 1);
        let key0 = svc.group_key(7).unwrap().clone();

        svc.submit(7, MembershipEvent::Join(UserId(100))).unwrap();
        svc.submit(7, MembershipEvent::Leave(UserId(1))).unwrap();
        let report = svc.tick();
        assert_eq!(report.events_applied, 2);
        assert!(report.rekeys_executed >= 1);
        assert!(report.energy_mj > 0.0);

        let s = svc.session(7).unwrap();
        assert_eq!(s.n(), 5);
        assert!(s.contains(UserId(100)));
        assert!(!s.contains(UserId(1)));
        assert!(s.invariant_holds());
        assert_ne!(&key0, svc.group_key(7).unwrap(), "key must change on churn");
    }

    #[test]
    fn create_group_validates_inputs() {
        let mut svc = service(2);
        assert_eq!(
            svc.create_group(1, &users(0..1)),
            Err(ServiceError::GroupTooSmall)
        );
        assert_eq!(
            svc.create_group(1, &[UserId(3), UserId(3)]),
            Err(ServiceError::DuplicateMember(UserId(3)))
        );
        svc.create_group(1, &users(0..3)).unwrap();
        assert_eq!(
            svc.create_group(1, &users(3..6)),
            Err(ServiceError::GroupExists(1))
        );
        assert_eq!(
            svc.submit(99, MembershipEvent::Join(UserId(9))),
            Err(ServiceError::UnknownGroup(99))
        );
    }

    #[test]
    fn pending_join_cancelled_by_leave_costs_nothing() {
        let mut svc = service(3);
        svc.create_group(4, &users(0..4)).unwrap();
        let key0 = svc.group_key(4).unwrap().clone();
        svc.submit(4, MembershipEvent::Join(UserId(50))).unwrap();
        svc.submit(4, MembershipEvent::Leave(UserId(50))).unwrap();
        let report = svc.tick();
        assert_eq!(report.rekeys_executed, 0, "cancelled pair must not rekey");
        assert_eq!(report.events_cancelled, 2);
        assert_eq!(&key0, svc.group_key(4).unwrap());
    }

    #[test]
    fn flappy_member_nets_to_one_departure() {
        // Leave / Join / Leave of the same live member in one epoch must
        // net to a single departure — not a duplicated leaver that could
        // dissolve the group (regression: the second leave used to push
        // the member into the leaver set twice).
        let mut svc = service(11);
        svc.create_group(6, &users(0..3)).unwrap();
        svc.submit(6, MembershipEvent::Leave(UserId(2))).unwrap();
        svc.submit(6, MembershipEvent::Join(UserId(2))).unwrap();
        svc.submit(6, MembershipEvent::Leave(UserId(2))).unwrap();
        let report = svc.tick();
        assert_eq!(
            report.groups_dissolved, 0,
            "group must survive a flappy member"
        );
        assert_eq!(report.events_cancelled, 2, "re-join + its leave cancel");
        assert_eq!(report.events_applied, 1, "net effect is one departure");
        let s = svc.session(6).expect("group alive");
        assert_eq!(s.n(), 2);
        assert!(!s.contains(UserId(2)));
        assert!(s.invariant_holds());
    }

    #[test]
    fn many_leaves_coalesce_into_one_partition() {
        let mut svc = service(4);
        svc.create_group(2, &users(0..9)).unwrap();
        for u in [1u32, 3, 5] {
            svc.submit(2, MembershipEvent::Leave(UserId(u))).unwrap();
        }
        let report = svc.tick();
        assert_eq!(report.events_applied, 3);
        assert_eq!(report.rekeys_executed, 1, "3 leaves → one Partition");
        assert!(report.coalesce_ratio() > 1.0);
        let s = svc.session(2).unwrap();
        assert_eq!(s.n(), 6);
        assert!(s.invariant_holds());
    }

    #[test]
    fn merge_requests_fold_groups() {
        let mut svc = service(5);
        svc.create_group(10, &users(0..4)).unwrap();
        svc.create_group(20, &users(4..7)).unwrap();
        svc.create_group(30, &users(7..10)).unwrap();
        svc.submit(10, MembershipEvent::MergeWith(20)).unwrap();
        svc.submit(10, MembershipEvent::MergeWith(30)).unwrap();
        let report = svc.tick();
        assert_eq!(report.events_applied, 2);
        assert_eq!(
            report.rekeys_executed, 2,
            "merge_many over 3 groups = 2 folds"
        );
        assert_eq!(svc.groups_active(), 1);
        let s = svc.session(10).unwrap();
        assert_eq!(s.n(), 10);
        assert!(s.invariant_holds());
        assert!(svc.session(20).is_none());
        assert_eq!(svc.metrics().groups_merged_away, 2);
    }

    #[test]
    fn dissolving_group_is_removed() {
        let mut svc = service(6);
        svc.create_group(3, &users(0..3)).unwrap();
        for u in 0..2u32 {
            svc.submit(3, MembershipEvent::Leave(UserId(u))).unwrap();
        }
        let report = svc.tick();
        assert_eq!(report.groups_dissolved, 1);
        assert_eq!(svc.groups_active(), 0);
        assert!(svc.group_key(3).is_none());
        // Events against a dissolved group are rejected at admission.
        assert_eq!(
            svc.submit(3, MembershipEvent::Join(UserId(9))),
            Err(ServiceError::UnknownGroup(3))
        );
    }

    #[test]
    fn shrink_below_reduced_rekey_falls_back_to_full_run() {
        let mut svc = service(7);
        svc.create_group(5, &users(0..4)).unwrap();
        // 4 members, 2 leave → 2 survivors: reduced rekey impossible.
        svc.submit(5, MembershipEvent::Leave(UserId(0))).unwrap();
        svc.submit(5, MembershipEvent::Leave(UserId(2))).unwrap();
        let report = svc.tick();
        assert_eq!(report.rekeys_executed, 1);
        assert_eq!(
            report.full_gka_runs, 1,
            "fallback is one initial-GKA re-run"
        );
        let s = svc.session(5).unwrap();
        assert_eq!(s.n(), 2);
        assert!(s.invariant_holds());
    }

    #[test]
    fn service_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut svc = service(seed);
            for g in 0..6u64 {
                svc.create_group(g, &users(g as u32 * 10..g as u32 * 10 + 4))
                    .unwrap();
            }
            for g in 0..6u64 {
                svc.submit(g, MembershipEvent::Join(UserId(1000 + g as u32)))
                    .unwrap();
                svc.submit(g, MembershipEvent::Leave(UserId(g as u32 * 10 + 1)))
                    .unwrap();
            }
            let r = svc.tick();
            let keys: Vec<_> = svc
                .group_ids()
                .iter()
                .map(|&g| svc.group_key(g).unwrap().clone())
                .collect();
            (r.events_applied, r.rekeys_executed, keys)
        };
        assert_eq!(run(42), run(42), "same seed, same keys and counters");
        assert_ne!(run(42).2, run(43).2, "different seed, different keys");
    }

    #[test]
    fn shards_partition_the_group_space() {
        let mut svc = service(8);
        for g in 0..40u64 {
            svc.create_group(g, &users(g as u32 * 8..g as u32 * 8 + 3))
                .unwrap();
        }
        assert_eq!(svc.groups_active(), 40);
        assert_eq!(svc.group_ids().len(), 40);
        // Every group lives on exactly the shard its id hashes to, and
        // ticking an empty queue set is a no-op.
        let report = svc.tick();
        assert_eq!(report.rekeys_executed, 0);
        assert_eq!(svc.groups_active(), 40);
    }

    #[test]
    fn eviction_logs_a_verifiable_blame_cert_in_the_wal() {
        use egka_store::wal_records;

        let mut rng = ChaChaRng::seed_from_u64(0x0b57);
        let pkg = Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy));
        let backend: Arc<dyn Store> = Arc::new(MemStore::new());
        let mut svc = KeyService::builder()
            .seed(0xe0a1)
            .eviction(EvictionPolicy::default())
            .store(StoreConfig::new(Arc::clone(&backend)).snapshot_every(0))
            .build(pkg);
        svc.create_group(1, &users(0..4)).unwrap();
        svc.detach_member(UserId(3));
        svc.submit(1, MembershipEvent::Join(UserId(10))).unwrap();
        // STALLED_AFTER_EPOCHS stalls accrue the streak…
        for _ in 0..STALLED_AFTER_EPOCHS {
            let r = svc.tick();
            assert_eq!(r.members_evicted, 0);
            assert_eq!(r.rekeys_executed, 0);
        }
        // …and the next tick evicts the culprit and completes the epoch
        // over the survivors: within STALLED_AFTER_EPOCHS + 1 epochs.
        let r = svc.tick();
        assert_eq!(r.evicted, vec![(1, UserId(3))]);
        assert_eq!(r.blame_certs, 1);
        assert!(r.rekeys_executed >= 1, "the stalled group completed");
        let s = svc.session(1).unwrap();
        assert!(!s.contains(UserId(3)));
        assert!(s.contains(UserId(10)));

        // The signed certificate is in the WAL, names the member, and
        // verifies against the coordinator's public key.
        let public = svc.blame_public().expect("eviction armed");
        let mut logged = Vec::new();
        for payload in wal_records(backend.as_ref()).unwrap() {
            if let (_, crate::persist::WalRecord::Evict { cert }) =
                crate::persist::WalRecord::decode(&payload).unwrap()
            {
                logged.push(BlameCert::decode(&cert).expect("logged cert decodes"));
            }
        }
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].group, 1);
        assert_eq!(logged[0].epoch, STALLED_AFTER_EPOCHS + 1);
        assert_eq!(logged[0].evicted.len(), 1);
        assert_eq!(logged[0].evicted[0].member, 3);
        assert_eq!(logged[0].evicted[0].streak, STALLED_AFTER_EPOCHS);
        assert!(logged[0].verify(&public), "coordinator signature verifies");
        assert_eq!(svc.blame_certs(), &logged[..]);
    }

    #[test]
    fn add_remove_move_shards_keep_keys_bit_identical() {
        let mut svc = service(21);
        for g in 0..24u64 {
            svc.create_group(g, &users(g as u32 * 8..g as u32 * 8 + 3))
                .unwrap();
        }
        svc.tick();
        let keys: Vec<_> = (0..24u64)
            .map(|g| svc.group_key(g).unwrap().clone())
            .collect();
        let before = svc.shard_count();

        // Grow twice: placements move, keys must not.
        svc.add_shard();
        svc.add_shard();
        assert_eq!(svc.shard_count(), before + 2);
        assert!(svc.metrics().groups_moved > 0, "growth relocated movers");

        // Pin a group somewhere it does not hash to.
        let gid = 5;
        let target = (svc.shard_of(gid) + 1) % svc.shard_count();
        svc.move_group(gid, target).unwrap();
        assert_eq!(svc.shard_of(gid), target);

        // Shrink all the way back down (evacuating residents each time).
        while svc.shard_count() > 1 {
            let highest = svc.shard_count() - 1;
            svc.remove_shard(highest).unwrap();
        }
        assert_eq!(svc.groups_active(), 24, "no group lost in transit");
        for (g, key) in keys.iter().enumerate() {
            assert_eq!(
                key,
                svc.group_key(g as u64).unwrap(),
                "handoffs must never touch key material"
            );
        }
        // One shard left: everything is on shard 0, pins included.
        for g in 0..24u64 {
            assert_eq!(svc.shard_of(g), 0);
        }
        // And churn still works after all that movement.
        svc.submit(3, MembershipEvent::Join(UserId(900))).unwrap();
        let r = svc.tick();
        assert_eq!(r.events_applied, 1);
        assert!(svc.session(3).unwrap().invariant_holds());
    }

    #[test]
    fn remove_shard_guards_and_busy_refusal() {
        let mut svc = service(22);
        for g in 0..16u64 {
            svc.create_group(g, &users(g as u32 * 8..g as u32 * 8 + 3))
                .unwrap();
        }
        let highest = svc.shard_count() - 1;
        assert_eq!(
            svc.remove_shard(highest + 5),
            Err(ServiceError::NoSuchShard(highest + 5))
        );
        if highest > 0 {
            assert_eq!(
                svc.remove_shard(0),
                Err(ServiceError::ShardNotHighest { shard: 0, highest })
            );
        }
        // Queue an event on a group resident on the highest shard: the
        // removal must refuse rather than relocate in-flight work.
        let resident = (0..16u64)
            .find(|&g| svc.shard_of(g) == highest)
            .expect("some group lands on the highest shard");
        svc.submit(resident, MembershipEvent::Join(UserId(800)))
            .unwrap();
        assert_eq!(
            svc.remove_shard(highest),
            Err(ServiceError::ShardBusy {
                shard: highest,
                group: resident
            })
        );
        // Draining the backlog un-busies it.
        svc.tick();
        svc.remove_shard(highest).unwrap();
        assert_eq!(svc.shard_count(), highest);
        // The last shard can never go.
        while svc.shard_count() > 1 {
            svc.remove_shard(svc.shard_count() - 1).unwrap();
        }
        assert_eq!(svc.remove_shard(0), Err(ServiceError::LastShard));
    }

    #[test]
    fn resharding_survives_crash_recovery_bit_for_bit() {
        let mut rng = ChaChaRng::seed_from_u64(0x0e5d);
        let pkg = Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy));
        let backend: Arc<dyn Store> = Arc::new(MemStore::new());
        let build = |backend: &Arc<dyn Store>| {
            KeyService::builder()
                .seed(0xd1f)
                .shards(2)
                .store(StoreConfig::new(Arc::clone(backend)).snapshot_every(0))
        };
        let mut svc = build(&backend).build(Arc::clone(&pkg));
        for g in 0..12u64 {
            svc.create_group(g, &users(g as u32 * 8..g as u32 * 8 + 3))
                .unwrap();
        }
        svc.tick();
        svc.add_shard();
        svc.add_shard();
        let pin_to = (svc.shard_of(7) + 1) % svc.shard_count();
        svc.move_group(7, pin_to).unwrap();
        svc.remove_shard(svc.shard_count() - 1).unwrap();
        svc.submit(2, MembershipEvent::Join(UserId(700))).unwrap();
        svc.tick();

        // "Crash": rebuild purely from the store. Placement, keys, and
        // metrics counters must all reconstruct exactly.
        let (recovered, report) = build(&backend).recover(pkg).unwrap();
        assert!(report.records_replayed > 0);
        assert_eq!(recovered.shard_count(), svc.shard_count());
        for g in svc.group_ids() {
            assert_eq!(
                recovered.shard_of(g),
                svc.shard_of(g),
                "group {g} placement"
            );
            assert_eq!(
                recovered.group_key(g).unwrap(),
                svc.group_key(g).unwrap(),
                "group {g} key"
            );
        }
        let (m, r) = (svc.metrics(), recovered.metrics());
        assert_eq!(r.shards_added, m.shards_added);
        assert_eq!(r.shards_removed, m.shards_removed);
        assert_eq!(r.groups_moved, m.groups_moved);
    }

    #[test]
    fn rebalancer_drains_hot_spots_deterministically() {
        let build = |seed: u64| {
            let mut rng = ChaChaRng::seed_from_u64(0x5e81 ^ seed);
            let pkg = Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy));
            KeyService::builder()
                .seed(seed)
                .shards(2)
                .rebalancer(Rebalancer {
                    max_pending: 1,
                    cooldown_epochs: 1,
                    max_moves_per_epoch: 2,
                })
                .build(pkg)
        };
        let run = |seed: u64| {
            let mut svc = build(seed);
            for g in 0..8u64 {
                svc.create_group(g, &users(g as u32 * 16..g as u32 * 16 + 4))
                    .unwrap();
            }
            // Pile events onto whichever groups share shard 0 so its
            // backlog crosses the threshold.
            for round in 0..4u32 {
                for g in 0..8u64 {
                    if svc.shard_of(g) == 0 {
                        svc.submit(
                            g,
                            MembershipEvent::Join(UserId(2000 + round * 50 + g as u32)),
                        )
                        .unwrap();
                    }
                }
                svc.tick();
            }
            let keys: Vec<_> = svc
                .group_ids()
                .iter()
                .map(|&g| svc.group_key(g).unwrap().clone())
                .collect();
            (svc.metrics().groups_moved, keys)
        };
        let (moved, keys) = run(77);
        assert!(moved > 0, "the hot shard sheds load");
        assert_eq!((moved, keys), run(77), "rebalancing is deterministic");
    }

    #[test]
    fn epoch_report_latency_quantiles() {
        let mut svc = service(9);
        svc.create_group(1, &users(0..6)).unwrap();
        svc.submit(1, MembershipEvent::Leave(UserId(3))).unwrap();
        let report = svc.tick();
        let (p50, p95, max) = report.latency_quantiles().expect("one rekey ran");
        assert!(p50 <= p95 && p95 <= max);
    }
}
