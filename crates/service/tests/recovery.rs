//! Crash-recovery properties of the durable service.
//!
//! * **Bit-for-bit reconstruction**: `recover` rebuilds every shard —
//!   sessions, keys, suites, pending queues, power state, batteries — to
//!   exactly the pre-crash state, whether from a pure log replay or from
//!   snapshot + tail, and the recovered service's *future* (subsequent
//!   ticks) is identical too.
//! * **Torture**: truncating the WAL at any byte offset recovers a strict
//!   prefix of the committed epochs, and flipping any byte either still
//!   recovers a valid prefix (a torn tail) or reports a typed
//!   [`StoreError::Corrupt`] — never a panic, never a wrong key.
//! * **Group commit**: a power loss drops exactly the submits logged
//!   since the last durable record, and a durable run takes one barrier
//!   per epoch commit (plus the snapshot installs), not one per event.

use std::sync::Arc;

use egka_core::{Credential, MemberState, Pkg, SecurityProfile, UserId};
use egka_hash::ChaChaRng;
use egka_medium::RadioProfile;
use egka_service::{
    FileStore, KeyService, MemStore, MembershipEvent, RadioConfig, ServiceBuilder, Store,
    StoreConfig, StoreError,
};
use proptest::prelude::*;
use rand::SeedableRng;

/// Shared toy PKG (parameter generation is too slow to re-run per case).
fn pkg() -> &'static Arc<Pkg> {
    use std::sync::OnceLock;
    static PKG: OnceLock<Arc<Pkg>> = OnceLock::new();
    PKG.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0x0e9a_51c3);
        Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy))
    })
}

fn builder(store: StoreConfig) -> ServiceBuilder {
    KeyService::builder().shards(3).seed(0xd1ce).store(store)
}

fn users(range: std::ops::Range<u32>) -> Vec<UserId> {
    range.map(UserId).collect()
}

/// XOR-fold of every live group key, keyed like the churn fingerprint.
fn fingerprint(svc: &KeyService) -> u64 {
    svc.group_ids()
        .iter()
        .map(|&g| {
            svc.group_key(g)
                .expect("live group")
                .to_bytes_be()
                .iter()
                .fold(0u64, |acc, &b| acc.rotate_left(8) ^ u64::from(b))
        })
        .fold(0u64, |acc, h| acc.rotate_left(1) ^ h)
}

/// Deep state comparison: identical groups, sessions, keys, suites.
fn assert_same_state(a: &KeyService, b: &KeyService) {
    assert_eq!(a.epoch(), b.epoch());
    assert_eq!(a.group_ids(), b.group_ids());
    for gid in a.group_ids() {
        assert_eq!(a.suite_of(gid), b.suite_of(gid), "group {gid} suite");
        let (sa, sb) = (a.session(gid).unwrap(), b.session(gid).unwrap());
        assert_eq!(sa.key, sb.key, "group {gid} key");
        assert_eq!(sa.member_ids(), sb.member_ids(), "group {gid} members");
        for (ma, mb) in sa.members.iter().zip(&sb.members) {
            assert_eq!(ma.r, mb.r);
            assert_eq!(ma.z, mb.z);
            assert_eq!(ma.tau, mb.tau);
            assert_eq!(ma.t, mb.t);
            let gq = |m: &MemberState| m.cred.as_deref().and_then(Credential::as_gq).cloned();
            assert_eq!(gq(ma), gq(mb));
        }
    }
}

/// A deterministic scripted workload: 4 groups, mixed churn, `epochs`
/// ticks; returns the service (with its store attached).
fn scripted(store: StoreConfig, epochs: u64) -> KeyService {
    let mut svc = builder(store).build(Arc::clone(pkg()));
    for g in 0..4u64 {
        let base = g as u32 * 10;
        svc.create_group(g, &users(base..base + 4)).unwrap();
    }
    let mut fresh = 1000u32;
    for e in 0..epochs {
        for g in 0..4u64 {
            if (e + g) % 2 == 0 {
                svc.submit(g, MembershipEvent::Join(UserId(fresh))).unwrap();
                fresh += 1;
            } else {
                let victim = svc.session(g).unwrap().member_ids()[1];
                svc.submit(g, MembershipEvent::Leave(victim)).unwrap();
            }
        }
        svc.tick();
    }
    svc
}

#[test]
fn recover_reconstructs_shards_bit_for_bit() {
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let mut original = scripted(store.clone(), 3);
    // Uncommitted work in flight at the crash: queued events, a detached
    // member, a loss setting — all must survive through the log.
    original
        .submit(1, MembershipEvent::Join(UserId(77)))
        .unwrap();
    original.detach_member(UserId(30));
    original.set_loss(0.05);

    let (mut recovered, report) = builder(store).recover(Arc::clone(pkg())).unwrap();
    assert_eq!(report.snapshot_epoch, None, "snapshots disabled");
    assert_eq!(report.epochs_replayed, 3);
    assert_eq!(report.groups_recovered, 4);
    assert!(report.records_replayed > 7);
    assert_same_state(&original, &recovered);

    // The recovered service's *future* matches too: same queues, same
    // power state, same seeds — the next epoch produces identical keys.
    original.attach_member(UserId(30));
    recovered.attach_member(UserId(30));
    original.set_loss(0.0);
    recovered.set_loss(0.0);
    original.tick();
    recovered.tick();
    assert_same_state(&original, &recovered);
    assert!(original.session(1).unwrap().contains(UserId(77)));
}

#[test]
fn power_loss_drops_only_the_submits_since_the_last_durable_record() {
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    // What survives: committed epochs, a CreateGroup and control records,
    // and a submit that a later durable record covered.
    let survivors = |svc: &mut KeyService| {
        svc.create_group(9, &users(90..94)).unwrap();
        svc.submit(9, MembershipEvent::Join(UserId(78))).unwrap();
        svc.detach_member(UserId(30));
        svc.set_loss(0.05);
    };
    let mut original = scripted(store.clone(), 3);
    survivors(&mut original);
    // What a power loss drops: submits no commit has covered yet.
    original
        .submit(1, MembershipEvent::Join(UserId(77)))
        .unwrap();
    original
        .submit(9, MembershipEvent::Leave(UserId(91)))
        .unwrap();

    // A process crash loses nothing: the submits reached the backend.
    let (mut crashed, _) = builder(store.clone()).recover(Arc::clone(pkg())).unwrap();
    mem.lose_unsynced();
    let (mut recovered, report) = builder(store).recover(Arc::clone(pkg())).unwrap();
    assert_eq!(report.epochs_replayed, 3, "committed epochs survive");
    assert_eq!(report.groups_recovered, 5, "the CreateGroup survives");

    // The state equals a service that never saw the lost submits.
    let mut reference = scripted(
        StoreConfig::new(Arc::new(MemStore::new())).snapshot_every(0),
        3,
    );
    survivors(&mut reference);
    assert_same_state(&reference, &recovered);
    for svc in [&mut original, &mut crashed, &mut reference, &mut recovered] {
        svc.attach_member(UserId(30));
        svc.tick();
    }
    assert_same_state(&reference, &recovered);
    assert_same_state(&original, &crashed);
    assert!(recovered.session(9).unwrap().contains(UserId(78)));
    assert!(recovered.session(9).unwrap().contains(UserId(91)));
    assert!(!recovered.session(1).unwrap().contains(UserId(77)));
    assert!(crashed.session(1).unwrap().contains(UserId(77)));
}

#[test]
fn a_snapshot_between_submit_and_tick_keeps_the_pending_queues() {
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let mut original = scripted(store.clone(), 2);
    original
        .submit(1, MembershipEvent::Join(UserId(77)))
        .unwrap();
    original
        .submit(2, MembershipEvent::Join(UserId(78)))
        .unwrap();
    original.snapshot_now();
    mem.lose_unsynced();

    let (mut recovered, report) = builder(store).recover(Arc::clone(pkg())).unwrap();
    assert_eq!(report.snapshot_epoch, Some(2));
    assert_eq!(report.records_replayed, 0);
    original.tick();
    recovered.tick();
    assert_same_state(&original, &recovered);
    assert!(recovered.session(1).unwrap().contains(UserId(77)));
    assert!(recovered.session(2).unwrap().contains(UserId(78)));
}

/// Runs a durable service over a `FileStore` in a fresh directory and
/// checks the barrier count epoch by epoch: submits take none, each
/// commit takes one, and each snapshot install takes the file backend's
/// two (snapshot file, then the truncated log).
fn assert_one_sync_per_commit(tag: &str, traced: bool) {
    let dir = std::env::temp_dir().join(format!("egka-sync-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend: Arc<dyn Store> = Arc::new(FileStore::open(&dir).unwrap());
    let mut b = builder(StoreConfig::new(backend).snapshot_every(3));
    if traced {
        let (cfg, _ring) = egka_trace::TraceConfig::ring(1 << 16);
        b = b.trace(cfg);
    }
    let mut svc = b.build(Arc::clone(pkg()));
    for g in 0..8u64 {
        let base = g as u32 * 10;
        svc.create_group(g, &users(base..base + 4)).unwrap();
    }
    let mut fresh = 1000u32;
    for epoch in 1..=7u64 {
        let before = svc.metrics().store_syncs;
        for _ in 0..3 {
            for g in 0..8u64 {
                svc.submit(g, MembershipEvent::Join(UserId(fresh))).unwrap();
                fresh += 1;
            }
        }
        assert_eq!(
            svc.metrics().store_syncs,
            before,
            "{tag}: submits take no barrier"
        );
        svc.tick();
        let snapshot = if epoch % 3 == 0 { 2 } else { 0 };
        assert_eq!(
            svc.metrics().store_syncs,
            before + 1 + snapshot,
            "{tag}: epoch {epoch} takes one commit barrier"
        );
    }
    drop(svc);
    let reopened = StoreConfig::new(Arc::new(FileStore::open(&dir).unwrap())).snapshot_every(3);
    let (recovered, report) = builder(reopened).recover(Arc::clone(pkg())).unwrap();
    assert_eq!(report.snapshot_epoch, Some(6));
    assert_eq!(recovered.epoch(), 7);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_durable_epoch_takes_one_barrier_behind_arc_dyn_store() {
    assert_one_sync_per_commit("arc", false);
}

#[test]
fn a_durable_epoch_takes_one_barrier_behind_the_traced_store() {
    assert_one_sync_per_commit("traced", true);
}

#[test]
fn recovery_replays_snapshot_plus_tail() {
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(2);
    let original = scripted(store.clone(), 5);
    assert_eq!(original.metrics().snapshots_written, 2, "epochs 2 and 4");

    // The log was compacted at epoch 4: the tail holds only epoch 5.
    let (recovered, report) = builder(store).recover(Arc::clone(pkg())).unwrap();
    assert_eq!(report.snapshot_epoch, Some(4));
    assert_eq!(report.epochs_replayed, 1);
    assert_eq!(report.groups_recovered, 4);
    assert_same_state(&original, &recovered);
    assert_eq!(fingerprint(&original), fingerprint(&recovered));
}

#[test]
fn crash_between_snapshot_and_truncation_replays_once() {
    // The file backend's crash window: snapshot installed, WAL truncation
    // lost. The LSN watermark must keep the stale tail from replaying on
    // top of the snapshot.
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let mut original = scripted(store.clone(), 2);
    let stale_wal = mem.wal_bytes().unwrap();
    original.snapshot_now();
    // Simulate the torn crash: reinstate the pre-snapshot log bytes.
    mem.set_raw(stale_wal, mem.raw_snapshot());

    let (recovered, report) = builder(store).recover(Arc::clone(pkg())).unwrap();
    assert_eq!(report.snapshot_epoch, Some(2));
    assert_eq!(
        report.records_replayed, 0,
        "every stale record predates the snapshot watermark"
    );
    assert_same_state(&original, &recovered);
}

#[test]
fn wrong_seal_key_is_typed_corruption() {
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone()))
        .snapshot_every(1)
        .seal_key([7u8; 32]);
    scripted(store, 2);
    let wrong = StoreConfig::new(Arc::new(mem))
        .snapshot_every(1)
        .seal_key([8u8; 32]);
    match builder(wrong).recover(Arc::clone(pkg())) {
        Err(StoreError::Corrupt { what, .. }) => {
            assert!(what.contains("seal"), "{what}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| "a service")),
    }
}

#[test]
fn config_mismatch_is_typed_corruption() {
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(1);
    scripted(store.clone(), 2);
    let result = KeyService::builder()
        .shards(5) // the snapshot was cut under 3 shards
        .seed(0xd1ce)
        .store(store)
        .recover(Arc::clone(pkg()));
    assert!(matches!(result, Err(StoreError::Corrupt { .. })));
}

#[test]
fn log_only_config_mismatch_is_typed_corruption() {
    // No snapshot cut yet: the WAL's leading config-header record must
    // still reject a wrong seed or shard count — a replay under different
    // topology would silently derive different keys.
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    scripted(store.clone(), 1);
    let wrong_seed = KeyService::builder()
        .shards(3)
        .seed(0xd1ce ^ 1)
        .store(store.clone())
        .recover(Arc::clone(pkg()));
    match wrong_seed {
        Err(StoreError::Corrupt { what, .. }) => assert!(what.contains("configuration"), "{what}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|_| "a service")),
    }
    let wrong_shards = KeyService::builder()
        .shards(7)
        .seed(0xd1ce)
        .store(store)
        .recover(Arc::clone(pkg()));
    assert!(matches!(wrong_shards, Err(StoreError::Corrupt { .. })));
}

#[test]
fn log_only_battery_records_without_a_radio_config_are_corrupt() {
    // Crash before the first snapshot: a logged battery install proves the
    // original service ran a radio; a recovering builder that forgot
    // .radio(...) must be rejected on the log path too.
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let mut svc = KeyService::builder()
        .shards(2)
        .seed(0xbeef)
        .radio(RadioConfig {
            profile: RadioProfile::sensor_100kbps(),
            default_battery_uj: 2_000_000.0,
        })
        .store(store.clone())
        .build(Arc::clone(pkg()));
    svc.set_battery(UserId(1), 40_000.0);
    svc.create_group(1, &users(0..4)).unwrap();
    let result = KeyService::builder()
        .shards(2)
        .seed(0xbeef)
        // no .radio(...)
        .store(store)
        .recover(Arc::clone(pkg()));
    match result {
        Err(StoreError::Corrupt { what, .. }) => assert!(what.contains("battery"), "{what}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|_| "a service")),
    }
}

#[test]
fn recovering_a_radio_snapshot_without_a_radio_config_is_corrupt() {
    // Dropping the battery ledger would resurrect dead motes and silently
    // diverge; a builder that forgot .radio(...) must be told, not obeyed.
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(1);
    let mut svc = KeyService::builder()
        .shards(2)
        .seed(0xbeef)
        .radio(RadioConfig {
            profile: RadioProfile::sensor_100kbps(),
            default_battery_uj: 2_000_000.0,
        })
        .store(store.clone())
        .build(Arc::clone(pkg()));
    svc.create_group(1, &users(0..4)).unwrap();
    svc.submit(1, MembershipEvent::Join(UserId(9))).unwrap();
    svc.tick();
    let result = KeyService::builder()
        .shards(2)
        .seed(0xbeef)
        // no .radio(...)
        .store(store)
        .recover(Arc::clone(pkg()));
    match result {
        Err(StoreError::Corrupt { what, .. }) => assert!(what.contains("battery"), "{what}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|_| "a service")),
    }
}

#[test]
fn snapshots_of_one_state_differ_only_in_their_lsn() {
    // Sealing IVs are synthetic: a keyed hash of the group id and its
    // session state, so an IV repeats only for the same plaintext. Two
    // cuts of one state therefore seal every group to the same bytes, and
    // differ only in the LSN each cut consumes.
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let mut svc = scripted(store, 1);
    svc.snapshot_now();
    let first = mem.snapshot_bytes().unwrap().expect("snapshot installed");
    svc.snapshot_now();
    let second = mem.snapshot_bytes().unwrap().expect("snapshot installed");
    assert_eq!(first.len(), second.len());
    // Magic (2 + 8 bytes), shard count (4), seed (8), epoch (8), then
    // the LSN watermark.
    const LSN: std::ops::Range<usize> = 30..38;
    let differing: Vec<usize> = (0..first.len())
        .filter(|&i| first[i] != second[i])
        .collect();
    assert!(!differing.is_empty(), "each cut consumes an LSN");
    assert!(
        differing.iter().all(|i| LSN.contains(i)),
        "bytes outside the LSN moved: {differing:?}"
    );
    assert_eq!(
        u64::from_be_bytes(second[LSN].try_into().unwrap()),
        u64::from_be_bytes(first[LSN].try_into().unwrap()) + 1
    );
    // A recovered process continues the persisted LSN stream and cuts
    // exactly the bytes the live process would.
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let (mut recovered, _) = builder(store).recover(Arc::clone(pkg())).unwrap();
    assert_same_state(&svc, &recovered);
    recovered.snapshot_now();
    let third = mem.snapshot_bytes().unwrap().expect("snapshot installed");
    assert_ne!(third, second, "the recovered cut consumed a fresh LSN");
    svc.snapshot_now();
    assert_eq!(mem.snapshot_bytes().unwrap().unwrap(), third);
}

#[test]
fn a_zero_filled_wal_tail_recovers_every_committed_epoch() {
    // Some filesystems grow a file before its data reaches the disk and
    // leave zeros there after a power loss.
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let original = scripted(store, 3);
    let mut wal = mem.wal_bytes().unwrap();
    wal.extend_from_slice(&[0u8; 4096]);

    let dir = std::env::temp_dir().join(format!("egka-zero-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.log"), &wal).unwrap();
    let mem_open = || -> Arc<dyn Store> { Arc::new(MemStore::with_raw(wal.clone(), None)) };
    let file_open = || -> Arc<dyn Store> { Arc::new(FileStore::open(&dir).unwrap()) };
    let backends: [&dyn Fn() -> Arc<dyn Store>; 2] = [&mem_open, &file_open];
    for open in backends {
        let store = open();
        let (mut recovered, report) =
            builder(StoreConfig::new(Arc::clone(&store)).snapshot_every(0))
                .recover(Arc::clone(pkg()))
                .unwrap();
        assert_eq!(report.epochs_replayed, 3);
        assert_same_state(&original, &recovered);
        // Opening the store cut the zeros off, so the resumed service's
        // records are not stranded behind them.
        recovered
            .submit(0, MembershipEvent::Join(UserId(555)))
            .unwrap();
        recovered.tick();
        drop(recovered);
        let (again, report) = builder(StoreConfig::new(store).snapshot_every(0))
            .recover(Arc::clone(pkg()))
            .unwrap();
        assert_eq!(report.epochs_replayed, 4);
        assert!(again.session(0).unwrap().contains(UserId(555)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_zero_header_before_a_valid_frame_is_corrupt() {
    let mem = MemStore::new();
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    scripted(store, 1);
    let mut wal = mem.wal_bytes().unwrap();
    let records = egka_store::wal_records(&mem).unwrap();
    wal.extend_from_slice(&[0u8; 8]);
    wal.extend_from_slice(&egka_store::frame(records.last().unwrap()).unwrap());
    let damaged = Arc::new(MemStore::with_raw(wal, None));
    match builder(StoreConfig::new(damaged)).recover(Arc::clone(pkg())) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {:?}", other.map(|_| "a service")),
    }
}

#[test]
fn battery_ledger_and_dead_members_survive_recovery() {
    let mem = MemStore::new();
    let radio = RadioConfig {
        profile: RadioProfile::sensor_100kbps(),
        default_battery_uj: 2_000_000.0,
    };
    let build = |store: StoreConfig| {
        KeyService::builder()
            .shards(2)
            .seed(0xbeef)
            .radio(radio.clone())
            .store(store)
    };
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0);
    let mut original = build(store.clone()).build(Arc::clone(pkg()));
    original.set_battery(UserId(1), 40_000.0); // nearly flat: dies quickly
    original.create_group(1, &users(0..4)).unwrap();
    original.create_group(2, &users(4..8)).unwrap();
    for round in 0..3 {
        original
            .submit(1, MembershipEvent::Join(UserId(100 + round)))
            .unwrap();
        original
            .submit(2, MembershipEvent::Join(UserId(200 + round)))
            .unwrap();
        original.tick();
    }
    assert!(
        original.dead_members().contains(&UserId(1)),
        "the weak mote must die in this script"
    );

    let (recovered, _) = build(store).recover(Arc::clone(pkg())).unwrap();
    assert_same_state(&original, &recovered);
    assert_eq!(original.dead_members(), recovered.dead_members());
    let (oa, ob) = (original.battery_status(), recovered.battery_status());
    assert_eq!(oa.len(), ob.len());
    for (a, b) in oa.iter().zip(&ob) {
        assert_eq!(a.user, b.user);
        assert_eq!(a.capacity_uj.to_bits(), b.capacity_uj.to_bits());
        assert_eq!(
            a.spent_uj.to_bits(),
            b.spent_uj.to_bits(),
            "user {}",
            a.user
        );
        assert_eq!(a.dead, b.dead);
    }
}

#[test]
fn snapshot_plus_tail_battery_recovery_is_exact() {
    // Same scenario, but recovery goes through a snapshot cut *between*
    // battery drains — the ledger must restore from serialized cells, not
    // replayed radio traffic, and still line up bit-for-bit.
    let mem = MemStore::new();
    let radio = RadioConfig {
        profile: RadioProfile::sensor_100kbps(),
        default_battery_uj: 2_000_000.0,
    };
    let build = |store: StoreConfig| {
        KeyService::builder()
            .shards(2)
            .seed(0xbeef)
            .radio(radio.clone())
            .store(store)
    };
    let store = StoreConfig::new(Arc::new(mem.clone())).snapshot_every(2);
    let mut original = build(store.clone()).build(Arc::clone(pkg()));
    original.create_group(1, &users(0..5)).unwrap();
    for round in 0..3 {
        original
            .submit(1, MembershipEvent::Join(UserId(100 + round)))
            .unwrap();
        original.tick();
    }
    let (recovered, report) = build(store).recover(Arc::clone(pkg())).unwrap();
    assert_eq!(report.snapshot_epoch, Some(2));
    assert_same_state(&original, &recovered);
    for (a, b) in original
        .battery_status()
        .iter()
        .zip(&recovered.battery_status())
    {
        assert_eq!(
            a.spent_uj.to_bits(),
            b.spent_uj.to_bits(),
            "user {}",
            a.user
        );
    }
}

/// Reference checkpoints: every group's key bytes after `k` committed
/// epochs of the scripted workload, for `k = 0..=epochs`.
fn checkpoints(epochs: u64) -> Vec<std::collections::BTreeMap<u64, Vec<u8>>> {
    (0..=epochs)
        .map(|k| {
            let svc = scripted(
                StoreConfig::new(Arc::new(MemStore::new())).snapshot_every(0),
                k,
            );
            svc.group_ids()
                .into_iter()
                .map(|g| (g, svc.group_key(g).unwrap().to_bytes_be()))
                .collect()
        })
        .collect()
}

/// Recovering the undamaged log must rebuild every reference group at the
/// last epoch — otherwise a torture test over that log would pass even if
/// the damaged records were never in it.
fn assert_full_log_recovers_everything(
    wal: &[u8],
    reference: &[std::collections::BTreeMap<u64, Vec<u8>>],
    epochs: u64,
) {
    let store = StoreConfig::new(Arc::new(MemStore::with_raw(wal.to_vec(), None)));
    let (svc, _) = builder(store.snapshot_every(0))
        .recover(Arc::clone(pkg()))
        .unwrap();
    assert_eq!(svc.epoch(), epochs);
    let keys: std::collections::BTreeMap<u64, Vec<u8>> = svc
        .group_ids()
        .into_iter()
        .map(|g| (g, svc.group_key(g).unwrap().to_bytes_be()))
        .collect();
    assert_eq!(&keys, &reference[epochs as usize]);
}

/// The torture acceptance: the recovered service sits at a committed
/// epoch `≤ epochs`, holds a subset of the reference groups (a cut can
/// land mid-epoch, after some creates/submits but before the commit), and
/// every key it *does* hold is bit-for-bit the reference key at that
/// epoch — never a fabricated one.
fn assert_valid_prefix(
    svc: &KeyService,
    reference: &[std::collections::BTreeMap<u64, Vec<u8>>],
    epochs: u64,
) {
    let epoch = svc.epoch();
    assert!(epoch <= epochs, "recovered a future that never committed");
    let expect = &reference[epoch as usize];
    for gid in svc.group_ids() {
        let key = svc.group_key(gid).unwrap().to_bytes_be();
        let reference_key = expect
            .get(&gid)
            .unwrap_or_else(|| panic!("group {gid} does not exist at epoch {epoch}"));
        assert_eq!(&key, reference_key, "group {gid} key at epoch {epoch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// WAL torture: truncate the log at *any* byte offset and recovery
    /// yields a strict prefix of the committed epochs — bit-for-bit equal
    /// to an uninterrupted run of that many epochs — or, at worst, a
    /// typed corruption error. Never a panic, never a wrong key.
    #[test]
    fn truncated_wal_recovers_a_strict_epoch_prefix(cut_permille in 0u64..1000) {
        const EPOCHS: u64 = 3;
        let reference = checkpoints(EPOCHS);
        let mem = MemStore::new();
        scripted(StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0), EPOCHS);
        let wal = mem.wal_bytes().unwrap();
        assert_full_log_recovers_everything(&wal, &reference, EPOCHS);
        let cut = (wal.len() as u64 * cut_permille / 1000) as usize;
        let damaged = MemStore::with_raw(wal[..cut].to_vec(), None);
        let store = StoreConfig::new(Arc::new(damaged)).snapshot_every(0);
        let (svc, report) = builder(store).recover(Arc::clone(pkg())).unwrap();
        prop_assert_eq!(report.epochs_replayed, svc.epoch());
        assert_valid_prefix(&svc, &reference, EPOCHS);
    }

    /// Flipping any byte of the log yields either typed corruption or a
    /// valid strict prefix (a flip in the final frame's length field can
    /// legitimately read as a torn tail) — never a panic or a wrong key.
    #[test]
    fn bitflipped_wal_is_corrupt_or_a_valid_prefix(
        flip_permille in 0u64..1000,
        bit in 0u8..8,
    ) {
        const EPOCHS: u64 = 2;
        let reference = checkpoints(EPOCHS);
        let mem = MemStore::new();
        scripted(StoreConfig::new(Arc::new(mem.clone())).snapshot_every(0), EPOCHS);
        let mut wal = mem.wal_bytes().unwrap();
        assert_full_log_recovers_everything(&wal, &reference, EPOCHS);
        let at = (wal.len() as u64 * flip_permille / 1000) as usize % wal.len();
        wal[at] ^= 1 << bit;
        let damaged = MemStore::with_raw(wal, None);
        let store = StoreConfig::new(Arc::new(damaged)).snapshot_every(0);
        match builder(store).recover(Arc::clone(pkg())) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok((svc, _)) => assert_valid_prefix(&svc, &reference, EPOCHS),
        }
    }
}
