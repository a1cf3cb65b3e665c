//! Crash-recovery smoke + bench: run the churn scenario twice — once
//! uninterrupted, once with the controller **killed mid-scenario** and
//! recovered from its durable store (snapshot + WAL tail, on the real
//! file backend) — and assert the two finish with bit-for-bit identical
//! key fingerprints.
//!
//! ```text
//! cargo run --release -p egka-bench --bin recovery_churn -- \
//!     [--groups 40] [--epochs 4] [--kill-epoch 2] [--seed N] [--shards N] \
//!     [--snapshot-every 2] [--store-dir PATH] [--json PATH|-] \
//!     [--check-determinism]
//! ```
//!
//! The kill lands after epoch `--kill-epoch`'s events are write-ahead
//! logged but before the epoch commits — the richest crash point: the
//! recovered service must replay the snapshot, the tail's committed
//! epochs, *and* re-queue the uncommitted submissions. With
//! `--check-determinism` the crash run repeats (fresh store) and must
//! reproduce itself exactly.
//!
//! Scenario totals land in `BENCH_recovery_churn.json` for the CI
//! artifact trail.

use std::sync::Arc;

use egka_bench::{arg_value, has_flag, recovery_churn_json};
use egka_service::{FileStore, StoreConfig};
use egka_sim::{run_churn, run_churn_with_crash, ChurnConfig, ChurnReport};

fn crash_run(
    config: &ChurnConfig,
    store_dir: &str,
    snapshot_every: u64,
    kill_epoch: u64,
) -> ChurnReport {
    // A fresh directory per run: this simulates a *new* deployment that
    // crashes once, not a store inherited from a previous bench.
    let _ = std::fs::remove_dir_all(store_dir);
    let store = Arc::new(FileStore::open(store_dir).expect("open store dir"));
    let store = StoreConfig::new(store).snapshot_every(snapshot_every);
    run_churn_with_crash(config, store, kill_epoch)
}

fn main() {
    let mut config = ChurnConfig {
        groups: 40,
        epochs: 4,
        ..ChurnConfig::default()
    };
    if let Some(v) = arg_value("--groups") {
        config.groups = v.parse().expect("--groups N");
    }
    if let Some(v) = arg_value("--epochs") {
        config.epochs = v.parse().expect("--epochs N");
    }
    if let Some(v) = arg_value("--seed") {
        config.seed = v.parse().expect("--seed N");
    }
    if let Some(v) = arg_value("--shards") {
        config.shards = v.parse().expect("--shards N");
    }
    let kill_epoch: u64 = arg_value("--kill-epoch")
        .map(|v| v.parse().expect("--kill-epoch N"))
        .unwrap_or(2);
    let snapshot_every: u64 = arg_value("--snapshot-every")
        .map(|v| v.parse().expect("--snapshot-every N"))
        .unwrap_or(2);
    let store_dir =
        arg_value("--store-dir").unwrap_or_else(|| "target/recovery_churn_store".into());

    println!(
        "recovery_churn: {} groups, {} epochs, seed {:#x}, kill at epoch {}, \
         snapshot every {}, store {}\n",
        config.groups, config.epochs, config.seed, kill_epoch, snapshot_every, store_dir
    );

    println!("— uninterrupted run —");
    let uninterrupted = run_churn(&config);
    print!("{}", uninterrupted.render());

    println!("\n— crash at epoch {kill_epoch}, recover, finish —");
    let crashed = crash_run(&config, &store_dir, snapshot_every, kill_epoch);
    print!("{}", crashed.render());

    // The durability acceptance: a controller crash must be invisible in
    // the keys.
    assert_eq!(
        crashed.key_fingerprint, uninterrupted.key_fingerprint,
        "recovered fingerprint must equal the uninterrupted run's"
    );
    assert_eq!(
        crashed.metrics.groups_active,
        uninterrupted.metrics.groups_active
    );
    let recovery = crashed.recovery.expect("crash ran");
    assert_eq!(recovery.kill_epoch, kill_epoch);
    println!(
        "\nrecovery ✓ fingerprint {:016x} reproduced through crash at epoch {} \
         ({} wal records replayed, snapshot {:?})",
        crashed.key_fingerprint, kill_epoch, recovery.records_replayed, recovery.snapshot_epoch
    );

    if has_flag("--check-determinism") {
        println!("\nre-running the crash for determinism…");
        let again = crash_run(&config, &store_dir, snapshot_every, kill_epoch);
        assert_eq!(
            again.key_fingerprint, crashed.key_fingerprint,
            "crash + recovery must be deterministic per seed"
        );
        assert_eq!(
            again.recovery.expect("crash ran").records_replayed,
            recovery.records_replayed,
            "the replayed tail must be identical too"
        );
        println!("deterministic ✓");
    }

    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_recovery_churn.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, recovery_churn_json(&uninterrupted, &crashed))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("\nwrote {json_path}");
    }
}
