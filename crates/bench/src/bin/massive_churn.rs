//! Elastic-resharding bench: heavy Poisson churn while the shard pool
//! grows 4 → 16 live, shipped as a reviewable artifact.
//!
//! ```text
//! cargo run --release -p egka-bench --bin massive_churn
//! cargo run --release -p egka-bench --bin massive_churn -- \
//!     [--groups N] [--epochs N] [--shards N] [--target-shards N] [--seed N] \
//!     [--check-determinism] [--json PATH]
//! ```
//!
//! Two passes of [`ChurnConfig::reshard_bench`]:
//!
//! * **static pool** — the same workload on a fixed 16-shard pool: the
//!   placement-independence control. Keys never depend on placement, so
//!   the resharded pass must land on this fingerprint bit for bit.
//! * **live resharding** — the pool starts at 4 shards and grows to 16
//!   mid-churn (three adds per epoch from epoch 2, rebalancer armed),
//!   every add a live sealed-state handoff under queued Poisson traffic.
//!
//! The acceptance, asserted here and gated by `bench_diff`:
//!
//! * the pool reaches the target (`shards_added`), with every handoff a
//!   real move (`groups_moved` > 0);
//! * **zero stalled epochs** (`groups_stalled`, gated outright-fatal) —
//!   handoffs run between epochs and never block a rekey;
//! * the resharded fingerprint equals the static-pool control's.
//!
//! The artifact (`BENCH_massive_churn.json`, schema `egka-massive-churn/1`)
//! embeds the per-shard stats and the full metrics block.

use egka_bench::{arg_value, has_flag};
use egka_service::ShardStats;
use egka_sim::{run_churn, ChurnConfig, ChurnReport};

fn apply_knobs(config: &mut ChurnConfig) {
    if let Some(v) = arg_value("--groups") {
        config.groups = v.parse().expect("--groups N");
    }
    if let Some(v) = arg_value("--epochs") {
        config.epochs = v.parse().expect("--epochs N");
    }
    if let Some(v) = arg_value("--shards") {
        config.shards = v.parse().expect("--shards N");
    }
    if let Some(v) = arg_value("--target-shards") {
        let plan = config.reshard.as_mut().expect("reshard preset");
        plan.target_shards = v.parse().expect("--target-shards N");
    }
    if let Some(v) = arg_value("--seed") {
        config.seed = v.parse().expect("--seed N");
    }
}

/// The resharding acceptance: the pool grew to target through real
/// handoffs, and not one epoch stalled while it did.
fn assert_elastic(report: &ChurnReport, config: &ChurnConfig) {
    let plan = config.reshard.expect("reshard preset");
    assert_eq!(
        report.shards.len(),
        plan.target_shards,
        "the pool must reach the target size"
    );
    assert_eq!(
        report.metrics.shards_added,
        (plan.target_shards - config.shards) as u64
    );
    assert!(
        report.metrics.groups_moved > 0,
        "growth must relocate movers via live handoff"
    );
    assert_eq!(
        report.metrics.groups_stalled, 0,
        "a live handoff stalled an epoch — handoffs must run between \
         epochs, never against them"
    );
    // The partition invariant after all that movement: per-shard stats
    // still sum to the service totals.
    if let Err(e) = ShardStats::reconcile(&report.shards, &report.metrics) {
        panic!("per-shard stats no longer partition the totals: {e}");
    }
}

fn main() {
    let mut config = ChurnConfig::reshard_bench();
    apply_knobs(&mut config);
    let plan = config.reshard.expect("reshard preset");

    println!(
        "massive_churn: {} groups, {} epochs, {} → {} shards (from epoch {}, \
         {}/epoch), seed {:#x}\n",
        config.groups,
        config.epochs,
        config.shards,
        plan.target_shards,
        plan.from_epoch,
        plan.per_epoch,
        config.seed
    );

    // Pass 1 — the placement-independence control: same workload, fixed
    // pool already at the target size, no resharding, no rebalancer.
    let mut static_config = config.clone();
    static_config.shards = plan.target_shards;
    static_config.reshard = None;
    let control = run_churn(&static_config);
    let wall_ms_static = control.wall.as_secs_f64() * 1e3;
    println!(
        "static {} shards:  {:.1} ms",
        plan.target_shards, wall_ms_static
    );

    // Pass 2 — live resharding under load.
    let report = run_churn(&config);
    let wall_ms = report.wall.as_secs_f64() * 1e3;
    println!("live 4 → {}:       {:.1} ms\n", plan.target_shards, wall_ms);
    assert_elastic(&report, &config);
    assert_eq!(
        report.key_fingerprint, control.key_fingerprint,
        "resharding perturbed the keys — placement independence broken"
    );
    assert_eq!(
        report.metrics.events_applied,
        control.metrics.events_applied
    );

    println!("{}", report.render());

    let shards_json = report
        .shards
        .iter()
        .map(|s| {
            format!(
                "{{\"shard\": {}, \"groups\": {}, \"events_applied\": {}, \
                 \"rekeys_executed\": {}}}",
                s.shard, s.groups, s.events_applied, s.rekeys_executed
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let suites = report
        .suites
        .iter()
        .map(|s| {
            format!(
                "\"{}\": {{\"groups\": {}, \"rekeys\": {}, \"energy_mj\": {:.3}}}",
                s.suite.key(),
                s.groups,
                s.rekeys,
                s.energy_mj
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \
         \"schema\": \"egka-massive-churn/1\",\n  \
         \"groups\": {},\n  \
         \"epochs\": {},\n  \
         \"shards_initial\": {},\n  \
         \"shards_final\": {},\n  \
         \"shards_added\": {},\n  \
         \"groups_moved\": {},\n  \
         \"groups_stalled\": {},\n  \
         \"health\": \"{}\",\n  \
         \"energy_mj\": {:.3},\n  \
         \"wall_ms\": {wall_ms:.1},\n  \
         \"wall_ms_static\": {wall_ms_static:.1},\n  \
         \"shards\": [{shards_json}],\n  \
         \"suites\": {{{suites}}},\n  \
         \"metrics\": {},\n  \
         \"key_fingerprint\": \"{:016x}\"\n}}\n",
        config.groups,
        config.epochs,
        config.shards,
        report.shards.len(),
        report.metrics.shards_added,
        report.metrics.groups_moved,
        report.metrics.groups_stalled,
        report.health.label(),
        report.metrics.energy_mj,
        report.metrics.to_json(),
        report.key_fingerprint,
    );
    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_massive_churn.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("wrote {json_path}");
    }

    if has_flag("--check-determinism") {
        println!("\nre-running for determinism check…");
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert_eq!(report.metrics.groups_moved, again.metrics.groups_moved);
        assert_eq!(report.metrics.shards_added, again.metrics.shards_added);
        println!("deterministic ✓ (keys, moves and pool growth reproduced exactly)");
    }
}
