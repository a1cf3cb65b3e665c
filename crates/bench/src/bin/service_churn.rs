//! Service-layer throughput bench: Poisson churn over thousands of
//! concurrent groups through the `egka-service` epoch-batched rekey
//! coordinator.
//!
//! ```text
//! cargo run --release -p egka-bench --bin service_churn
//! cargo run --release -p egka-bench --bin service_churn -- \
//!     --groups 1000 --epochs 10 --join-rate 0.7 --leave-rate 0.6 \
//!     --shards 8 --seed 7 [--loss 0.01] [--policy cheapest|<suite key>] \
//!     [--preset mixed-suite] [--check-determinism]
//! ```
//!
//! `--policy` selects the suite policy: `cheapest` prices all five
//! Table 1 protocols with the paper's low-power profile (StrongARM +
//! 100 kbps radio) and runs each group on its argmin; `cheapest-wlan`
//! prices with the WLAN card; any suite key (`proposed`, `bd_ecdsa`, …)
//! fixes the whole fleet on that protocol. `--preset mixed-suite` starts
//! from `ChurnConfig::mixed_suite_bench()` (founding sizes 2..4 under the
//! cheapest policy — a provably mixed fleet) and asserts that at least two
//! distinct suites were actually selected.
//!
//! Reports per-epoch events/rekeys/coalesce-ratio/energy and rekey-latency
//! quantiles, plus scenario totals (throughput, events-coalesced ratio,
//! total energy) and a key fingerprint that is identical for identical
//! seeds. `--loss` injects per-delivery drop probability into every rekey
//! medium, exercising the shard scheduler's stall-detection and
//! retransmission path. With `--check-determinism` the scenario runs
//! twice and the two fingerprints are compared.
//!
//! The scenario totals are also written as machine-readable JSON to
//! `BENCH_service_churn.json` (override with `--json PATH`, disable with
//! `--json -`), so the perf trajectory is tracked across PRs.

use egka_bench::{arg_value, churn_report_json, has_flag, parse_suite_policy};
use egka_sim::{run_churn, ChurnConfig};

fn main() {
    let mut config = match arg_value("--preset").as_deref() {
        None => ChurnConfig::default(),
        Some("mixed-suite") => ChurnConfig::mixed_suite_bench(),
        Some(other) => panic!("unknown --preset {other} (try: mixed-suite)"),
    };
    let mixed_preset = arg_value("--preset").as_deref() == Some("mixed-suite");
    if let Some(v) = arg_value("--policy") {
        config.suite_policy = parse_suite_policy(&v);
    }
    if let Some(v) = arg_value("--groups") {
        config.groups = v.parse().expect("--groups N");
    }
    if let Some(v) = arg_value("--group-size") {
        config.group_size = v.parse().expect("--group-size N");
    }
    if let Some(v) = arg_value("--epochs") {
        config.epochs = v.parse().expect("--epochs N");
    }
    if let Some(v) = arg_value("--join-rate") {
        config.join_rate = v.parse().expect("--join-rate F");
    }
    if let Some(v) = arg_value("--leave-rate") {
        config.leave_rate = v.parse().expect("--leave-rate F");
    }
    if let Some(v) = arg_value("--shards") {
        config.shards = v.parse().expect("--shards N");
    }
    if let Some(v) = arg_value("--seed") {
        config.seed = v.parse().expect("--seed N");
    }
    if let Some(v) = arg_value("--loss") {
        config.loss = v.parse().expect("--loss F");
    }

    println!(
        "service_churn: {} groups (size {}..{}), {} epochs, λ_join {}, λ_leave {}, \
         {} shards, seed {:#x}, loss {}, policy {:?}\n",
        config.groups,
        config.group_size,
        config.group_size + 2,
        config.epochs,
        config.join_rate,
        config.leave_rate,
        config.shards,
        config.seed,
        config.loss,
        config.suite_policy
    );

    let report = run_churn(&config);
    print!("{}", report.render());

    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_service_churn.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, churn_report_json(&report))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("\nwrote {json_path}");
    }

    // Acceptance assert: batching must actually save protocol executions.
    // Only binding at meaningful workload sizes — a tiny or idle run can
    // legitimately see one rekey per event (ratio exactly 1).
    if report.metrics.events_applied >= 50 {
        assert!(
            report.metrics.coalesce_ratio() > 1.0,
            "epoch batching must coalesce events (ratio {:.2} <= 1)",
            report.metrics.coalesce_ratio()
        );
    } else {
        println!("\n(workload too small for the coalesce-ratio acceptance assert)");
    }

    // Acceptance assert for the mixed-suite preset: the cheapest policy
    // must actually field more than one protocol across the fleet.
    if mixed_preset {
        assert!(
            report.suites.len() >= 2,
            "mixed-suite preset selected only {:?}",
            report.suites
        );
        println!(
            "\nmixed fleet ✓ ({})",
            report
                .suites
                .iter()
                .map(|s| format!("{} × {}", s.suite.key(), s.groups))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    if has_flag("--check-determinism") {
        println!("\nre-running for determinism check…");
        let again = run_churn(&config);
        assert_eq!(
            report.key_fingerprint, again.key_fingerprint,
            "same seed must reproduce identical keys"
        );
        assert_eq!(
            report.metrics.rekeys_executed,
            again.metrics.rekeys_executed
        );
        assert_eq!(
            report.metrics.steps_retried, again.metrics.steps_retried,
            "retransmission schedule must be deterministic too"
        );
        if mixed_preset {
            let mix = |r: &egka_sim::ChurnReport| {
                r.suites
                    .iter()
                    .map(|s| (s.suite, s.groups, s.rekeys))
                    .collect::<Vec<_>>()
            };
            assert_eq!(mix(&report), mix(&again), "suite selection is seeded");
        }
        println!(
            "deterministic ✓ (fingerprint {:016x} reproduced)",
            again.key_fingerprint
        );
    }
}
