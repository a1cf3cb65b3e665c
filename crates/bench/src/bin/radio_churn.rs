//! Radio-time churn bench: Poisson churn over many groups where every
//! rekey runs on the **virtual-time 100 kbps sensor medium** — per-link
//! delay, airtime contention, seeded loss, and finite batteries whose
//! exhaustion powers motes off mid-protocol.
//!
//! ```text
//! cargo run --release -p egka-bench --bin radio_churn
//! cargo run --release -p egka-bench --bin radio_churn -- \
//!     --groups 40 --epochs 4 --loss 0.01 --delay-ms 2 --jitter-ms 1 \
//!     --battery-uj 2000000 --weak 2 --weak-battery-uj 100000 \
//!     [--wlan] [--seed N] [--check-determinism]
//! ```
//!
//! Reports everything `service_churn` does plus the radio view: p50/p95/
//! p99 rekey latency in virtual milliseconds, per-node battery drain
//! (µJ), and which motes died. The driver evicts dead motes with a
//! `Leave`, so one battery death stalls one group for one epoch — every
//! other group keeps completing (the liveness acceptance criterion, which
//! this binary asserts).
//!
//! The scenario totals are also written as machine-readable JSON to
//! `BENCH_radio_churn.json` (same shape as `BENCH_service_churn.json`;
//! override with `--json PATH`, disable with `--json -`), so radio-path
//! perf is tracked across PRs too.

use egka_bench::{arg_value, churn_report_json, has_flag, parse_suite_policy};
use egka_sim::{run_churn, ChurnConfig};

fn main() {
    // The canonical radio scenario lives on ChurnConfig so this binary,
    // the tests and CI all drive the same knobs.
    let mut config = ChurnConfig::radio_bench();
    let mut radio = config.radio.take().expect("radio_bench has a radio");
    if let Some(v) = arg_value("--policy") {
        config.suite_policy = parse_suite_policy(&v);
    }
    if has_flag("--wlan") {
        radio.profile = egka_medium::RadioProfile::wlan_spectrum24();
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
    if let Some(v) = arg_value("--delay-ms") {
        radio.profile.delay.base_ms = v.parse().expect("--delay-ms F");
    }
    if let Some(v) = arg_value("--jitter-ms") {
        radio.profile.delay.jitter_ms = v.parse().expect("--jitter-ms F");
    }
    if let Some(v) = arg_value("--battery-uj") {
        radio.battery_uj = v.parse().expect("--battery-uj F");
    }
    if let Some(v) = arg_value("--weak") {
        radio.weak_nodes = v.parse().expect("--weak N");
    }
    if let Some(v) = arg_value("--weak-battery-uj") {
        radio.weak_battery_uj = v.parse().expect("--weak-battery-uj F");
    }

    println!(
        "radio_churn: {} groups over '{}' ({} bps, delay {}+U[0,{}) ms, loss {}), \
         {} epochs, batteries {} µJ ({} weak motes at {} µJ), seed {:#x}\n",
        config.groups,
        radio.profile.transceiver.name,
        radio.profile.transceiver.data_rate_bps,
        radio.profile.delay.base_ms,
        radio.profile.delay.jitter_ms,
        config.loss,
        config.epochs,
        radio.battery_uj,
        radio.weak_nodes,
        radio.weak_battery_uj,
        config.seed
    );
    config.radio = Some(radio.clone());

    let report = run_churn(&config);
    print!("{}", report.render());

    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_radio_churn.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, churn_report_json(&report))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("\nwrote {json_path}");
    }

    let summary = report.radio.as_ref().expect("radio scenario");
    // Acceptance asserts: rekey latency is measured in virtual radio time,
    // finite batteries actually kill, and one death never takes the
    // service down with it.
    assert!(
        summary.latency_quantiles_ms.is_some(),
        "rekeys must report virtual-ms latency"
    );
    if radio.weak_nodes > 0 && radio.weak_battery_uj < 500_000.0 {
        assert!(
            summary.nodes_died >= 1,
            "a nearly-flat mote must die mid-scenario"
        );
        assert!(
            report.metrics.rekeys_executed > report.metrics.groups_stalled,
            "liveness: the fleet keeps rekeying around the corpses"
        );
    }

    if has_flag("--check-determinism") {
        println!("\nre-running for determinism check…");
        let again = run_churn(&config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert_eq!(
            summary.died,
            again.radio.as_ref().expect("radio scenario").died,
            "battery deaths must be deterministic"
        );
        assert_eq!(
            summary.latency_quantiles_ms,
            again
                .radio
                .as_ref()
                .expect("radio scenario")
                .latency_quantiles_ms,
            "virtual time must be deterministic"
        );
        println!(
            "deterministic ✓ (fingerprint {:016x}, {} death(s) reproduced)",
            again.key_fingerprint,
            again.radio.as_ref().expect("radio scenario").nodes_died
        );
    }
}
