//! # egka-bench
//!
//! Reproduction harness binaries and Criterion micro-benchmarks.
//!
//! ## `repro_*` binaries — one per paper artifact
//!
//! | Binary | Artifact | What it does |
//! |---|---|---|
//! | `repro_table1` | Table 1 | symbolic complexity table + closed forms evaluated at `n`, verified against instrumented runs |
//! | `repro_table2` | Table 2 | computational energy model, re-derived via the paper's extrapolation rule |
//! | `repro_table3` | Table 3 | communication energy model from per-bit costs × wire sizes |
//! | `repro_table4` | Table 4 | symbolic dynamic-protocol complexity + measured message counts |
//! | `repro_table5` | Table 5 | instrumented dynamic-protocol energies vs the paper's joules |
//! | `repro_figure1` | Figure 1 | the energy sweep, ASCII log-scale chart + CSV |
//!
//! Run e.g. `cargo run --release -p egka-bench --bin repro_figure1`.
//!
//! ## Criterion benches
//!
//! * `substrates` — bigint/Montgomery, SHA-256, AES, curve and pairing ops;
//! * `signatures` — sign/verify for GQ, DSA, ECDSA, SOK, plus the paper's
//!   central ablation: **batch vs individual GQ verification**;
//! * `protocols` — full GKA rounds and dynamic events at small `n`;
//! * `tables` — the table/figure generators (closed-form path).
//!
//! ```
//! use egka_bench::fmt_joules;
//!
//! // Engineering-friendly energy formatting, as printed by the binaries.
//! assert_eq!(fmt_joules(2.5), "2.500 J");
//! assert_eq!(fmt_joules(0.0413), "41.300 mJ");
//! assert_eq!(fmt_joules(42e-6), "42.000 µJ");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

/// Formats a joule value with engineering-friendly precision.
pub fn fmt_joules(j: f64) -> String {
    if j >= 1.0 {
        format!("{j:.3} J")
    } else if j >= 1e-3 {
        format!("{:.3} mJ", j * 1e3)
    } else {
        format!("{:.3} µJ", j * 1e6)
    }
}

/// Parses `--flag value`-style options from `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// True when `--flag` is present.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses a `--policy` value: `cheapest` (StrongARM + 100 kbps radio),
/// `cheapest-wlan` (StrongARM + WLAN card), or a suite key (`proposed`,
/// `bd_sok`, `bd_ecdsa`, `bd_dsa`, `ssn`) for a fixed fleet.
///
/// # Panics
/// Panics on an unrecognized value.
pub fn parse_suite_policy(value: &str) -> egka_service::SuitePolicy {
    use egka_energy::{CpuModel, Transceiver};
    use egka_service::{SuiteId, SuitePolicy};
    match value {
        "cheapest" => SuitePolicy::Cheapest {
            cpu: CpuModel::strongarm_133(),
            transceiver: Transceiver::radio_100kbps(),
        },
        "cheapest-wlan" => SuitePolicy::Cheapest {
            cpu: CpuModel::strongarm_133(),
            transceiver: Transceiver::wlan_spectrum24(),
        },
        key => match SuiteId::from_key(key) {
            Some(id) => SuitePolicy::Fixed(id),
            None => panic!("unknown --policy {key} (try: cheapest, cheapest-wlan, or a suite key)"),
        },
    }
}

/// Renders a churn report as a flat JSON object — the machine-readable
/// artifact (`BENCH_service_churn.json`) that tracks the perf trajectory
/// across PRs. Hand-rolled (no JSON dependency in this environment): every
/// value is a number, a hex string, or a `{p50,p95,p99}` object — plus a
/// nested `"metrics"` object carrying the service's *complete* counter
/// set via [`egka_service::ServiceMetrics::to_json`] (the legacy flat
/// keys stay, so committed baselines keep parsing).
pub fn churn_report_json(report: &egka_sim::ChurnReport) -> String {
    fn quantiles_ms(q: Option<(f64, f64, f64)>) -> String {
        match q {
            Some((p50, p95, p99)) => {
                format!("{{\"p50\": {p50:.3}, \"p95\": {p95:.3}, \"p99\": {p99:.3}}}")
            }
            None => "null".to_string(),
        }
    }
    // An idle run has rekeys == 0 and a coalesce ratio of ∞, which is not
    // representable in JSON; `null` keeps the artifact parseable.
    let m = &report.metrics;
    let coalesce = if m.coalesce_ratio().is_finite() {
        format!("{:.4}", m.coalesce_ratio())
    } else {
        "null".to_string()
    };
    let wall_q = report.wall_latency.map(|(a, b, c)| {
        (
            a.as_secs_f64() * 1e3,
            b.as_secs_f64() * 1e3,
            c.as_secs_f64() * 1e3,
        )
    });
    let (virtual_q, nodes_died, battery_spent_uj) = match &report.radio {
        Some(r) => (r.latency_quantiles_ms, r.nodes_died, r.total_spent_uj),
        None => (None, 0, 0.0),
    };
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
    format!(
        "{{\n  \
         \"schema\": \"egka-service-churn/1\",\n  \
         \"groups\": {},\n  \
         \"groups_active\": {},\n  \
         \"events_submitted\": {},\n  \
         \"events_applied\": {},\n  \
         \"rekeys_executed\": {},\n  \
         \"coalesce_ratio\": {},\n  \
         \"energy_mj\": {:.3},\n  \
         \"throughput_eps\": {:.1},\n  \
         \"wall_ms\": {:.1},\n  \
         \"groups_stalled\": {},\n  \
         \"steps_retried\": {},\n  \
         \"nodes_died\": {},\n  \
         \"battery_spent_uj\": {:.1},\n  \
         \"latency_wall_ms\": {},\n  \
         \"latency_virtual_ms\": {},\n  \
         \"suites\": {{{}}},\n  \
         \"metrics\": {},\n  \
         \"key_fingerprint\": \"{:016x}\"\n}}\n",
        report.groups,
        m.groups_active,
        report.events_submitted,
        m.events_applied,
        m.rekeys_executed,
        coalesce,
        m.energy_mj,
        report.throughput_eps,
        report.wall.as_secs_f64() * 1e3,
        m.groups_stalled,
        m.steps_retried,
        nodes_died,
        battery_spent_uj,
        quantiles_ms(wall_q),
        quantiles_ms(virtual_q),
        suites,
        m.to_json(),
        report.key_fingerprint,
    )
}

/// Renders the crash-recovery scenario's artifact
/// (`BENCH_recovery_churn.json`): the uninterrupted and recovered runs'
/// fingerprints (the acceptance equality), what recovery replayed, and
/// both wall clocks.
pub fn recovery_churn_json(
    uninterrupted: &egka_sim::ChurnReport,
    crashed: &egka_sim::ChurnReport,
) -> String {
    let rec = crashed
        .recovery
        .expect("the crashed run carries a recovery summary");
    let snapshot_epoch = match rec.snapshot_epoch {
        Some(e) => e.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \
         \"schema\": \"egka-recovery-churn/1\",\n  \
         \"groups\": {},\n  \
         \"epochs\": {},\n  \
         \"kill_epoch\": {},\n  \
         \"snapshot_epoch\": {},\n  \
         \"records_replayed\": {},\n  \
         \"epochs_replayed\": {},\n  \
         \"groups_recovered\": {},\n  \
         \"uninterrupted_fingerprint\": \"{:016x}\",\n  \
         \"recovered_fingerprint\": \"{:016x}\",\n  \
         \"fingerprints_equal\": {},\n  \
         \"uninterrupted_wall_ms\": {:.1},\n  \
         \"recovered_wall_ms\": {:.1}\n}}\n",
        uninterrupted.groups,
        uninterrupted.epochs.len(),
        rec.kill_epoch,
        snapshot_epoch,
        rec.records_replayed,
        rec.epochs_replayed,
        rec.groups_recovered,
        uninterrupted.key_fingerprint,
        crashed.key_fingerprint,
        uninterrupted.key_fingerprint == crashed.key_fingerprint,
        uninterrupted.wall.as_secs_f64() * 1e3,
        crashed.wall.as_secs_f64() * 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joule_formatting() {
        assert_eq!(fmt_joules(1.234), "1.234 J");
        assert_eq!(fmt_joules(0.039), "39.000 mJ");
        assert_eq!(fmt_joules(0.00000134 * 1000.0), "1.340 mJ");
        assert_eq!(fmt_joules(0.0000005), "0.500 µJ");
    }

    #[test]
    fn churn_json_has_the_tracked_fields() {
        let report = egka_sim::run_churn(&egka_sim::ChurnConfig {
            groups: 4,
            epochs: 2,
            shards: 2,
            radio: Some(egka_sim::RadioChurnConfig::ideal()),
            ..egka_sim::ChurnConfig::default()
        });
        let json = churn_report_json(&report);
        for key in [
            "\"schema\"",
            "\"events_applied\"",
            "\"rekeys_executed\"",
            "\"coalesce_ratio\"",
            "\"throughput_eps\"",
            "\"latency_wall_ms\"",
            "\"latency_virtual_ms\"",
            "\"p99\"",
            "\"key_fingerprint\"",
            "\"metrics\"",
            "\"wal_appends\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces — cheap structural sanity for the hand-rolled
        // encoder.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
