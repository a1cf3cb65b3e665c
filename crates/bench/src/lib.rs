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
//! ## Service benches and the gate
//!
//! | Binary | What it does |
//! |---|---|
//! | `churn` | every service-churn scenario as a named preset (`--preset NAME`, all by default): untraced, traced and traced-rerun passes plus the preset's extra pass, each check a named invariant, one `egka-churn/1` artifact ([`churn_preset_json`]) |
//! | `bench_primitives` | old-vs-new primitive timings on seeded workloads (`egka-primitives/1`) |
//! | `bench_diff` | compares a fresh artifact exactly against its committed baseline under `baselines/` (read back with [`json`]) |
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

/// Renders one preset's entry in the `egka-churn/1` artifact that the
/// `churn` runner writes and `bench_diff` compares exactly:
/// `{counters, suites, fingerprints, invariants}`. Every value is
/// deterministic per seed — the artifact carries no wall-clock keys.
///
/// * `counters` is [`egka_service::ServiceMetrics::to_json`], the
///   service's complete counter set;
/// * `suites` holds each GKA suite's live groups, rekeys and priced
///   energy;
/// * `fingerprints` holds the key fingerprint and the traced pass's
///   `(name, phase) → count` event fingerprint;
/// * `invariants` maps each named check the runner made to its outcome.
pub fn churn_preset_json(
    report: &egka_sim::ChurnReport,
    event_fingerprint: u64,
    invariants: &[(&str, bool)],
) -> String {
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
    let invariants = invariants
        .iter()
        .map(|(name, ok)| format!("\"{name}\": {ok}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n      \
         \"counters\": {},\n      \
         \"suites\": {{{suites}}},\n      \
         \"fingerprints\": {{\"key\": \"{:016x}\", \"event\": \"{event_fingerprint:016x}\"}},\n      \
         \"invariants\": {{{invariants}}}\n    }}",
        report.metrics.to_json(),
        report.key_fingerprint,
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
        let json = churn_preset_json(&report, 0xabc, &[("coalescing", true), ("drops", false)]);
        for key in [
            "\"counters\"",
            "\"events_applied\"",
            "\"rekeys_executed\"",
            "\"wal_appends\"",
            "\"suites\"",
            "\"fingerprints\"",
            "\"event\": \"0000000000000abc\"",
            "\"invariants\"",
            "\"coalescing\": true",
            "\"drops\": false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No wall-clock value may leak into an exactly compared artifact.
        assert!(!json.contains("wall"), "{json}");
        // Balanced braces — cheap structural sanity for the hand-rolled
        // encoder.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
