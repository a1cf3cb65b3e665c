//! Robustness bench: churn with scripted faults — one byzantine-silent
//! member and one flapper — against the identifiable-abort eviction
//! engine, shipped as a reviewable artifact.
//!
//! ```text
//! cargo run --release -p egka-bench --bin robust_churn
//! cargo run --release -p egka-bench --bin robust_churn -- \
//!     [--groups N] [--epochs N] [--shards N] [--seed N] \
//!     [--check-determinism] [--json PATH]
//! ```
//!
//! Two passes of [`ChurnConfig::robust_bench`] — telemetry off (the
//! overhead guard's subject), then on — with the robustness acceptance
//! asserted on both:
//!
//! * the silent member and the flapper are both evicted, each leaving a
//!   signed blame certificate in the WAL (`members_evicted`,
//!   `blame_certs`);
//! * the flapper is readmitted once its quarantine penalty elapses and
//!   re-evicted with an escalated penalty (`members_readmitted`,
//!   quarantine eviction count ≥ 2);
//! * **no fault-injected group finishes stalled** — every victim group
//!   completes its epochs over the survivors (`stalled_faulted_groups`,
//!   gated outright-fatal by `bench_diff`).
//!
//! The artifact (`BENCH_robust_churn.json`, schema `egka-robust-churn/1`)
//! embeds the quarantine table and the full metrics block.

use std::sync::Arc;

use egka_bench::{arg_value, has_flag};
use egka_sim::{run_churn, ChurnConfig, ChurnReport};
use egka_trace::{MetricsRegistry, TraceConfig};

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
    if let Some(v) = arg_value("--seed") {
        config.seed = v.parse().expect("--seed N");
    }
}

/// The robustness acceptance: both scripted culprits evicted with certs,
/// the flapper readmitted and re-evicted, and no victim group stalled.
fn assert_robust(report: &ChurnReport) {
    let m = &report.metrics;
    assert!(
        m.members_evicted >= 2,
        "expected both scripted culprits evicted, got {}",
        m.members_evicted
    );
    assert!(
        m.blame_certs >= 2,
        "every eviction must leave a signed blame certificate"
    );
    assert!(
        m.members_readmitted >= 1,
        "the flapper must be readmitted once its penalty elapses"
    );
    assert!(
        report.quarantine.iter().any(|&(_, _, n)| n >= 2),
        "the flapper must be re-evicted with an escalated penalty"
    );
    assert_eq!(
        report.stalled_faulted_groups, 0,
        "a fault-injected group finished stalled — the engine failed to \
         complete the epoch over the survivors"
    );
}

fn run_telemetry_pass(config: &mut ChurnConfig) -> ChurnReport {
    let registry = Arc::new(MetricsRegistry::new());
    let (tc, _ring) = TraceConfig::ring(1 << 22);
    config.trace = Some(tc.with_registry(Arc::clone(&registry)));
    run_churn(config)
}

fn main() {
    let mut config = ChurnConfig::robust_bench();
    apply_knobs(&mut config);

    println!(
        "robust_churn: {} groups, {} epochs, {} shards, seed {:#x}, \
         faults {:?}\n",
        config.groups, config.epochs, config.shards, config.seed, config.faults
    );

    // Pass 1 — telemetry off: the no-op overhead guard's subject.
    let untraced = run_churn(&config);
    let wall_ms_untraced = untraced.wall.as_secs_f64() * 1e3;
    println!("untraced:  {:.1} ms", wall_ms_untraced);
    assert_robust(&untraced);

    // Pass 2 — telemetry on: eviction instants and counters ride along
    // without perturbing anything observable.
    let report = run_telemetry_pass(&mut config);
    let wall_ms = report.wall.as_secs_f64() * 1e3;
    println!("telemetry: {:.1} ms\n", wall_ms);
    assert_robust(&report);
    assert_eq!(
        untraced.key_fingerprint, report.key_fingerprint,
        "telemetry perturbed the keys"
    );
    assert_eq!(untraced.quarantine, report.quarantine);
    assert_eq!(
        untraced.metrics.members_evicted,
        report.metrics.members_evicted
    );
    let trace_drops = report.trace_drops.unwrap_or(0);
    assert_eq!(trace_drops, 0, "the ring saturated");

    println!("{}", report.render());

    let quarantine_json = report
        .quarantine
        .iter()
        .map(|&(member, until_epoch, evictions)| {
            format!(
                "{{\"member\": {member}, \"until_epoch\": {until_epoch}, \
                 \"evictions\": {evictions}}}"
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
         \"schema\": \"egka-robust-churn/1\",\n  \
         \"groups\": {},\n  \
         \"epochs\": {},\n  \
         \"health\": \"{}\",\n  \
         \"members_evicted\": {},\n  \
         \"blame_certs\": {},\n  \
         \"members_readmitted\": {},\n  \
         \"stalled_faulted_groups\": {},\n  \
         \"quarantine\": [{quarantine_json}],\n  \
         \"trace_drops\": {trace_drops},\n  \
         \"energy_mj\": {:.3},\n  \
         \"wall_ms\": {wall_ms:.1},\n  \
         \"wall_ms_untraced\": {wall_ms_untraced:.1},\n  \
         \"suites\": {{{suites}}},\n  \
         \"metrics\": {},\n  \
         \"key_fingerprint\": \"{:016x}\"\n}}\n",
        config.groups,
        config.epochs,
        report.health.label(),
        report.metrics.members_evicted,
        report.metrics.blame_certs,
        report.metrics.members_readmitted,
        report.stalled_faulted_groups,
        report.metrics.energy_mj,
        report.metrics.to_json(),
        report.key_fingerprint,
    );
    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_robust_churn.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("wrote {json_path}");
    }

    if has_flag("--check-determinism") {
        println!("\nre-running for determinism check…");
        let again = run_telemetry_pass(&mut config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert_eq!(report.quarantine, again.quarantine);
        assert_eq!(
            report.metrics.members_evicted,
            again.metrics.members_evicted
        );
        println!("deterministic ✓ (keys, quarantine and evictions reproduced exactly)");
    }
}
