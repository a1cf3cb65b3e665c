//! Health-plane bench: runs a churn scenario twice — telemetry **off**,
//! then **on** (bounded ring + metrics registry) — and ships the live
//! health/load view as a reviewable artifact.
//!
//! ```text
//! cargo run --release -p egka-bench --bin health_churn
//! cargo run --release -p egka-bench --bin health_churn -- \
//!     [--preset mixed-suite|radio] [--groups N] [--epochs N] \
//!     [--shards N] [--seed N] [--check-determinism] [--json PATH]
//! ```
//!
//! The untraced pass is the overhead guard's subject (`wall_ms_untraced`,
//! gated by `bench_diff` like `trace_churn`'s). The telemetry pass must
//! reproduce it bit for bit — the health plane is passive accounting —
//! and is then audited three ways:
//!
//! * the per-shard [`egka_service::ShardStats`] must sum to the
//!   `ServiceMetrics` totals in every `Counters` field — exactly for
//!   integers, to f64 association order for energy — the same partition
//!   check the service-level proptest runs;
//! * the registry's Prometheus exposition must parse line by line
//!   (`# HELP`/`# TYPE` discipline, label syntax, finite sample values)
//!   and, under `--check-determinism`, render **byte-identically** on a
//!   same-seed rerun — only virtual/deterministic values may feed it;
//! * the ring must record zero drops (`trace_drops`, gated nonzero-fatal
//!   by `bench_diff`).
//!
//! The artifact (`BENCH_health_churn.json`, schema `egka-health-churn/1`)
//! embeds the per-shard table, the typed health verdict, the stall
//! ledger's worst offenders and the exposition size.

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

/// Minimal line-level Prometheus text-format check: `# HELP` and `# TYPE`
/// precede their family's samples, `# TYPE` kinds are known, sample lines
/// are `name[{labels}] value` with a finite value, and every sample's
/// family was typed. Enough for any scraper to ingest the page.
fn validate_exposition(text: &str) {
    use std::collections::BTreeSet;
    let mut typed: BTreeSet<String> = BTreeSet::new();
    let mut samples = 0u64;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let fam = it.next().expect("family").to_string();
            let kind = it.next().expect("kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind {kind:?}"
            );
            typed.insert(fam);
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (name_part, value) = line.rsplit_once(' ').expect("sample is `name value`");
        let family = name_part.split('{').next().expect("sample name");
        assert!(
            !family.is_empty()
                && family
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {family:?}"
        );
        if let Some(open) = name_part.find('{') {
            assert!(name_part.ends_with('}'), "unterminated labels {line:?}");
            let labels = &name_part[open + 1..name_part.len() - 1];
            for pair in labels.split(',') {
                let (k, v) = pair.split_once('=').expect("label is k=\"v\"");
                assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
            }
        }
        assert!(
            value == "+Inf" || value == "-Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value {value:?}"
        );
        // Histogram series suffix back to their typed family name.
        let base = ["_bucket", "_sum", "_count", "_total", "_rate"]
            .iter()
            .find_map(|s| family.strip_suffix(s))
            .unwrap_or(family);
        assert!(
            typed.contains(family) || typed.contains(base),
            "sample {family} has no # TYPE"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition cannot be empty");
}

/// Σ-shards == metrics in every counter (see
/// [`egka_service::ShardStats::reconcile`]).
fn assert_reconciles(report: &ChurnReport) {
    if let Err(e) = egka_service::ShardStats::reconcile(&report.shards, &report.metrics) {
        panic!("per-shard stats do not partition the service totals: {e}");
    }
}

fn health_label(report: &ChurnReport) -> &'static str {
    report.health.label()
}

fn run_telemetry_pass(config: &mut ChurnConfig) -> (ChurnReport, String) {
    let registry = Arc::new(MetricsRegistry::new());
    let (tc, _ring) = TraceConfig::ring(1 << 22);
    config.trace = Some(tc.with_registry(Arc::clone(&registry)));
    let report = run_churn(config);
    let exposition = registry.snapshot().prometheus_text();
    (report, exposition)
}

fn main() {
    let preset = arg_value("--preset").unwrap_or_else(|| "mixed-suite".into());
    let mut config = match preset.as_str() {
        "mixed-suite" => ChurnConfig::mixed_suite_bench(),
        "radio" => ChurnConfig::radio_bench(),
        other => panic!("unknown --preset {other} (try: mixed-suite, radio)"),
    };
    apply_knobs(&mut config);

    println!(
        "health_churn: preset {preset}, {} groups, {} epochs, {} shards, seed {:#x}\n",
        config.groups, config.epochs, config.shards, config.seed
    );

    // Pass 1 — telemetry off: the no-op overhead guard's subject.
    let untraced = run_churn(&config);
    let wall_ms_untraced = untraced.wall.as_secs_f64() * 1e3;
    println!("untraced:  {:.1} ms", wall_ms_untraced);

    // Pass 2 — telemetry on.
    let (report, exposition) = run_telemetry_pass(&mut config);
    let wall_ms = report.wall.as_secs_f64() * 1e3;
    println!("telemetry: {:.1} ms", wall_ms);

    // The health plane is passive accounting: nothing observable moves.
    assert_eq!(
        untraced.key_fingerprint, report.key_fingerprint,
        "telemetry perturbed the keys"
    );
    assert_eq!(
        untraced.metrics.counters, report.metrics.counters,
        "telemetry perturbed the counters"
    );
    let trace_drops = report.trace_drops.unwrap_or(0);
    assert_eq!(trace_drops, 0, "the ring saturated");

    assert_reconciles(&report);
    println!("per-shard stats reconcile with service totals ✓");
    validate_exposition(&exposition);
    println!(
        "exposition parses ({} bytes, {} lines) ✓\n",
        exposition.len(),
        exposition.lines().count()
    );
    println!("{}", report.render());

    // Machine-readable artifact for the perf/health gate.
    let shards_json = report
        .shards
        .iter()
        .map(|s| {
            format!(
                "{{\"shard\": {}, \"groups\": {}, \"pending_events\": {}, \
                 \"events_applied\": {}, \"rekeys_executed\": {}, \
                 \"rekeys_failed\": {}, \"groups_stalled\": {}, \
                 \"steps_retried\": {}, \"energy_mj\": {:.3}, \"wal_bytes\": {}}}",
                s.shard,
                s.groups,
                s.pending_events,
                s.events_applied,
                s.rekeys_executed,
                s.rekeys_failed,
                s.groups_stalled,
                s.steps_retried,
                s.energy_mj,
                s.wal_bytes
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let stalls_json = {
        let mut rows = report.member_stalls.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.stall.cumulative));
        rows.truncate(10);
        rows.iter()
            .map(|r| {
                format!(
                    "{{\"group\": {}, \"member\": {}, \"consecutive\": {}, \
                     \"cumulative\": {}, \"cause\": \"{}\"}}",
                    r.group,
                    r.member.0,
                    r.stall.consecutive,
                    r.stall.cumulative,
                    r.stall.last_cause.label()
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
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
    let json = format!(
        "{{\n  \
         \"schema\": \"egka-health-churn/1\",\n  \
         \"preset\": \"{preset}\",\n  \
         \"groups\": {},\n  \
         \"epochs\": {},\n  \
         \"health\": \"{}\",\n  \
         \"trace_drops\": {trace_drops},\n  \
         \"exposition_bytes\": {},\n  \
         \"energy_mj\": {:.3},\n  \
         \"wall_ms\": {wall_ms:.1},\n  \
         \"wall_ms_untraced\": {wall_ms_untraced:.1},\n  \
         \"shards\": [{shards_json}],\n  \
         \"member_stalls\": [{stalls_json}],\n  \
         \"suites\": {{{suites}}},\n  \
         \"metrics\": {},\n  \
         \"key_fingerprint\": \"{:016x}\"\n}}\n",
        config.groups,
        config.epochs,
        health_label(&report),
        exposition.len(),
        report.metrics.energy_mj,
        report.metrics.to_json(),
        report.key_fingerprint,
    );
    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_health_churn.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("wrote {json_path}");
    }

    if has_flag("--check-determinism") {
        println!("\nre-running for determinism check…");
        let (again, exposition2) = run_telemetry_pass(&mut config);
        assert_eq!(report.key_fingerprint, again.key_fingerprint);
        assert!(
            exposition == exposition2,
            "same seed + config must render a byte-identical exposition"
        );
        println!(
            "deterministic ✓ ({} bytes of exposition reproduced exactly)",
            exposition2.len()
        );
    }
}
