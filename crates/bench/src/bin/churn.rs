//! The churn runner: every service-churn scenario CI checks, as named
//! presets with one set of passes and one artifact.
//!
//! ```text
//! cargo run --release -p egka-bench --bin churn                  # every preset
//! cargo run --release -p egka-bench --bin churn -- --preset radio
//! cargo run --release -p egka-bench --bin churn -- --json BENCH_churn.json
//! ```
//!
//! Each preset is a [`ChurnConfig`] with its parameters fixed in
//! [`PRESETS`], and runs the same passes:
//!
//! 1. **untraced** — the subject of the artifact's counters;
//! 2. **traced** into a bounded ring with a metrics registry — it must
//!    reproduce the untraced pass exactly (fingerprint, metrics,
//!    quarantine), drop nothing, and export a well-formed Chrome trace
//!    and Prometheus exposition;
//! 3. **traced rerun** — the Chrome trace and the exposition must be
//!    byte-identical to pass 2's;
//! 4. the preset's **extra pass**, where it declares one: the static-pool
//!    control for `reshard`, crash-and-recover for `recovery`.
//!
//! Every check is a named invariant. All presets land in one artifact
//! (default `BENCH_churn.json`, schema `egka-churn/1`):
//! `{"schema", "presets": {NAME: {counters, suites, fingerprints,
//! invariants}}}` — see [`egka_bench::churn_preset_json`]. It holds no
//! wall-clock value, so `bench_diff` compares it exactly against
//! `baselines/BENCH_churn.json`. Next to it the runner writes each
//! preset's Chrome trace (`<stem>.<preset>.trace.json`, for Perfetto or
//! `chrome://tracing`) and collapsed-stack energy flame
//! (`<stem>.<preset>.flame.txt`, µJ weights). The process exits 1 when
//! any invariant is false, after writing the artifact.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use egka_bench::churn_preset_json;
use egka_bench::json::Json;
use egka_service::{FileStore, ShardStats, StoreConfig};
use egka_sim::{run_churn, run_churn_with_crash, ChurnConfig, ChurnReport};
use egka_trace::{export, MetricsRegistry, TraceConfig, TraceSink};

/// A named scenario.
struct Preset {
    name: &'static str,
    config: fn() -> ChurnConfig,
    /// Preset-specific invariants over the untraced pass, including those
    /// of the preset's extra pass where it declares one.
    invariants: fn(&ChurnConfig, &ChurnReport, &mut Invariants),
}

/// The scenarios, in run order.
const PRESETS: &[Preset] = &[
    // The canonical service scenario: proposed suite, instant medium.
    Preset {
        name: "service",
        config: || ChurnConfig {
            groups: 100,
            epochs: 4,
            ..ChurnConfig::default()
        },
        invariants: none,
    },
    // 1 % delivery loss: the scheduler's stall, retransmission and
    // timeout path end to end.
    Preset {
        name: "service-loss",
        config: || ChurnConfig {
            groups: 100,
            epochs: 4,
            loss: 0.01,
            ..ChurnConfig::default()
        },
        invariants: none,
    },
    // Founding sizes straddle the closed-form crossover, so the Cheapest
    // policy fields at least two suites.
    Preset {
        name: "mixed-suite",
        config: || ChurnConfig {
            groups: 120,
            epochs: 4,
            ..ChurnConfig::mixed_suite_bench()
        },
        invariants: mixed_fleet,
    },
    Preset {
        name: "mixed-1000",
        config: || ChurnConfig {
            groups: 1000,
            epochs: 3,
            ..ChurnConfig::mixed_suite_bench()
        },
        invariants: mixed_fleet,
    },
    // The 100 kbps sensor field: link delay, 1 % loss and finite
    // batteries; two nearly-flat motes die mid-scenario.
    Preset {
        name: "radio",
        config: || ChurnConfig {
            loss: 0.01,
            ..ChurnConfig::radio_bench()
        },
        invariants: radio,
    },
    // A byzantine-silent member and a flapper against the eviction engine.
    Preset {
        name: "robust",
        config: ChurnConfig::robust_bench,
        invariants: robust,
    },
    // The pool grows 4 → 16 shards live under Poisson churn.
    Preset {
        name: "reshard",
        config: ChurnConfig::reshard_bench,
        invariants: reshard,
    },
    // The controller is killed after epoch 2's events are write-ahead
    // logged but before the epoch commits, and recovered from snapshot +
    // WAL tail on the file backend.
    Preset {
        name: "recovery",
        config: || ChurnConfig {
            groups: 40,
            epochs: 4,
            ..ChurnConfig::default()
        },
        invariants: crash_and_recover,
    },
];

/// Epoch at which the `recovery` preset kills the controller.
const KILL_EPOCH: u64 = 2;

/// Ring capacity for the traced passes, far above what any preset emits;
/// a drop fails `trace_drop_free`.
const RING_EVENTS: usize = 1 << 22;

/// Named checks in the order made; each lands in the artifact.
#[derive(Default)]
struct Invariants(Vec<(&'static str, bool)>);

impl Invariants {
    fn check(&mut self, name: &'static str, ok: bool) {
        println!("  {} {name}", if ok { "ok  " } else { "FAIL" });
        self.0.push((name, ok));
    }

    fn check_result(&mut self, name: &'static str, outcome: Result<(), String>) {
        if let Err(why) = &outcome {
            println!("       {name}: {why}");
        }
        self.check(name, outcome.is_ok());
    }
}

fn none(_: &ChurnConfig, _: &ChurnReport, _: &mut Invariants) {}

fn mixed_fleet(_: &ChurnConfig, report: &ChurnReport, inv: &mut Invariants) {
    inv.check("mixed_fleet", report.suites.len() >= 2);
}

fn radio(_: &ChurnConfig, report: &ChurnReport, inv: &mut Invariants) {
    let summary = report.radio.as_ref().expect("radio preset");
    inv.check(
        "virtual_latency_reported",
        summary.latency_quantiles_ms.is_some(),
    );
    inv.check("weak_mote_died", summary.nodes_died >= 1);
    // One death stalls one group for one epoch; the fleet keeps rekeying.
    inv.check(
        "fleet_stays_live",
        report.metrics.rekeys_executed > report.metrics.groups_stalled,
    );
}

fn robust(_: &ChurnConfig, report: &ChurnReport, inv: &mut Invariants) {
    let m = &report.metrics;
    inv.check("culprits_evicted", m.members_evicted >= 2);
    inv.check("blame_certs_signed", m.blame_certs >= 2);
    inv.check("flapper_readmitted", m.members_readmitted >= 1);
    inv.check(
        "flapper_re_evicted",
        report.quarantine.iter().any(|&(_, _, n)| n >= 2),
    );
    // Every group with a scripted culprit completes over the survivors.
    inv.check(
        "no_faulted_group_stalled",
        report.stalled_faulted_groups == 0,
    );
}

fn reshard(config: &ChurnConfig, report: &ChurnReport, inv: &mut Invariants) {
    let plan = config.reshard.expect("reshard preset");
    inv.check(
        "pool_reaches_target",
        report.shards.len() == plan.target_shards,
    );
    inv.check(
        "shards_added_correct",
        report.metrics.shards_added == (plan.target_shards - config.shards) as u64,
    );
    inv.check("groups_moved", report.metrics.groups_moved > 0);
    // Handoffs run between epochs, never against them.
    inv.check(
        "no_stall_during_reshard",
        report.metrics.groups_stalled == 0,
    );

    // The extra pass: the same workload on a fixed pool already at the
    // target size. Keys are placement-independent, so the resharded run
    // must land on its fingerprint.
    let control = run_churn(&ChurnConfig {
        shards: plan.target_shards,
        reshard: None,
        ..config.clone()
    });
    inv.check(
        "static_control_fingerprint_equal",
        control.key_fingerprint == report.key_fingerprint,
    );
    inv.check(
        "static_control_events_equal",
        control.metrics.events_applied == report.metrics.events_applied,
    );
}

/// Runs `config` against a fresh file store, killed at [`KILL_EPOCH`]
/// and recovered. The store lives in a directory this function creates
/// (it fails rather than reuse one) and removes afterwards.
fn crash_run(config: &ChurnConfig, attempt: u32) -> ChurnReport {
    let dir = std::env::temp_dir().join(format!(
        "egka-churn-recovery-{}-{attempt}",
        std::process::id()
    ));
    std::fs::create_dir(&dir)
        .unwrap_or_else(|e| panic!("creating a fresh store dir {}: {e}", dir.display()));
    let store = Arc::new(FileStore::open(&dir).expect("open store dir"));
    let report = run_churn_with_crash(
        config,
        StoreConfig::new(store).snapshot_every(1),
        KILL_EPOCH,
    );
    std::fs::remove_dir_all(&dir)
        .unwrap_or_else(|e| panic!("removing the store dir {}: {e}", dir.display()));
    report
}

/// The `recovery` preset's extra pass: a controller crash must be
/// invisible in the keys, and the recovery itself deterministic.
fn crash_and_recover(config: &ChurnConfig, report: &ChurnReport, inv: &mut Invariants) {
    let crashed = crash_run(config, 1);
    let again = crash_run(config, 2);
    let (first, second) = (
        crashed.recovery.expect("the crash ran"),
        again.recovery.expect("the crash ran"),
    );
    println!(
        "  recovered from snapshot {:?} + {} wal records",
        first.snapshot_epoch, first.records_replayed
    );
    inv.check(
        "recovered_fingerprint_equal",
        crashed.key_fingerprint == report.key_fingerprint,
    );
    inv.check(
        "recovered_groups_active_equal",
        crashed.metrics.groups_active == report.metrics.groups_active,
    );
    inv.check("kill_epoch_honoured", first.kill_epoch == KILL_EPOCH);
    inv.check(
        "repeat_crash_reproduces",
        again.key_fingerprint == crashed.key_fingerprint
            && second.records_replayed == first.records_replayed,
    );
}

/// What a traced pass leaves behind.
struct Traced {
    report: ChurnReport,
    drops: u64,
    spans_balance: Result<(), String>,
    event_fingerprint: u64,
    chrome: String,
    flame: String,
    exposition: String,
}

fn traced_pass(config: &ChurnConfig) -> Traced {
    let registry = Arc::new(MetricsRegistry::new());
    let (tc, ring) = TraceConfig::ring(RING_EVENTS);
    let report = run_churn(&ChurnConfig {
        trace: Some(tc.with_registry(Arc::clone(&registry))),
        ..config.clone()
    });
    let events = ring.events();
    Traced {
        report,
        drops: TraceSink::dropped(&*ring),
        spans_balance: export::validate(&events),
        event_fingerprint: export::event_fingerprint(&events),
        chrome: export::chrome_trace_json(&events),
        flame: export::collapsed_energy(&events),
        exposition: registry.snapshot().prometheus_text(),
    }
}

/// The Chrome export parses, every `B` is closed by a matching `E` on its
/// lane, and timestamps are monotone per `(pid, tid)` — what a trace
/// viewer needs to render it.
fn chrome_lanes_valid(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("no traceEvents array".into());
    };
    let mut lanes: BTreeMap<(u64, u64), (f64, Vec<&str>)> = BTreeMap::new();
    let mut spans = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("?");
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let field = |k: &str| ev.get(k).ok_or_else(|| format!("event without {k}"));
        let pid = field("pid")?.as_f64().ok_or("non-numeric pid")? as u64;
        let tid = field("tid")?.as_f64().ok_or("non-numeric tid")? as u64;
        let ts = field("ts")?.as_f64().ok_or("non-numeric ts")?;
        let name = field("name")?.as_str().ok_or("non-string name")?;
        let (last_ts, stack) = lanes.entry((pid, tid)).or_insert((f64::MIN, Vec::new()));
        if ts < *last_ts {
            return Err(format!("lane ({pid},{tid}): ts {ts} after {last_ts}"));
        }
        *last_ts = ts;
        match ph {
            "B" => {
                stack.push(name);
                spans += 1;
            }
            "E" => {
                if stack.pop() != Some(name) {
                    return Err(format!("lane ({pid},{tid}): E \"{name}\" closes no open B"));
                }
            }
            "i" => {}
            other => return Err(format!("unexpected phase {other:?}")),
        }
    }
    if let Some(((pid, tid), (_, stack))) = lanes.iter().find(|(_, (_, s))| !s.is_empty()) {
        return Err(format!("lane ({pid},{tid}): spans left open: {stack:?}"));
    }
    if spans == 0 {
        return Err("a churn trace cannot be span-free".into());
    }
    Ok(())
}

/// Line-level Prometheus text-format check: `# TYPE` kinds are known,
/// samples are `name[{labels}] value` with a parseable value, and every
/// sample's family was typed first.
fn exposition_valid(text: &str) -> Result<(), String> {
    let mut typed: BTreeSet<&str> = BTreeSet::new();
    let mut samples = 0u64;
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad TYPE {line:?}"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown TYPE kind {kind:?}"));
            }
            typed.insert(family);
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unexpected comment {line:?}"));
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample {line:?} is not `name value`"))?;
        let family = name_part.split('{').next().unwrap_or_default();
        if family.is_empty()
            || !family
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name {family:?}"));
        }
        if let Some(open) = name_part.find('{') {
            let labels = name_part[open + 1..]
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels {line:?}"))?;
            for pair in labels.split(',') {
                let (k, v) = pair.split_once('=').unwrap_or_default();
                if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') {
                    return Err(format!("bad label {pair:?}"));
                }
            }
        }
        if !(value == "+Inf" || value == "-Inf" || value.parse::<f64>().is_ok()) {
            return Err(format!("unparseable sample value {value:?}"));
        }
        // Histogram and meter series suffix back to their typed family.
        let base = ["_bucket", "_sum", "_count", "_total", "_rate"]
            .iter()
            .find_map(|s| family.strip_suffix(s))
            .unwrap_or(family);
        if !typed.contains(family) && !typed.contains(base) {
            return Err(format!("sample {family} has no # TYPE"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("empty exposition".into());
    }
    Ok(())
}

/// Runs one preset's passes; returns its artifact entry and whether every
/// invariant held.
fn run_preset(preset: &Preset, stem: &str) -> (String, bool) {
    let config = (preset.config)();
    println!(
        "== {}: {} groups, {} epochs, {} shards, seed {:#x}\n",
        preset.name, config.groups, config.epochs, config.shards, config.seed
    );
    let untraced = run_churn(&config);
    print!("{}", untraced.render());
    let traced = traced_pass(&config);
    let rerun = traced_pass(&config);

    println!("\ninvariants:");
    let mut inv = Invariants::default();
    let m = &untraced.metrics;
    // Batching must save protocol executions; a tiny run can
    // legitimately see one rekey per event.
    inv.check(
        "coalescing",
        m.events_applied < 50 || m.coalesce_ratio() > 1.0,
    );
    inv.check_result(
        "shards_reconcile",
        ShardStats::reconcile(&untraced.shards, m),
    );
    // Tracing is purely observational.
    inv.check(
        "trace_transparent",
        traced.report.key_fingerprint == untraced.key_fingerprint
            && traced.report.metrics.to_json() == m.to_json()
            && traced.report.quarantine == untraced.quarantine,
    );
    inv.check("trace_drop_free", traced.drops == 0);
    inv.check_result("trace_spans_balance", traced.spans_balance);
    inv.check_result("chrome_trace_valid", chrome_lanes_valid(&traced.chrome));
    inv.check_result("exposition_parses", exposition_valid(&traced.exposition));
    // Everything a trace or exposition shows is keyed to the virtual
    // clock, so a same-seed rerun renders both byte for byte.
    inv.check(
        "rerun_byte_identical",
        rerun.report.key_fingerprint == traced.report.key_fingerprint
            && rerun.chrome == traced.chrome
            && rerun.exposition == traced.exposition,
    );
    (preset.invariants)(&config, &untraced, &mut inv);

    for (suffix, body) in [("trace.json", &traced.chrome), ("flame.txt", &traced.flame)] {
        let path = format!("{stem}.{}.{suffix}", preset.name);
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    println!();
    let held = inv.0.iter().all(|&(_, ok)| ok);
    let entry = churn_preset_json(&untraced, traced.event_fingerprint, &inv.0);
    (format!("    \"{}\": {entry}", preset.name), held)
}

fn main() {
    let (mut preset, mut json_path) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--preset" => &mut preset,
            "--json" => &mut json_path,
            other => {
                panic!("unknown option {other} (the runner takes --preset NAME and --json PATH)")
            }
        };
        *slot = Some(
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value")),
        );
    }
    let json_path = json_path.unwrap_or_else(|| "BENCH_churn.json".into());
    let selected: Vec<&Preset> = match &preset {
        None => PRESETS.iter().collect(),
        Some(name) => vec![PRESETS.iter().find(|p| p.name == name).unwrap_or_else(|| {
            let names: Vec<_> = PRESETS.iter().map(|p| p.name).collect();
            panic!("unknown preset {name} (one of: {})", names.join(", "))
        })],
    };

    let stem = json_path.strip_suffix(".json").unwrap_or(&json_path);
    let mut entries = Vec::new();
    let mut failed = Vec::new();
    for p in selected {
        let (entry, held) = run_preset(p, stem);
        entries.push(entry);
        if !held {
            failed.push(p.name);
        }
    }
    let artifact = format!(
        "{{\n  \"schema\": \"egka-churn/1\",\n  \"presets\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&json_path, artifact).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
    println!("wrote {json_path} and each preset's {stem}.<preset>.trace.json / .flame.txt");
    if !failed.is_empty() {
        println!("invariants failed in: {}", failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_check_rejects_broken_lanes() {
        let trace = |events: &str| format!("{{\"traceEvents\": [{events}]}}");
        let b = r#"{"ph": "B", "pid": 1, "tid": 2, "ts": 5, "name": "epoch"}"#;
        let e = r#"{"ph": "E", "pid": 1, "tid": 2, "ts": 9, "name": "epoch"}"#;
        let early_e = r#"{"ph": "E", "pid": 1, "tid": 2, "ts": 1, "name": "epoch"}"#;
        assert_eq!(chrome_lanes_valid(&trace(&format!("{b}, {e}"))), Ok(()));
        assert!(chrome_lanes_valid(&trace(b)).is_err(), "span left open");
        assert!(chrome_lanes_valid(&trace(e)).is_err(), "E without B");
        assert!(chrome_lanes_valid(&trace(&format!("{b}, {early_e}"))).is_err());
        assert!(chrome_lanes_valid(&trace("")).is_err(), "span-free");
        assert!(chrome_lanes_valid("{\"traceEvents\": ").is_err());
    }

    #[test]
    fn exposition_check_rejects_untyped_or_malformed_samples() {
        let ok = "# HELP egka_rekeys rekeys\n# TYPE egka_rekeys counter\n\
                  egka_rekeys{shard=\"0\"} 3\n";
        assert_eq!(exposition_valid(ok), Ok(()));
        assert!(exposition_valid("egka_rekeys 3\n").is_err(), "untyped");
        assert!(exposition_valid(&ok.replace(" 3", " three")).is_err());
        assert!(exposition_valid(&ok.replace("=\"0\"", "=0")).is_err());
        assert!(exposition_valid("").is_err(), "empty");
    }

    #[test]
    fn preset_names_are_unique() {
        let names: BTreeSet<_> = PRESETS.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), PRESETS.len());
    }
}
