//! Tracing bench: runs a churn scenario twice — tracing **off**, then
//! tracing **on** into a bounded ring — and ships the recorded
//! virtual-clock trace as reviewable artifacts.
//!
//! ```text
//! cargo run --release -p egka-bench --bin trace_churn
//! cargo run --release -p egka-bench --bin trace_churn -- \
//!     [--preset mixed-suite|radio] [--groups N] [--epochs N] \
//!     [--shards N] [--seed N] [--top N] [--check-determinism] \
//!     [--json PATH] [--trace-json PATH] [--flame PATH]
//! ```
//!
//! The untraced pass is the **overhead guard's** subject: a disabled
//! tracer must stay a measured no-op, so its wall clock is exported as
//! `wall_ms_untraced` and gated by `bench_diff` under the ordinary wall
//! thresholds. The traced pass must reproduce the untraced pass bit for
//! bit (key fingerprint, counters, energy — instrumentation is purely
//! observational), and its event stream is:
//!
//! * validated in-process (span stack discipline per lane, Chrome JSON
//!   parseable by `egka_bench::json`, every `B` closed by an `E`,
//!   timestamps monotone per `(pid, tid)`, zero ring drops);
//! * exported as a Chrome `trace_event` file (`--trace-json`, default
//!   `BENCH_trace_churn.trace.json`) — load it in Perfetto or
//!   `chrome://tracing`: one process per shard, one thread lane per group
//!   (plus an air lane under a radio preset), spans for epoch → dynamic
//!   step → protocol round carrying energy/airtime/LSN annotations;
//! * exported as a collapsed-stack energy flame file (`--flame`, default
//!   `BENCH_trace_churn.flame.txt`) and printed as a top-N energy table;
//! * fingerprinted: the `(name, phase) → count` shape of the trace is
//!   deterministic per seed and tracked in `BENCH_trace_churn.json`
//!   (schema `egka-trace-churn/1`) against the committed baseline.

use std::sync::Arc;

use egka_bench::json::Json;
use egka_bench::{arg_value, has_flag};
use egka_sim::{run_churn, ChurnConfig, ChurnReport};
use egka_trace::{export, MetricsRegistry, TraceConfig, TraceSink};

/// Chrome-level validation: the exported JSON must parse with the same
/// minimal reader `bench_diff` uses, every `B` must be closed by a
/// matching `E` on its lane, and timestamps must be monotone per
/// `(pid, tid)` — the properties a trace viewer needs to render sanely.
fn validate_chrome_json(text: &str) {
    let doc = Json::parse(text).expect("chrome trace JSON must parse");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(evs)) => evs,
        _ => panic!("chrome trace has no traceEvents array"),
    };
    let mut lanes: std::collections::BTreeMap<(u64, u64), (f64, Vec<String>)> =
        std::collections::BTreeMap::new();
    let mut spans = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("?");
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let pid = ev.get("pid").and_then(Json::as_f64).expect("pid") as u64;
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        let (last_ts, stack) = lanes.entry((pid, tid)).or_insert((f64::MIN, Vec::new()));
        assert!(
            ts >= *last_ts,
            "lane ({pid},{tid}): ts {ts} after {last_ts} — not monotone"
        );
        *last_ts = ts;
        match ph {
            "B" => {
                stack.push(name.to_string());
                spans += 1;
            }
            "E" => {
                let open = stack
                    .pop()
                    .unwrap_or_else(|| panic!("lane ({pid},{tid}): E \"{name}\" with no open B"));
                assert_eq!(open, name, "lane ({pid},{tid}): mismatched span close");
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for ((pid, tid), (_, stack)) in &lanes {
        assert!(
            stack.is_empty(),
            "lane ({pid},{tid}): {} span(s) left open: {stack:?}",
            stack.len()
        );
    }
    assert!(spans > 0, "a churn trace cannot be span-free");
}

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

/// The observational-transparency assertion: tracing must change nothing
/// the untraced run can see.
fn assert_transparent(untraced: &ChurnReport, traced: &ChurnReport) {
    assert_eq!(
        untraced.key_fingerprint, traced.key_fingerprint,
        "tracing perturbed the keys"
    );
    assert_eq!(
        untraced.metrics.counters, traced.metrics.counters,
        "tracing perturbed the counters"
    );
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
        "trace_churn: preset {preset}, {} groups, {} epochs, {} shards, seed {:#x}\n",
        config.groups, config.epochs, config.shards, config.seed
    );

    // Pass 1 — tracing off. This wall clock is the no-op overhead guard.
    let untraced = run_churn(&config);
    let wall_ms_untraced = untraced.wall.as_secs_f64() * 1e3;
    println!("untraced: {:.1} ms", wall_ms_untraced);

    // Pass 2 — tracing on, bounded ring + metrics registry.
    let registry = Arc::new(MetricsRegistry::new());
    let (tc, ring) = TraceConfig::ring(1 << 22);
    config.trace = Some(tc.with_registry(Arc::clone(&registry)));
    let traced = run_churn(&config);
    let wall_ms_traced = traced.wall.as_secs_f64() * 1e3;
    println!("traced:   {:.1} ms", wall_ms_traced);

    assert_transparent(&untraced, &traced);
    assert_eq!(
        TraceSink::dropped(&*ring),
        0,
        "the ring saturated — raise its capacity or shrink the scenario"
    );
    let events = ring.events();
    export::validate(&events).expect("recorded spans must balance per lane");
    let fingerprint = export::event_fingerprint(&events);
    println!(
        "\n{} events recorded, fingerprint {fingerprint:016x}",
        events.len()
    );

    // Chrome export + in-process validation.
    let chrome = export::chrome_trace_json(&events);
    validate_chrome_json(&chrome);
    let trace_path =
        arg_value("--trace-json").unwrap_or_else(|| "BENCH_trace_churn.trace.json".into());
    if trace_path != "-" {
        std::fs::write(&trace_path, &chrome)
            .unwrap_or_else(|e| panic!("writing {trace_path}: {e}"));
        println!(
            "wrote {trace_path} ({} bytes) — load it in Perfetto",
            chrome.len()
        );
    }

    // Energy flame + top table.
    let flame_path = arg_value("--flame").unwrap_or_else(|| "BENCH_trace_churn.flame.txt".into());
    if flame_path != "-" {
        let flame = export::collapsed_energy(&events);
        std::fs::write(&flame_path, &flame).unwrap_or_else(|e| panic!("writing {flame_path}: {e}"));
        println!("wrote {flame_path} ({} stacks)", flame.lines().count());
    }
    let top: usize = arg_value("--top").map_or(10, |v| v.parse().expect("--top N"));
    println!(
        "\ntop {top} energy sinks:\n{}",
        export::top_table(&events, top)
    );
    println!("metrics registry:\n{}", registry.snapshot().render_table());

    // Machine-readable artifact for the perf/determinism gate.
    let suites = traced
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
         \"schema\": \"egka-trace-churn/1\",\n  \
         \"preset\": \"{preset}\",\n  \
         \"groups\": {},\n  \
         \"epochs\": {},\n  \
         \"events_total\": {},\n  \
         \"event_fingerprint\": \"{fingerprint:016x}\",\n  \
         \"trace_bytes\": {},\n  \
         \"energy_mj\": {:.3},\n  \
         \"wall_ms\": {wall_ms_traced:.1},\n  \
         \"wall_ms_untraced\": {wall_ms_untraced:.1},\n  \
         \"trace_drops\": {},\n  \
         \"suites\": {{{suites}}},\n  \
         \"metrics\": {},\n  \
         \"key_fingerprint\": \"{:016x}\"\n}}\n",
        config.groups,
        config.epochs,
        events.len(),
        chrome.len(),
        traced.metrics.energy_mj,
        traced.trace_drops.unwrap_or(0),
        traced.metrics.to_json(),
        traced.key_fingerprint,
    );
    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_trace_churn.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("wrote {json_path}");
    }

    if has_flag("--check-determinism") {
        println!("\nre-running for determinism check…");
        let (tc, ring2) = TraceConfig::ring(1 << 22);
        config.trace = Some(tc);
        let again = run_churn(&config);
        assert_eq!(traced.key_fingerprint, again.key_fingerprint);
        let chrome2 = export::chrome_trace_json(&ring2.events());
        assert!(
            chrome == chrome2,
            "same seed + config must export byte-identical traces"
        );
        println!(
            "deterministic ✓ ({} bytes of trace reproduced exactly)",
            chrome2.len()
        );
    }
}
