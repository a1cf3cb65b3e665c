//! Perf-regression gate: compare a freshly generated bench artifact
//! (`BENCH_service_churn.json` / `BENCH_radio_churn.json` /
//! `BENCH_trace_churn.json` / `BENCH_health_churn.json` /
//! `BENCH_robust_churn.json` / `BENCH_massive_churn.json` /
//! `BENCH_primitives.json`) against the committed baseline and fail on
//! regression. Artifacts that carry a `trace_drops` count additionally
//! fail outright when the fresh run's bounded ring dropped any event.
//!
//! ```text
//! cargo run --release -p egka-bench --bin bench_diff -- \
//!     --baseline baselines/BENCH_service_churn.json \
//!     --fresh BENCH_service_churn.json \
//!     [--max-regress 0.25] [--wall-floor-ms 500] [--speedup-floor 2.0]
//! ```
//!
//! Three families of gates:
//!
//! * **Energy** (`energy_mj`, total and per suite): fully deterministic
//!   per seed, so *any* drift means the code changed behavior; the gate
//!   fails when fresh exceeds baseline by more than `--max-regress`
//!   (default 25%), and also when a suite present in the baseline vanished
//!   — a disappeared protocol is a behavior change, not a speedup.
//! * **Wall clock** (`wall_ms`): inherently noisy across machines, so the
//!   relative threshold only applies once the absolute slowdown also
//!   clears `--wall-floor-ms` (default 500 ms) — a 3 ms scenario jumping
//!   to 4 ms is noise, a 2 s scenario jumping to 3 s is a regression.
//! * **Speedup ratios** (`egka-primitives/1` only): the artifact's
//!   `*_speedup` fields are old-vs-new ratios measured inside one binary,
//!   so they are machine-independent; `field_mul_speedup` must stay above
//!   4×, and `modmul_1024_speedup`, `fixed_base_mul_speedup` and
//!   `fixed_base_modexp_speedup` above the absolute `--speedup-floor`
//!   (default 2×).
//!
//! A top-level `groups_stalled` count fails outright when nonzero in the
//! live-resharding artifact, and must equal the baseline's in every other
//! churn artifact (it is deterministic per seed).
//!
//! Improvements (fresh below baseline) never fail; they print as a
//! reminder to refresh the committed baseline. Exit code 1 on any failed
//! gate, with every finding listed.

use egka_bench::arg_value;
use egka_bench::json::Json;

/// Floor on `field_mul_speedup`: fixed-limb Montgomery multiplication
/// against `Ubig` multiply-and-reduce on secp160r1's field.
const FIELD_MUL_FLOOR: f64 = 4.0;

struct Gate {
    max_regress: f64,
    wall_floor_ms: f64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Gate {
    fn ratio_line(name: &str, baseline: f64, fresh: f64) -> String {
        let pct = if baseline > 0.0 {
            format!("{:+.1}%", (fresh / baseline - 1.0) * 100.0)
        } else {
            "n/a".into()
        };
        format!("{name}: baseline {baseline:.3} → fresh {fresh:.3} ({pct})")
    }

    /// Deterministic quantities: relative threshold only.
    fn check_energy(&mut self, name: &str, baseline: f64, fresh: f64) {
        let line = Self::ratio_line(name, baseline, fresh);
        if fresh > baseline * (1.0 + self.max_regress) {
            self.failures.push(line);
        } else {
            self.notes.push(line);
        }
    }

    /// Noisy quantities: relative threshold gated by an absolute floor.
    fn check_wall(&mut self, name: &str, baseline: f64, fresh: f64) {
        let line = Self::ratio_line(name, baseline, fresh);
        if fresh > baseline * (1.0 + self.max_regress) && fresh - baseline > self.wall_floor_ms {
            self.failures.push(line);
        } else {
            self.notes.push(line);
        }
    }

    /// `groups_stalled` (top level, churn artifacts only). The resharding
    /// scenario grows its pool live and hands groups off between epochs,
    /// so any stall there is a liveness violation: outright failure. Every
    /// other churn scenario is deterministic per seed (stalls come from
    /// seeded loss or injected faults), so its count must equal the
    /// baseline's exactly.
    fn check_groups_stalled(&mut self, schema: &str, baseline: Option<f64>, fresh: Option<f64>) {
        let Some(fresh) = fresh else {
            return;
        };
        if schema == "egka-massive-churn/1" {
            if fresh > 0.0 {
                self.failures.push(format!(
                    "groups_stalled: {fresh:.0} group-epoch(s) stalled during \
                     live resharding — handoffs must never block an epoch"
                ));
            } else {
                self.notes.push("groups_stalled: 0".into());
            }
        } else if baseline == Some(fresh) {
            self.notes
                .push(format!("groups_stalled: {fresh:.0} (equals the baseline)"));
        } else {
            let baseline = baseline.map_or("absent".into(), |b| format!("{b:.0}"));
            self.failures.push(format!(
                "groups_stalled: baseline {baseline} → fresh {fresh:.0} — the count \
                 is deterministic per seed, so any change is a behavior change"
            ));
        }
    }

    /// In-binary old/new ratios: machine-independent, so an absolute floor
    /// applies (and the baseline value is shown for context only).
    fn check_speedup(&mut self, name: &str, floor: f64, baseline: f64, fresh: f64) {
        let line = format!("{name}: baseline {baseline:.2}x → fresh {fresh:.2}x (floor {floor}x)");
        if fresh < floor {
            self.failures.push(line);
        } else {
            self.notes.push(line);
        }
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e} (run the churn bench first?)"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

fn num(doc: &Json, path: &str, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{path} has no numeric \"{key}\""))
}

fn main() {
    let baseline_path = arg_value("--baseline").expect("--baseline PATH");
    let fresh_path = arg_value("--fresh").expect("--fresh PATH");
    let max_regress: f64 = arg_value("--max-regress")
        .map(|v| v.parse().expect("--max-regress F"))
        .unwrap_or(0.25);
    let wall_floor_ms: f64 = arg_value("--wall-floor-ms")
        .map(|v| v.parse().expect("--wall-floor-ms F"))
        .unwrap_or(500.0);
    let speedup_floor: f64 = arg_value("--speedup-floor")
        .map(|v| v.parse().expect("--speedup-floor F"))
        .unwrap_or(2.0);

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);
    const SCHEMAS: [&str; 6] = [
        "egka-service-churn/1",
        "egka-trace-churn/1",
        "egka-health-churn/1",
        "egka-robust-churn/1",
        "egka-massive-churn/1",
        "egka-primitives/1",
    ];
    for (doc, path) in [(&baseline, &baseline_path), (&fresh, &fresh_path)] {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
        assert!(
            SCHEMAS.contains(&schema),
            "{path}: unexpected schema {schema}"
        );
    }
    // Comparing a trace artifact against a service artifact (or vice
    // versa) silently gates the wrong numbers — require the same schema.
    assert_eq!(
        baseline.get("schema").and_then(Json::as_str),
        fresh.get("schema").and_then(Json::as_str),
        "baseline and fresh artifacts carry different schemas"
    );

    let mut gate = Gate {
        max_regress,
        wall_floor_ms,
        failures: Vec::new(),
        notes: Vec::new(),
    };

    let schema = baseline
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let primitives = schema == "egka-primitives/1";

    gate.check_wall(
        "wall_ms",
        num(&baseline, &baseline_path, "wall_ms"),
        num(&fresh, &fresh_path, "wall_ms"),
    );
    // The trace artifact also carries the same scenario's wall clock with
    // tracing *disabled* (the traced-off overhead guard: a disabled tracer
    // must stay a no-op). It obeys the ordinary wall gate (relative
    // threshold + absolute noise floor), nothing tighter.
    for key in ["wall_ms_untraced", "wall_ms_static"] {
        if baseline.get(key).is_some() && fresh.get(key).is_some() {
            gate.check_wall(
                key,
                num(&baseline, &baseline_path, key),
                num(&fresh, &fresh_path, key),
            );
        }
    }
    // Trace/telemetry artifacts record how many events the bounded ring
    // had to drop. A lossy trace is not a slower trace — it is a broken
    // one (fingerprints and metrics silently under-count) — so any
    // nonzero drop count in the fresh run is an outright failure, not a
    // relative-threshold question.
    if let Some(drops) = fresh.get("trace_drops").and_then(Json::as_f64) {
        if drops > 0.0 {
            gate.failures.push(format!(
                "trace_drops: fresh run dropped {drops:.0} event(s)"
            ));
        } else {
            gate.notes.push("trace_drops: 0".into());
        }
    }
    // The robustness artifact counts fault-injected groups that finished
    // the scenario stalled. With the eviction engine armed that number is
    // a liveness violation, not a perf question — any nonzero value in
    // the fresh run fails outright.
    if let Some(stalled) = fresh.get("stalled_faulted_groups").and_then(Json::as_f64) {
        if stalled > 0.0 {
            gate.failures.push(format!(
                "stalled_faulted_groups: {stalled:.0} fault-injected group(s) \
                 never completed — the eviction engine failed them"
            ));
        } else {
            gate.notes.push("stalled_faulted_groups: 0".into());
        }
    }
    gate.check_groups_stalled(
        &schema,
        baseline.get("groups_stalled").and_then(Json::as_f64),
        fresh.get("groups_stalled").and_then(Json::as_f64),
    );

    if primitives {
        // The primitives artifact carries no energy model — its subject is
        // the in-binary old/new ratios. The fixed-limb kernel (at curve
        // and at 1024-bit sizes) and the two fixed-base accelerations are
        // the headline claims and must hold their absolute floors; the
        // pairing ratio is informational.
        for (key, floor) in [
            ("field_mul_speedup", FIELD_MUL_FLOOR),
            ("modmul_1024_speedup", speedup_floor),
            ("fixed_base_mul_speedup", speedup_floor),
            ("fixed_base_modexp_speedup", speedup_floor),
        ] {
            gate.check_speedup(
                key,
                floor,
                num(&baseline, &baseline_path, key),
                num(&fresh, &fresh_path, key),
            );
        }
        let key = "pairing_fixed_speedup";
        if baseline.get(key).is_some() && fresh.get(key).is_some() {
            gate.notes.push(format!(
                "{key}: baseline {:.2}x → fresh {:.2}x (informational)",
                num(&baseline, &baseline_path, key),
                num(&fresh, &fresh_path, key),
            ));
        }
    } else {
        gate.check_energy(
            "energy_mj",
            num(&baseline, &baseline_path, "energy_mj"),
            num(&fresh, &fresh_path, "energy_mj"),
        );
    }

    // Per-suite energy: every suite the baseline fielded must still exist
    // and stay within the threshold.
    let empty: Vec<(String, Json)> = Vec::new();
    let base_suites = baseline
        .get("suites")
        .and_then(Json::members)
        .unwrap_or(&empty);
    let fresh_suites = fresh
        .get("suites")
        .and_then(Json::members)
        .unwrap_or(&empty);
    for (suite, base_usage) in base_suites {
        let name = format!("suites.{suite}.energy_mj");
        let base_mj = base_usage
            .get("energy_mj")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        match fresh_suites.iter().find(|(k, _)| k == suite) {
            Some((_, fresh_usage)) => {
                let fresh_mj = fresh_usage
                    .get("energy_mj")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                gate.check_energy(&name, base_mj, fresh_mj);
            }
            None => gate
                .failures
                .push(format!("{name}: suite vanished from the fresh run")),
        }
    }
    for (suite, _) in fresh_suites {
        if !base_suites.iter().any(|(k, _)| k == suite) {
            gate.notes.push(format!(
                "suites.{suite}: new in the fresh run (not in baseline)"
            ));
        }
    }

    // Determinism cross-checks, informational: a fingerprint change with
    // unchanged config means intended behavior drift — refresh baselines.
    // (`event_fingerprint` is the trace artifact's analogue: the
    // (name, phase) → count shape of the recorded events.)
    for key in [
        "key_fingerprint",
        "event_fingerprint",
        "workload_fingerprint",
    ] {
        let base_fp = baseline.get(key).and_then(Json::as_str);
        let fresh_fp = fresh.get(key).and_then(Json::as_str);
        if let (Some(b), Some(f)) = (base_fp, fresh_fp) {
            if b != f {
                gate.notes.push(format!(
                    "{key} changed ({b} → {f}): behavior drift — \
                     refresh the baseline if intended"
                ));
            }
        }
    }

    println!(
        "bench_diff: {fresh_path} vs {baseline_path} \
         (max regress {:.0}%, wall floor {wall_floor_ms} ms)\n",
        max_regress * 100.0
    );
    for note in &gate.notes {
        println!("  ok   {note}");
    }
    for failure in &gate.failures {
        println!("  FAIL {failure}");
    }
    if gate.failures.is_empty() {
        println!("\nno perf regression ✓");
    } else {
        println!(
            "\n{} perf regression(s) beyond {:.0}% — investigate, or refresh \
             the committed baseline if the cost is intended",
            gate.failures.len(),
            max_regress * 100.0
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> Gate {
        Gate {
            max_regress: 0.25,
            wall_floor_ms: 500.0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn any_stall_during_live_resharding_fails() {
        let mut g = gate();
        g.check_groups_stalled("egka-massive-churn/1", Some(0.0), Some(0.0));
        assert!(g.failures.is_empty());
        g.check_groups_stalled("egka-massive-churn/1", Some(1.0), Some(1.0));
        assert_eq!(
            g.failures.len(),
            1,
            "even a count equal to the baseline fails"
        );
    }

    #[test]
    fn other_churn_stalls_must_equal_the_baseline() {
        let mut g = gate();
        // The radio baseline's 1 % loss stalls two group-epochs by design.
        g.check_groups_stalled("egka-service-churn/1", Some(2.0), Some(2.0));
        assert!(g.failures.is_empty(), "{:?}", g.failures);
        for fresh in [0.0, 3.0] {
            let mut g = gate();
            g.check_groups_stalled("egka-service-churn/1", Some(2.0), Some(fresh));
            assert_eq!(g.failures.len(), 1, "fresh {fresh}");
        }
        let mut g = gate();
        g.check_groups_stalled("egka-service-churn/1", None, Some(0.0));
        assert_eq!(g.failures.len(), 1, "a count the baseline lacks is drift");
        let mut g = gate();
        g.check_groups_stalled("egka-primitives/1", None, None);
        assert!(g.failures.is_empty() && g.notes.is_empty());
    }
}
