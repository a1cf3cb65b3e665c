//! Regression gate: compare a freshly generated bench artifact against
//! its committed baseline and fail on any difference that matters.
//!
//! ```text
//! cargo run --release -p egka-bench --bin bench_diff -- \
//!     --baseline baselines/BENCH_churn.json --fresh BENCH_churn.json
//! ```
//!
//! Both artifacts must carry the same schema: `egka-churn/1` (the `churn`
//! runner) or `egka-primitives/1` (`bench_primitives`). The gate is the
//! same for both:
//!
//! * **Exact values.** Every value in the baseline must appear in the
//!   fresh artifact, unchanged. The churn artifact is deterministic per
//!   seed — counters, energy, fingerprints, suite rows — so one extra
//!   rekey, one more stalled group or an energy change in the third
//!   decimal is a behaviour change. A preset, counter or invariant the
//!   fresh artifact lacks fails too. Values only the fresh artifact has
//!   are listed as a reminder to refresh the baseline.
//! * **Invariants.** Any `false` in the fresh artifact fails.
//! * **Timings** (`*_ns`, `*_speedup`, `wall_ms`; only the primitives
//!   artifact has them) are machine-dependent and exempt from the exact
//!   check. Instead, the in-binary old/new ratios, which cancel the
//!   runner's speed, must clear absolute floors: `field_mul_speedup` 4×,
//!   `modmul_1024_speedup`, `fixed_base_mul_speedup`,
//!   `fixed_base_modexp_speedup`, `pairing_fixed_speedup`,
//!   `inverse_1024_speedup`, `gq_extract_speedup` and
//!   `ecdsa_cert_verify_speedup` 2×, and
//!   `gq_verify_speedup` (commitment recovery from the carried `H(ID)⁻¹`
//!   vs from the identity, measured at 1.9–2.1×) 1.5×. Wall time is
//!   perfbench's job.
//!
//! Exit code 1 on any failure, with every finding listed.

use egka_bench::arg_value;
use egka_bench::json::Json;

/// The artifact schemas the gate understands.
const SCHEMAS: [&str; 2] = ["egka-churn/1", "egka-primitives/1"];

/// Floors on the primitives artifact's in-binary old/new ratios.
const SPEEDUP_FLOORS: [(&str, f64); 9] = [
    ("field_mul_speedup", 4.0),
    ("modmul_1024_speedup", 2.0),
    ("fixed_base_mul_speedup", 2.0),
    ("fixed_base_modexp_speedup", 2.0),
    ("pairing_fixed_speedup", 2.0),
    ("inverse_1024_speedup", 2.0),
    ("gq_extract_speedup", 2.0),
    ("ecdsa_cert_verify_speedup", 2.0),
    ("gq_verify_speedup", 1.5),
];

/// Machine-dependent keys, exempt from the exact comparison.
fn is_timing(key: &str) -> bool {
    key.ends_with("_ns") || key.ends_with("_speedup") || key == "wall_ms"
}

#[derive(Default)]
struct Gate {
    failures: Vec<String>,
    notes: Vec<String>,
}

/// `path.key`, or `key` at the top level.
fn child(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn show(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{s}\""),
        Json::Arr(_) => "[…]".into(),
        Json::Obj(_) => "{…}".into(),
    }
}

impl Gate {
    /// Every baseline value under `path` must reappear unchanged in
    /// `fresh`.
    fn exact(&mut self, path: &str, baseline: &Json, fresh: Option<&Json>) {
        let Some(fresh) = fresh else {
            self.failures
                .push(format!("{path}: missing from the fresh artifact"));
            return;
        };
        match (baseline, fresh) {
            (Json::Obj(base), Json::Obj(members)) => {
                for (key, b) in base.iter().filter(|(k, _)| !is_timing(k)) {
                    self.exact(&child(path, key), b, fresh.get(key));
                }
                for (key, _) in members {
                    if baseline.get(key).is_none() && !is_timing(key) {
                        self.notes
                            .push(format!("{}: new in the fresh artifact", child(path, key)));
                    }
                }
            }
            _ if baseline == fresh => {}
            _ => self.failures.push(format!(
                "{path}: baseline {} → fresh {}",
                show(baseline),
                show(fresh)
            )),
        }
    }

    /// Every `false` in the fresh artifact is a broken invariant.
    fn invariants(&mut self, path: &str, fresh: &Json) {
        match fresh {
            Json::Bool(false) => self.failures.push(format!("{path}: false")),
            Json::Obj(members) => {
                for (key, v) in members {
                    self.invariants(&child(path, key), v);
                }
            }
            _ => {}
        }
    }

    /// In-binary old/new ratios must clear their floors.
    fn speedups(&mut self, fresh: &Json) {
        for (key, floor) in SPEEDUP_FLOORS {
            match fresh.get(key).and_then(Json::as_f64) {
                Some(x) if x >= floor => {
                    self.notes.push(format!("{key}: {x:.2}x (floor {floor}x)"))
                }
                Some(x) => self
                    .failures
                    .push(format!("{key}: {x:.2}x is below its {floor}x floor")),
                None => self.failures.push(format!("{key}: missing")),
            }
        }
    }
}

/// Compares two parsed artifacts.
fn diff(baseline: &Json, fresh: &Json) -> Gate {
    let mut gate = Gate::default();
    let schema = baseline.get("schema").and_then(Json::as_str).unwrap_or("?");
    if !SCHEMAS.contains(&schema) {
        gate.failures.push(format!(
            "baseline schema {schema} is not one of {SCHEMAS:?}"
        ));
        return gate;
    }
    gate.exact("", baseline, Some(fresh));
    gate.invariants("", fresh);
    if schema == "egka-primitives/1" {
        gate.speedups(fresh);
    }
    gate
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e} (run the bench first?)"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

fn main() {
    let baseline_path = arg_value("--baseline").expect("--baseline PATH");
    let fresh_path = arg_value("--fresh").expect("--fresh PATH");
    let gate = diff(&load(&baseline_path), &load(&fresh_path));

    println!("bench_diff: {fresh_path} vs {baseline_path}\n");
    for note in &gate.notes {
        println!("  note {note}");
    }
    for failure in &gate.failures {
        println!("  FAIL {failure}");
    }
    if gate.failures.is_empty() {
        println!("\nidentical in every deterministic value ✓");
    } else {
        println!(
            "\n{} difference(s) — investigate, or regenerate the committed \
             baseline if the change in behaviour is intended",
            gate.failures.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHURN: &str = r#"{
      "schema": "egka-churn/1",
      "presets": {
        "service": {
          "counters": {"events_applied": 443, "rekeys_executed": 320,
                       "groups_stalled": 0, "energy_mj": 329286.759,
                       "latency_virtual_ms": null,
                       "per_suite": {"proposed": {"rekeys": 420, "energy_mj": 329286.759}}},
          "suites": {"proposed": {"groups": 100, "rekeys": 420, "energy_mj": 329286.759}},
          "fingerprints": {"key": "512af6ab3a97622e", "event": "b41fe1f95b902539"},
          "invariants": {"coalescing": true, "trace_drop_free": true}
        },
        "reshard": {
          "counters": {"groups_stalled": 0},
          "suites": {},
          "fingerprints": {"key": "89d50d15fd4b5e9a", "event": "0000000000000001"},
          "invariants": {"no_stall_during_reshard": true}
        }
      }
    }"#;

    const PRIMITIVES: &str = r#"{
      "schema": "egka-primitives/1",
      "seed": 37153,
      "workload_fingerprint": "0a6f7e3e03939675",
      "field_mul_ns": 24.3,
      "field_mul_speedup": 10.715,
      "modmul_1024_speedup": 3.488,
      "fixed_base_mul_speedup": 3.387,
      "fixed_base_modexp_speedup": 3.983,
      "pairing_fixed_speedup": 4.926,
      "inverse_1024_speedup": 4.262,
      "gq_extract_speedup": 3.381,
      "ecdsa_cert_verify_speedup": 3.104,
      "gq_verify_speedup": 1.954,
      "wall_ms": 1139.0
    }"#;

    fn failures(baseline: &str, fresh: &str) -> Vec<String> {
        diff(
            &Json::parse(baseline).unwrap(),
            &Json::parse(fresh).unwrap(),
        )
        .failures
    }

    #[test]
    fn exact_gate_fails_on_any_deterministic_change() {
        // (what changed, edit of the fresh artifact, must the gate fail?)
        let cases: &[(&str, &str, &str, bool)] = &[
            ("identical", "", "", false),
            (
                "an extra rekey",
                "\"rekeys_executed\": 320",
                "\"rekeys_executed\": 321",
                true,
            ),
            (
                "a stalled group",
                "\"groups_stalled\": 0, \"energy_mj\"",
                "\"groups_stalled\": 1, \"energy_mj\"",
                true,
            ),
            (
                "a stall during resharding",
                "\"counters\": {\"groups_stalled\": 0}",
                "\"counters\": {\"groups_stalled\": 1}",
                true,
            ),
            (
                "energy in the third decimal",
                "\"energy_mj\": 329286.759,",
                "\"energy_mj\": 329286.758,",
                true,
            ),
            (
                "the key fingerprint",
                "512af6ab3a97622e",
                "512af6ab3a97622f",
                true,
            ),
            (
                "the event fingerprint",
                "b41fe1f95b902539",
                "b41fe1f95b902538",
                true,
            ),
            (
                "a broken invariant",
                "\"trace_drop_free\": true",
                "\"trace_drop_free\": false",
                true,
            ),
            (
                "a missing invariant",
                "\"coalescing\": true, \"trace_drop_free\": true",
                "\"trace_drop_free\": true",
                true,
            ),
            ("a missing preset", "\"reshard\": {", "\"renamed\": {", true),
            (
                "a new counter (a note, not a failure)",
                "\"events_applied\": 443,",
                "\"events_applied\": 443, \"new_counter\": 7,",
                false,
            ),
        ];
        for &(what, from, to, fails) in cases {
            let fresh = CHURN.replacen(from, to, 1);
            assert!(
                from.is_empty() || fresh != CHURN,
                "{what}: edit did not apply"
            );
            let found = failures(CHURN, &fresh);
            assert_eq!(!found.is_empty(), fails, "{what}: {found:?}");
        }
    }

    #[test]
    fn any_stall_during_live_resharding_fails() {
        assert!(failures(CHURN, CHURN).is_empty());
        // The reshard preset records a stall as a broken invariant, so the
        // fresh run fails even against a baseline that stalled the same way.
        let stalled = CHURN
            .replacen(
                "\"counters\": {\"groups_stalled\": 0}",
                "\"counters\": {\"groups_stalled\": 1}",
                1,
            )
            .replacen(
                "\"no_stall_during_reshard\": true",
                "\"no_stall_during_reshard\": false",
                1,
            );
        assert_ne!(stalled, CHURN);
        let found = failures(&stalled, &stalled);
        assert_eq!(
            found,
            vec!["presets.reshard.invariants.no_stall_during_reshard: false".to_string()],
            "even a count equal to the baseline fails"
        );
    }

    #[test]
    fn other_churn_stalls_must_equal_the_baseline() {
        // A lossy preset stalls two group-epochs by design.
        let lossy = CHURN.replacen(
            "\"groups_stalled\": 0, \"energy_mj\"",
            "\"groups_stalled\": 2, \"energy_mj\"",
            1,
        );
        assert_ne!(lossy, CHURN);
        assert!(failures(&lossy, &lossy).is_empty());
        for fresh in [0, 3] {
            let fresh_doc = lossy.replacen(
                "\"groups_stalled\": 2,",
                &format!("\"groups_stalled\": {fresh},"),
                1,
            );
            let found = failures(&lossy, &fresh_doc);
            assert_eq!(found.len(), 1, "fresh {fresh}: {found:?}");
            assert!(found[0].starts_with("presets.service.counters.groups_stalled"));
        }
        let without = CHURN.replacen("\"groups_stalled\": 0, ", "", 1);
        assert_ne!(without, CHURN);
        let found = failures(CHURN, &without);
        assert_eq!(found.len(), 1, "a count the fresh run lacks is drift");
    }

    #[test]
    fn primitives_gate_is_exact_on_the_workload_and_floors_the_ratios() {
        let cases: &[(&str, &str, &str, bool)] = &[
            ("identical", "", "", false),
            (
                "a slower host",
                "\"field_mul_ns\": 24.3",
                "\"field_mul_ns\": 90.0",
                false,
            ),
            (
                "wall time",
                "\"wall_ms\": 1139.0",
                "\"wall_ms\": 9999.0",
                false,
            ),
            (
                "the workload fingerprint",
                "0a6f7e3e03939675",
                "0a6f7e3e03939676",
                true,
            ),
            (
                "a ratio below its floor",
                "\"modmul_1024_speedup\": 3.488",
                "\"modmul_1024_speedup\": 1.9",
                true,
            ),
            (
                "the fixed-argument pairing below its floor",
                "\"pairing_fixed_speedup\": 4.926",
                "\"pairing_fixed_speedup\": 1.95",
                true,
            ),
            (
                "the inverse below its floor",
                "\"inverse_1024_speedup\": 4.262",
                "\"inverse_1024_speedup\": 1.8",
                true,
            ),
            (
                "Extract below its floor",
                "\"gq_extract_speedup\": 3.381",
                "\"gq_extract_speedup\": 1.99",
                true,
            ),
            (
                "certificate verification below its floor",
                "\"ecdsa_cert_verify_speedup\": 3.104",
                "\"ecdsa_cert_verify_speedup\": 1.97",
                true,
            ),
            (
                "commitment recovery below its floor",
                "\"gq_verify_speedup\": 1.954",
                "\"gq_verify_speedup\": 1.45",
                true,
            ),
            (
                "a missing ratio",
                "\"gq_extract_speedup\": 3.381,",
                "",
                true,
            ),
        ];
        for &(what, from, to, fails) in cases {
            let fresh = PRIMITIVES.replacen(from, to, 1);
            assert!(
                from.is_empty() || fresh != PRIMITIVES,
                "{what}: edit did not apply"
            );
            let found = failures(PRIMITIVES, &fresh);
            assert_eq!(!found.is_empty(), fails, "{what}: {found:?}");
        }
        let churn_against_primitives = failures(PRIMITIVES, CHURN);
        assert!(!churn_against_primitives.is_empty());
    }
}
