//! The deterministic outcome of a pass, and the pinned goldens it is
//! checked against.
//!
//! Every run first executes its workload's *probe* — the same workload
//! shrunk to a few groups and epochs, at a fixed seed — and compares its
//! outcome with `golden.txt`. A traced run also compares its untraced and
//! traced passes with each other. Wall-clock numbers are never part of
//! an outcome.

use crate::run::Pass;
use crate::stats;
use crate::workload::Spec;

/// Seed of every probe.
pub const PROBE_SEED: u64 = 0x601d;

/// The golden file, compiled in so a run cannot be pointed at another.
const GOLDEN: &str = include_str!("../golden.txt");

/// A workload shrunk to a probe: few groups, few epochs, and (durable
/// workload) a snapshot inside the window, so every path the full run
/// takes also runs here.
pub fn probe_spec(spec: &Spec) -> Spec {
    let mut p = spec.clone();
    p.groups = if spec.churn.hot_groups > 0 { 8 } else { 12 };
    p.churn.per_epoch = spec.churn.per_epoch.min(8);
    p.warmup_epochs = 1;
    p.snapshot_every = spec.snapshot_every.map(|_| 2);
    p
}

/// Epochs a probe runs.
pub const PROBE_EPOCHS: u64 = 4;

/// The deterministic outcome of `pass`, as `(key, value)` pairs.
pub fn outcome(pass: &Pass) -> Vec<(String, String)> {
    let w = &pass.window;
    let ops_digest = w.ops.comp.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
        (h ^ c).wrapping_mul(0x100_0000_01b3)
    });
    let mut v = vec![
        ("fingerprint", format!("{:016x}", pass.fingerprint)),
        ("events_generated", pass.events_generated.to_string()),
        ("events_committed", pass.events_committed.to_string()),
        ("rekeys", w.rekeys.to_string()),
        ("full_gka_runs", w.full_gka_runs.to_string()),
        ("rekeys_failed", w.rekeys_failed.to_string()),
        ("steps_retried", w.steps_retried.to_string()),
        ("ops_digest", format!("{ops_digest:016x}")),
        ("msgs_tx", w.msgs_tx.to_string()),
        ("tx_bits", w.tx_bits.to_string()),
        ("energy_mj", format!("{:?}", w.energy_mj)),
        (
            "virtual_p50_ms",
            format!("{:?}", stats::quantile(&w.virtual_ms, 0.5).unwrap_or(0.0)),
        ),
        (
            "virtual_p99_ms",
            format!("{:?}", stats::quantile(&w.virtual_ms, 0.99).unwrap_or(0.0)),
        ),
        ("queued_at_end", pass.queued_at_end.to_string()),
    ];
    if let Some(r) = &pass.recovery {
        v.push(("recovered_fingerprint", format!("{:016x}", r.fingerprint)));
    }
    v.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The golden pairs pinned for `workload`.
pub fn golden(workload: &str) -> Vec<(String, String)> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            if it.next()? != workload {
                return None;
            }
            Some((it.next()?.to_string(), it.next()?.to_string()))
        })
        .collect()
}

/// Every key on which `got` and `want` disagree, as readable lines.
pub fn diff(got: &[(String, String)], want: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (k, v) in got {
        match want.iter().find(|(wk, _)| wk == k) {
            Some((_, wv)) if wv == v => {}
            Some((_, wv)) => out.push(format!("{k}: got {v}, want {wv}")),
            None => out.push(format!("{k}: got {v}, no golden")),
        }
    }
    for (k, _) in want {
        if !got.iter().any(|(gk, _)| gk == k) {
            out.push(format!("{k}: missing"));
        }
    }
    out
}
