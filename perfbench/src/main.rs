//! The key service's benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <toy_fleet_durable|paper_hot_groups|paper_ecdsa_radio> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object. Any correctness-gate violation exits with code 1
//! before that line is printed. See `perfbench/README.md`.

mod golden;
mod host;
mod run;
mod stats;
mod table2;
mod timed_store;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use egka_energy::{CompOp, Scheme};

use run::{Pass, PassConfig};
use workload::Spec;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workload::all().iter().map(|s| s.name).collect();
                let spec = workload::by_name(&value)
                    .ok_or_else(|| bad(&format!("expected one of {names:?}")))?;
                workload = Some(spec);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                seconds = Some(s.max(1));
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or 0 when nothing happened (a layer the workload does
/// not exercise).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn store_dir(spec: &Spec, tag: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("{}-{tag}-{}", spec.name, std::process::id()))
}

/// Correctness gate for one pass: every violation, as readable lines.
fn gate(spec: &Spec, pass: &Pass) -> Vec<String> {
    let mut bad = Vec::new();
    if pass.groups_keyless > 0 || pass.groups_live != spec.groups as usize {
        bad.push(format!(
            "{} of {} groups live, {} without a key",
            pass.groups_live, spec.groups, pass.groups_keyless
        ));
    }
    if pass.membership_mismatches > 0 {
        bad.push(format!(
            "{} groups' membership differs from the generator's mirror",
            pass.membership_mismatches
        ));
    }
    if spec.radio_loss.is_none() && (pass.submit_errors > 0 || pass.events_rejected > 0) {
        bad.push(format!(
            "loss-free workload: {} submit errors, {} events rejected",
            pass.submit_errors, pass.events_rejected
        ));
    }
    if let Some(r) = &pass.recovery {
        if r.fingerprint != pass.fingerprint {
            bad.push(format!(
                "recovered fingerprint {:016x} != live {:016x}",
                r.fingerprint, pass.fingerprint
            ));
        }
    }
    bad
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass) -> Result<Vec<Metric>, String> {
    let committed = pass.events_committed as f64;
    let w = &pass.window;
    let p90 = stats::tail_quantile(&pass.tick_ms, 0.9).ok_or(format!(
        "epoch_p90_ms needs at least 100 timed epochs, this run has {}",
        pass.tick_ms.len()
    ))?;
    Ok(vec![
        m("events_per_s", committed / pass.window_s, "1/s"),
        m(
            "epoch_p50_ms",
            stats::median(&pass.tick_ms).unwrap_or(0.0),
            "ms",
        ),
        m("epoch_p90_ms", p90, "ms"),
        m("setup_s", stats::median(&pass.setup_s).unwrap_or(0.0), "s"),
        m("cpu_ms_per_event", pass.cpu_s * 1e3 / committed, "ms"),
        m("energy_mj_per_event", w.energy_mj / committed, "mJ"),
        m("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ])
}

/// Classes whose unit cost the traced run always times (the layer
/// metrics name them), whether or not the workload runs them.
const NAMED_UNITS: [CompOp; 4] = [
    CompOp::ModExp,
    CompOp::SignVerify(Scheme::Gq),
    CompOp::SignGen(Scheme::Ecdsa),
    CompOp::SignVerify(Scheme::Ecdsa),
];

fn is_bigint(op: CompOp) -> bool {
    matches!(
        op,
        CompOp::ModExp
            | CompOp::ModMul
            | CompOp::ModInv
            | CompOp::SignGen(Scheme::Gq | Scheme::Dsa)
            | CompOp::SignVerify(Scheme::Gq | Scheme::Dsa)
            | CompOp::CertVerify(Scheme::Gq | Scheme::Dsa)
    )
}

fn is_ec(op: CompOp) -> bool {
    matches!(
        op,
        CompOp::EcScalarMul
            | CompOp::SignGen(Scheme::Ecdsa)
            | CompOp::SignVerify(Scheme::Ecdsa)
            | CompOp::CertVerify(Scheme::Ecdsa)
    )
}

/// The per-layer metrics of a traced pass, and the host table.
fn per_layer(spec: &Spec, pass: &Pass, untraced: &Pass) -> Result<(Vec<Metric>, String), String> {
    let w = &pass.window;
    // The radio workload's tail of modelled time-to-key; no samples (0)
    // on the instant medium.
    let virtual_p95 = if w.virtual_ms.is_empty() {
        0.0
    } else {
        stats::tail_quantile(&w.virtual_ms, 0.95).ok_or(format!(
            "virtual_rekey_p95_ms needs at least 200 rekeys, this run has {}",
            w.virtual_ms.len()
        ))?
    };
    let epochs = pass.tick_ms.len() as f64;
    let committed = pass.events_committed as f64;
    let rekeys = w.rekeys as f64;

    let pkg = run::pkg(spec.params);
    let mut classes: Vec<(CompOp, u64)> = run::op_classes(w);
    for op in NAMED_UNITS {
        if !classes.iter().any(|&(c, _)| c == op) {
            classes.push((op, 0));
        }
    }
    let rows: Vec<table2::Row> = classes
        .into_iter()
        .filter_map(|(op, count)| {
            let unit_us = table2::unit_us(&pkg, op)?;
            Some(table2::Row { op, count, unit_us })
        })
        .collect();
    let unit = |op: CompOp| rows.iter().find(|r| r.op == op).map_or(0.0, |r| r.unit_us);
    let execute_ms = ms(w.phases.execute.wall);
    let estimate_ms: f64 = rows.iter().map(table2::Row::estimate_ms).sum();
    let busy = |pick: fn(CompOp) -> bool| -> f64 {
        let ms: f64 = rows
            .iter()
            .filter(|r| pick(r.op))
            .map(table2::Row::estimate_ms)
            .sum();
        ratio(ms, execute_ms)
    };
    let mut table = table2::render(&rows);
    table += &format!(
        "execute {execute_ms:.1} ms (summed over shards) = crypto estimate {estimate_ms:.1} ms \
         + unattributed {:.1} ms\n",
        execute_ms - estimate_ms
    );

    let store = pass.store.clone().unwrap_or_default();
    let recovery = pass.recovery.as_ref();
    let recover_s = recovery.map_or(0.0, |r| r.wall_s);
    let recover_read_ms = recovery.map_or(0.0, |r| r.read_ms);
    let shard_mean = pass.shard_rekeys.iter().sum::<u64>() as f64 / pass.shard_rekeys.len() as f64;
    let shard_max = pass.shard_rekeys.iter().copied().max().unwrap_or(0) as f64;
    let attempts = (w.rekeys + w.rekeys_failed + w.steps_retried) as f64;
    let untraced_eps = untraced.events_committed as f64 / untraced.window_s;
    let traced_eps = committed / pass.window_s;
    let count = |op: CompOp| w.ops.get(op) as f64;

    let metrics = vec![
        m("service.plan_ms", ms(w.phases.plan.wall) / epochs, "ms"),
        m("service.execute_ms", execute_ms / epochs, "ms"),
        m("service.commit_ms", ms(w.phases.commit.wall) / epochs, "ms"),
        m(
            "service.snapshot_ms",
            ms(w.phases.snapshot.wall) / epochs,
            "ms",
        ),
        m(
            "service.submit_us",
            stats::median(&pass.submit_us).unwrap_or(0.0),
            "us",
        ),
        m("service.shard_skew", ratio(shard_max, shard_mean), "ratio"),
        m(
            "service.create_group_ms",
            stats::median(&pass.create_group_ms).unwrap_or(0.0),
            "ms",
        ),
        m(
            "service.coalesce_ratio",
            ratio(w.events_applied as f64, rekeys),
            "ratio",
        ),
        m(
            "service.full_gka_share",
            ratio(w.full_gka_runs as f64, rekeys),
            "share",
        ),
        m("store.appends", store.append_us.len() as f64, "count"),
        m(
            "store.append_us",
            stats::median(&store.append_us).unwrap_or(0.0),
            "us",
        ),
        m("store.append_mb", store.append_bytes as f64 / 1e6, "MB"),
        m("store.snapshots", store.snapshot_ms.len() as f64, "count"),
        m(
            "store.snapshot_ms",
            stats::median(&store.snapshot_ms).unwrap_or(0.0),
            "ms",
        ),
        m(
            "store.snapshot_mb",
            stats::median(
                &store
                    .snapshot_bytes
                    .iter()
                    .map(|&b| b as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0)
                / 1e6,
            "MB",
        ),
        m("store.read_ms", store.read_ms + recover_read_ms, "ms"),
        m("recover_s", recover_s, "s"),
        m("recover.read_ms", recover_read_ms, "ms"),
        m("recover.replay_ms", recover_s * 1e3 - recover_read_ms, "ms"),
        m(
            "recover.replayed_epochs",
            recovery.map_or(0.0, |r| r.epochs_replayed as f64),
            "count",
        ),
        m("core.rekeys", rekeys, "count"),
        m(
            "core.msgs_per_rekey",
            ratio(w.msgs_tx as f64, rekeys),
            "count",
        ),
        m(
            "core.kbits_per_rekey",
            ratio(w.tx_bits as f64 / 1e3, rekeys),
            "kbit",
        ),
        m(
            "core.overhead_ms_per_rekey",
            ratio(execute_ms - estimate_ms, rekeys),
            "ms",
        ),
        m("core.steps_retried", w.steps_retried as f64, "count"),
        m(
            "core.retry_share",
            ratio(w.steps_retried as f64, attempts),
            "share",
        ),
        m("crypto.estimate_ms", estimate_ms / epochs, "ms"),
        m(
            "crypto.unattributed_ms",
            (execute_ms - estimate_ms) / epochs,
            "ms",
        ),
        m("bigint.modexp_count", count(CompOp::ModExp), "count"),
        m(
            "sig.gq_sign_count",
            count(CompOp::SignGen(Scheme::Gq)),
            "count",
        ),
        m(
            "sig.gq_verify_count",
            count(CompOp::SignVerify(Scheme::Gq)),
            "count",
        ),
        m("bigint.modexp_us", unit(CompOp::ModExp), "us"),
        m(
            "sig.gq_verify_us",
            unit(CompOp::SignVerify(Scheme::Gq)),
            "us",
        ),
        m("bigint.busy_share", busy(is_bigint), "share"),
        m(
            "sig.ecdsa_sign_count",
            count(CompOp::SignGen(Scheme::Ecdsa)),
            "count",
        ),
        m(
            "sig.ecdsa_verify_count",
            count(CompOp::SignVerify(Scheme::Ecdsa)),
            "count",
        ),
        m(
            "sig.ecdsa_cert_count",
            count(CompOp::CertVerify(Scheme::Ecdsa)),
            "count",
        ),
        m(
            "sig.ecdsa_sign_us",
            unit(CompOp::SignGen(Scheme::Ecdsa)),
            "us",
        ),
        m(
            "sig.ecdsa_verify_us",
            unit(CompOp::SignVerify(Scheme::Ecdsa)),
            "us",
        ),
        m("ec.busy_share", busy(is_ec), "share"),
        m("hash.count", count(CompOp::Hash), "count"),
        m(
            "symmetric.count",
            count(CompOp::SymEnc) + count(CompOp::SymDec),
            "count",
        ),
        m(
            "medium.virtual_ms_per_rekey",
            ratio(w.virtual_ms.iter().sum(), w.virtual_ms.len() as f64),
            "ms",
        ),
        m(
            "medium.kbits_on_air_per_rekey",
            ratio(w.tx_bits_actual as f64 / 1e3, rekeys),
            "kbit",
        ),
        m(
            "virtual_rekey_p50_ms",
            stats::quantile(&w.virtual_ms, 0.5).unwrap_or(0.0),
            "ms",
        ),
        m("virtual_rekey_p95_ms", virtual_p95, "ms"),
        m(
            "energy.compute_mj_per_event",
            w.compute_mj / committed,
            "mJ",
        ),
        m(
            "energy.radio_mj_per_event",
            (w.energy_mj - w.compute_mj) / committed,
            "mJ",
        ),
        m(
            "events_failed_share",
            pass.failed() as f64 / pass.attempted() as f64,
            "share",
        ),
        m("gen.share", pass.gen_s / pass.window_s, "share"),
        m(
            "trace.overhead_share",
            1.0 - traced_eps / untraced_eps,
            "share",
        ),
    ];
    Ok((metrics, table))
}

fn json(pass: &Pass, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        pass.attempted(),
        pass.failed()
    )
}

fn fail(lines: &[String]) -> ExitCode {
    for l in lines {
        eprintln!("perfbench: correctness gate: {l}");
    }
    ExitCode::from(1)
}

/// Runs the workload's probe and checks it against `golden.txt`.
fn probe(spec: &Spec, traced: bool) -> Vec<String> {
    let pspec = golden::probe_spec(spec);
    let pass = run::run(&PassConfig {
        spec: &pspec,
        seed: golden::PROBE_SEED,
        epochs: golden::PROBE_EPOCHS,
        setup_reps: 1,
        traced,
        store_dir: store_dir(spec, "probe"),
    });
    let mut bad = gate(&pspec, &pass);
    bad.extend(
        golden::diff(&golden::outcome(&pass), &golden::golden(spec.name))
            .into_iter()
            .map(|d| format!("probe differs from golden.txt: {d}")),
    );
    bad
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = &args.workload;
    let epochs = spec.epochs(args.seconds);
    let kernel_start = host::reference_kernel_ms();
    println!(
        "perfbench {} seed {} seconds {} trace {}: {epochs} timed epochs, {} worker threads",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let bad = probe(spec, args.trace);
    if !bad.is_empty() {
        return fail(&bad);
    }
    println!("probe (seed {:#x}) matches golden.txt", golden::PROBE_SEED);

    let config = |traced: bool, setup_reps: usize| PassConfig {
        spec,
        seed: args.seed,
        epochs,
        setup_reps,
        traced,
        store_dir: store_dir(spec, if traced { "traced" } else { "untraced" }),
    };
    let untraced = run::run(&config(false, if args.trace { 1 } else { run::SETUP_REPS }));
    let mut bad = gate(spec, &untraced);
    let traced = args.trace.then(|| run::run(&config(true, 1)));
    if let Some(t) = &traced {
        bad.extend(gate(spec, t));
        bad.extend(
            golden::diff(&golden::outcome(t), &golden::outcome(&untraced))
                .into_iter()
                .map(|d| format!("traced pass differs from untraced: {d}")),
        );
    }
    let _ = std::fs::remove_dir(".perfbench");
    if !bad.is_empty() {
        return fail(&bad);
    }

    let measured = match &traced {
        None => end_to_end(&untraced).map(|metrics| (&untraced, metrics)),
        Some(t) => per_layer(spec, t, &untraced).map(|(metrics, table)| {
            println!(
                "\nTable 2 for this host ({:?} parameters):\n{table}",
                spec.params
            );
            (t, metrics)
        }),
    };
    let (report, metrics) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kernel_end = host::reference_kernel_ms();
    let w = &report.window;
    println!(
        "timed window: {} epochs, {:.2} s, {} events generated, {} committed, {} rekeys; \
         p90 has {} samples beyond it",
        report.tick_ms.len(),
        report.window_s,
        report.events_generated,
        report.events_committed,
        w.rekeys,
        stats::beyond(report.tick_ms.len(), 0.9)
    );
    println!(
        "set-up: {:?} s; events applied by the drain: {}; failed events: {}; fingerprint {:016x}",
        report.setup_s,
        report.drained,
        report.failed(),
        report.fingerprint
    );
    println!(
        "host reference kernel: {kernel_start:.1} ms at start, {kernel_end:.1} ms at end \
         (not a metric)"
    );
    for x in &metrics {
        println!("  {:<30} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!("{}", json(report, &metrics));
    ExitCode::SUCCESS
}
