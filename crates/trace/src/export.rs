//! Exporters: Chrome `trace_event` JSON, collapsed-stack flame format,
//! a plain-text top-N energy table, and a golden-pinnable fingerprint.
//!
//! All exporters are pure functions of the recorded event slice; since the
//! events carry only virtual timestamps, the outputs are byte-identical
//! for a given seed + config.

use crate::{Event, Payload, Phase, CONTROL_TID, COORD_PID, STORE_PID};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Events regrouped per (pid, tid) lane — lanes in numeric order, events
/// within a lane in record order with timestamps clamped monotone (the
/// shard drains sub-buffers whose local clocks may interleave; Chrome's
/// span nesting requires per-tid monotonicity).
fn normalize(events: &[Event]) -> Vec<Event> {
    let mut lanes: BTreeMap<(u32, u64), Vec<Event>> = BTreeMap::new();
    for ev in events {
        lanes.entry((ev.pid, ev.tid)).or_default().push(*ev);
    }
    let mut out = Vec::with_capacity(events.len());
    for (_lane, mut evs) in lanes {
        let mut last = 0u64;
        for ev in &mut evs {
            if ev.ts_ns < last {
                ev.ts_ns = last;
            }
            last = ev.ts_ns;
        }
        out.extend(evs);
    }
    out
}

fn phase_code(ph: Phase) -> &'static str {
    match ph {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    }
}

fn num(out: &mut String, v: f64) {
    if v.is_finite() {
        // f64's Display is the shortest round-trip form — deterministic.
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn args_json(out: &mut String, payload: &Payload) {
    match payload {
        Payload::None => out.push_str("{}"),
        Payload::Energy { mj } => {
            out.push_str("{\"mj\":");
            num(out, *mj);
            out.push('}');
        }
        Payload::Rekey { suite, rekeys, mj } => {
            let _ = write!(out, "{{\"suite\":\"{suite}\",\"rekeys\":{rekeys},\"mj\":");
            num(out, *mj);
            out.push('}');
        }
        Payload::Step {
            suite,
            step,
            retries,
            vms,
            bits,
            mj,
        } => {
            let _ = write!(
                out,
                "{{\"suite\":\"{suite}\",\"step\":{step},\"retries\":{retries},\"bits\":{bits},\"vms\":"
            );
            num(out, *vms);
            out.push_str(",\"mj\":");
            num(out, *mj);
            out.push('}');
        }
        Payload::Round { round } => {
            let _ = write!(out, "{{\"round\":{round}}}");
        }
        Payload::Airtime { bits, uj } => {
            let _ = write!(out, "{{\"bits\":{bits},\"uj\":");
            num(out, *uj);
            out.push('}');
        }
        Payload::Debit { user, uj } => {
            let _ = write!(out, "{{\"user\":{user},\"uj\":");
            num(out, *uj);
            out.push('}');
        }
        Payload::Retry { attempt } => {
            let _ = write!(out, "{{\"attempt\":{attempt}}}");
        }
        Payload::Stall { cause } => {
            let _ = write!(out, "{{\"cause\":\"{}\"}}", cause.label());
        }
        Payload::Lsn { lsn, bytes } => {
            let _ = write!(out, "{{\"lsn\":{lsn},\"bytes\":{bytes}}}");
        }
        Payload::Io { bytes } => {
            let _ = write!(out, "{{\"bytes\":{bytes}}}");
        }
        Payload::Epoch { epoch, groups } => {
            let _ = write!(out, "{{\"epoch\":{epoch},\"groups\":{groups}}}");
        }
        Payload::Plan { suite, steps } => {
            let _ = write!(out, "{{\"suite\":\"{suite}\",\"steps\":{steps}}}");
        }
        Payload::Death { user } => {
            let _ = write!(out, "{{\"user\":{user}}}");
        }
        Payload::Evict {
            group,
            user,
            streak,
        } => {
            let _ = write!(
                out,
                "{{\"group\":{group},\"user\":{user},\"streak\":{streak}}}"
            );
        }
    }
}

fn pid_name(pid: u32) -> String {
    match pid {
        COORD_PID => "coordinator".to_string(),
        STORE_PID => "store".to_string(),
        s => format!("shard {}", s - 1),
    }
}

fn tid_name(tid: u64) -> String {
    if tid == CONTROL_TID {
        "control".to_string()
    } else if tid % 2 == 1 {
        format!("group {}", (tid - 1) / 2)
    } else {
        format!("group {} air", (tid - 2) / 2)
    }
}

/// Serializes events as Chrome `trace_event` JSON (object form), loadable
/// in `chrome://tracing` and Perfetto. One pid per shard (plus the
/// coordinator and the store), one tid per group lane; `M`etadata events
/// name them all. Timestamps are virtual microseconds.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let events = normalize(events);
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    // Metadata: name every lane that appears.
    let mut pids: Vec<u32> = Vec::new();
    let mut lanes: Vec<(u32, u64)> = Vec::new();
    for ev in &events {
        if !pids.contains(&ev.pid) {
            pids.push(ev.pid);
        }
        if !lanes.contains(&(ev.pid, ev.tid)) {
            lanes.push((ev.pid, ev.tid));
        }
    }
    pids.sort_unstable();
    lanes.sort_unstable();
    for pid in &pids {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            pid_name(*pid)
        );
    }
    for (pid, tid) in &lanes {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            tid_name(*tid)
        );
    }

    for ev in &events {
        sep(&mut out, &mut first);
        let us_int = ev.ts_ns / 1_000;
        let us_frac = ev.ts_ns % 1_000;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{us_int}.{us_frac:03},\"pid\":{},\"tid\":{}",
            ev.name,
            phase_code(ev.phase),
            ev.pid,
            ev.tid
        );
        if ev.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":");
        args_json(&mut out, &ev.payload);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Energy attribution frames: one per energy-carrying event, as
/// (`lane;group;suite;leaf`, microjoules).
fn energy_frames(events: &[Event]) -> BTreeMap<String, f64> {
    let mut frames: BTreeMap<String, f64> = BTreeMap::new();
    for ev in events {
        let (stack, uj) = match (&ev.phase, &ev.payload) {
            (Phase::End, Payload::Step { suite, mj, .. }) => (
                format!(
                    "{};{};{};{}",
                    pid_name(ev.pid),
                    tid_name(ev.tid),
                    suite,
                    ev.name
                ),
                mj * 1_000.0,
            ),
            (Phase::End, Payload::Airtime { uj, .. }) => (
                format!("{};{};air;{}", pid_name(ev.pid), tid_name(ev.tid), ev.name),
                *uj,
            ),
            (Phase::Instant, Payload::Debit { uj, .. }) => (
                format!("{};{};air;{}", pid_name(ev.pid), tid_name(ev.tid), ev.name),
                *uj,
            ),
            (Phase::End, Payload::Rekey { suite, mj, .. }) if ev.name == "create" => (
                format!("{};{};{};create", pid_name(ev.pid), tid_name(ev.tid), suite),
                mj * 1_000.0,
            ),
            _ => continue,
        };
        *frames.entry(stack).or_insert(0.0) += uj;
    }
    frames
}

/// Collapsed-stack flame format for energy attribution: one line per
/// distinct `lane;group;suite;step` stack, value in whole microjoules.
/// Feed to any flamegraph renderer that takes `stack count` lines.
pub fn collapsed_energy(events: &[Event]) -> String {
    let mut out = String::new();
    for (stack, uj) in energy_frames(events) {
        let _ = writeln!(out, "{stack} {}", uj.round() as u64);
    }
    out
}

/// A plain-text table of the top-`n` energy stacks, biggest first (name
/// order breaks ties, so the table is deterministic).
pub fn top_table(events: &[Event], n: usize) -> String {
    let mut rows: Vec<(String, f64)> = energy_frames(events).into_iter().collect();
    rows.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut out = String::new();
    let _ = writeln!(out, "{:>12}  stack", "µJ");
    for (stack, uj) in rows.into_iter().take(n) {
        let _ = writeln!(out, "{:>12.1}  {stack}", uj);
    }
    out
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A fingerprint over the event *counts* per (name, phase) plus the lane
/// population — stable across refactors that only reorder equal-content
/// buffers, sensitive to any event appearing or vanishing. The sim's
/// trace golden pins it per seed, and every `churn` preset records it.
pub fn event_fingerprint(events: &[Event]) -> u64 {
    let mut counts: BTreeMap<(&'static str, u8), u64> = BTreeMap::new();
    let mut lanes: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for ev in events {
        let code = match ev.phase {
            Phase::Begin => 0u8,
            Phase::End => 1,
            Phase::Instant => 2,
        };
        *counts.entry((ev.name, code)).or_insert(0) += 1;
        *lanes.entry((ev.pid, ev.tid)).or_insert(0) += 1;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ((name, code), n) in &counts {
        h = fnv(h, name.as_bytes());
        h = fnv(h, &[*code]);
        h = fnv(h, &n.to_le_bytes());
    }
    for ((pid, tid), n) in &lanes {
        h = fnv(h, &pid.to_le_bytes());
        h = fnv(h, &tid.to_le_bytes());
        h = fnv(h, &n.to_le_bytes());
    }
    fnv(h, &(events.len() as u64).to_le_bytes())
}

/// Checks span discipline on the raw buffer: per (pid, tid) lane, every
/// `End` matches the innermost open `Begin` by name, and no span stays
/// open at the end. (Timestamp monotonicity is enforced by `normalize` at
/// export time; this checks what normalization can't fix.)
pub fn validate(events: &[Event]) -> Result<(), String> {
    let mut stacks: BTreeMap<(u32, u64), Vec<&'static str>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let stack = stacks.entry((ev.pid, ev.tid)).or_default();
        match ev.phase {
            Phase::Begin => stack.push(ev.name),
            Phase::End => match stack.pop() {
                Some(open) if open == ev.name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: E \"{}\" closes open span \"{open}\" on lane ({}, {})",
                        ev.name, ev.pid, ev.tid
                    ))
                }
                None => {
                    return Err(format!(
                        "event {i}: E \"{}\" with no open span on lane ({}, {})",
                        ev.name, ev.pid, ev.tid
                    ))
                }
            },
            Phase::Instant => {}
        }
    }
    for ((pid, tid), stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span \"{open}\" left open on lane ({pid}, {tid})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn ev(phase: Phase, ts: u64, pid: u32, tid: u64, name: &'static str) -> Event {
        Event::new(phase, ts, pid, tid, name)
    }

    #[test]
    fn normalize_clamps_per_lane() {
        let raw = vec![
            ev(Phase::Begin, 100, 1, 1, "a"),
            ev(Phase::End, 50, 1, 1, "a"), // regressed clock
            ev(Phase::Instant, 10, 0, 0, "b"),
        ];
        let out = normalize(&raw);
        // Lane (0,0) first, then (1,1) with the End clamped to 100.
        assert_eq!(out[0].pid, 0);
        assert_eq!(out[1].ts_ns, 100);
        assert_eq!(out[2].ts_ns, 100);
    }

    #[test]
    fn chrome_json_shape() {
        let raw = vec![
            ev(Phase::Begin, 1_500, 1, 3, "step.full_rekey").with(Payload::Step {
                suite: "gdh2-c",
                step: 0,
                retries: 0,
                vms: 0.0,
                bits: 0,
                mj: 0.0,
            }),
            ev(Phase::End, 2_500, 1, 3, "step.full_rekey"),
            ev(Phase::Instant, 2_600, 0, 0, "wal.append").with(Payload::Lsn { lsn: 7, bytes: 42 }),
        ];
        let json = chrome_trace_json(&raw);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"ts\":2.600"));
        assert!(json.contains("\"lsn\":7"));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"suite\":\"gdh2-c\""));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn validate_catches_unbalanced() {
        assert!(validate(&[ev(Phase::Begin, 0, 0, 1, "a")]).is_err());
        assert!(validate(&[ev(Phase::End, 0, 0, 1, "a")]).is_err());
        assert!(
            validate(&[ev(Phase::Begin, 0, 0, 1, "a"), ev(Phase::End, 1, 0, 1, "b"),]).is_err()
        );
        assert!(validate(&[
            ev(Phase::Begin, 0, 0, 1, "a"),
            ev(Phase::Begin, 1, 0, 1, "b"),
            ev(Phase::End, 2, 0, 1, "b"),
            ev(Phase::End, 3, 0, 1, "a"),
            ev(Phase::Instant, 4, 0, 2, "c"),
        ])
        .is_ok());
    }

    #[test]
    fn fingerprint_is_order_insensitive_but_count_sensitive() {
        let a = vec![ev(Phase::Begin, 0, 0, 1, "a"), ev(Phase::End, 1, 0, 1, "a")];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(event_fingerprint(&a), event_fingerprint(&b));
        let mut c = a.clone();
        c.push(ev(Phase::Instant, 2, 0, 1, "x"));
        assert_ne!(event_fingerprint(&a), event_fingerprint(&c));
        // Lane moves change it too.
        let mut d = a.clone();
        d[0].tid = 3;
        d[1].tid = 3;
        assert_ne!(event_fingerprint(&a), event_fingerprint(&d));
    }

    #[test]
    fn flame_and_table_aggregate_energy() {
        let raw = vec![
            ev(Phase::End, 10, 1, 3, "step.full_rekey").with(Payload::Step {
                suite: "gdh2-c",
                step: 0,
                retries: 0,
                vms: 1.0,
                bits: 512,
                mj: 0.002,
            }),
            ev(Phase::End, 20, 1, 3, "step.full_rekey").with(Payload::Step {
                suite: "gdh2-c",
                step: 1,
                retries: 0,
                vms: 1.0,
                bits: 512,
                mj: 0.003,
            }),
            ev(Phase::End, 30, 1, 4, "air.tx").with(Payload::Airtime { bits: 64, uj: 1.5 }),
        ];
        let flame = collapsed_energy(&raw);
        assert!(flame.contains("shard 0;group 1;gdh2-c;step.full_rekey 5"));
        assert!(flame.contains("shard 0;group 1 air;air;air.tx 2"));
        let table = top_table(&raw, 1);
        assert!(table.contains("step.full_rekey"));
        assert!(!table.contains("air.tx"), "top-1 keeps only the biggest");
    }
}
