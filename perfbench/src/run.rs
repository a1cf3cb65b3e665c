//! One pass of a workload through `KeyService`'s public API: set-up,
//! the timed closed-loop epochs, a drain, and (durable workload) a
//! snapshot followed by `recover`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use egka_core::{paper_fixture, Pkg, SecurityProfile};
use egka_energy::{comp_energy_mj, CompOp, CpuModel, OpCounts, NUM_OPS};
use egka_hash::ChaChaRng;
use egka_medium::RadioProfile;
use egka_service::{
    FileStore, KeyService, PhaseProfile, RadioConfig, ServiceBuilder, Store, StoreConfig,
    SuitePolicy,
};
use rand::SeedableRng;

use crate::host;
use crate::timed_store::{StoreTimes, TimedStore};
use crate::workload::{EventGen, Params, Spec};

/// Seed of the Toy PKG. The PKG is deployment configuration, not
/// workload input, so every run sets up the same parameters.
const TOY_PKG_SEED: u64 = 0x70_6b_67;

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Upper bound on the epochs a drain ticks before giving up.
const MAX_DRAIN_EPOCHS: usize = 20;

/// How a pass is run.
pub struct PassConfig<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub epochs: u64,
    pub setup_reps: usize,
    /// Time every `create_group` / `submit` call and every store call.
    pub traced: bool,
    /// Scratch directory for the durable store (inside the checkout).
    pub store_dir: PathBuf,
}

/// The service's counters over the timed window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub events_applied: u64,
    pub rekeys: u64,
    pub full_gka_runs: u64,
    pub rekeys_failed: u64,
    pub steps_retried: u64,
    pub energy_mj: f64,
    pub compute_mj: f64,
    pub ops: OpCounts,
    pub tx_bits: u64,
    pub tx_bits_actual: u64,
    pub msgs_tx: u64,
    pub virtual_ms: Vec<f64>,
    pub phases: PhaseProfile,
}

/// What `recover` took and rebuilt.
#[derive(Clone, Debug)]
pub struct Recovery {
    pub wall_s: f64,
    pub read_ms: f64,
    pub epochs_replayed: u64,
    pub fingerprint: u64,
}

/// Everything one pass measured.
pub struct Pass {
    pub setup_s: Vec<f64>,
    /// Wall time of each `create_group` call (traced only), ms.
    pub create_group_ms: Vec<f64>,
    /// Wall time of each `submit` call (traced only), µs.
    pub submit_us: Vec<f64>,
    /// Wall time of each timed `tick()`, ms.
    pub tick_ms: Vec<f64>,
    /// Wall time of the timed window (every epoch's generate + submit +
    /// tick), s.
    pub window_s: f64,
    /// Events committed over the timed window.
    pub events_committed: u64,
    /// Time the generator spent outside service calls, s.
    pub gen_s: f64,
    /// Process CPU time (all threads) over the timed window, s.
    pub cpu_s: f64,
    /// Events the generator emitted in the timed window.
    pub events_generated: u64,
    /// Events still queued when the window began (set-up's drain gave up).
    pub carried_in: u64,
    pub submit_errors: u64,
    /// Rejections over the whole pass (set-up, timed and drain epochs).
    pub events_rejected: u64,
    /// Events applied by the drain epochs after the timed window.
    pub drained: u64,
    /// Events still queued after the drain.
    pub queued_at_end: u64,
    pub window: Window,
    /// Rekeys per shard over the timed window.
    pub shard_rekeys: Vec<u64>,
    pub groups_live: usize,
    pub groups_keyless: usize,
    pub membership_mismatches: usize,
    pub fingerprint: u64,
    pub recovery: Option<Recovery>,
    /// Store calls over the timed window (traced durable pass only).
    pub store: Option<StoreTimes>,
}

impl Pass {
    /// Events the window had to commit: the ones it generated plus any
    /// carried in from set-up.
    pub fn attempted(&self) -> u64 {
        self.events_generated + self.carried_in
    }

    /// Events that failed: `submit` errors, rejections, and events still
    /// queued after the drain.
    pub fn failed(&self) -> u64 {
        self.submit_errors + self.events_rejected + self.queued_at_end
    }
}

/// The parameters a workload's service runs on.
pub fn pkg(params: Params) -> Pkg {
    match params {
        Params::Toy => {
            let mut rng = ChaChaRng::seed_from_u64(TOY_PKG_SEED);
            Pkg::setup(&mut rng, SecurityProfile::Toy)
        }
        Params::Paper => paper_fixture(),
    }
}

fn builder(spec: &Spec, seed: u64, store: Option<Arc<dyn Store>>) -> ServiceBuilder {
    let mut b = KeyService::builder()
        .seed(seed ^ 0x5e_72_76)
        .suite_policy(SuitePolicy::Fixed(spec.suite));
    if let Some(loss) = spec.radio_loss {
        b = b
            .radio(RadioConfig::new(RadioProfile::sensor_100kbps()))
            .loss(loss);
    }
    if let (Some(store), Some(every)) = (store, spec.snapshot_every) {
        b = b.store(StoreConfig::new(store).snapshot_every(every));
    }
    b
}

/// XOR-fold of every live group's key, in group order — equal seeds must
/// give equal fingerprints.
pub fn fingerprint(svc: &KeyService) -> u64 {
    svc.group_ids()
        .iter()
        .filter_map(|&g| svc.group_key(g))
        .map(|k| {
            k.to_bytes_be()
                .iter()
                .fold(0u64, |acc, &b| acc.rotate_left(8) ^ u64::from(b))
        })
        .fold(0u64, |acc, h| acc.rotate_left(1) ^ h)
}

fn open_store(dir: &Path, traced: bool) -> (Arc<dyn Store>, Option<Arc<TimedStore<FileStore>>>) {
    let file = FileStore::open(dir).expect("open the benchmark's store directory");
    if traced {
        let timed = Arc::new(TimedStore::new(file));
        (Arc::clone(&timed) as Arc<dyn Store>, Some(timed))
    } else {
        (Arc::new(file), None)
    }
}

fn pending(svc: &KeyService) -> u64 {
    svc.shard_stats().iter().map(|s| s.pending_events).sum()
}

/// Ticks without new events until nothing is queued (at most
/// [`MAX_DRAIN_EPOCHS`]), so a group timed out by loss commits its
/// requeued events. Returns the events applied and rejected.
fn drain(svc: &mut KeyService) -> (u64, u64) {
    let (mut applied, mut rejected) = (0, 0);
    for _ in 0..MAX_DRAIN_EPOCHS {
        if pending(svc) == 0 {
            break;
        }
        let report = svc.tick();
        applied += report.events_applied + report.events_cancelled;
        rejected += report.events_rejected;
    }
    (applied, rejected)
}

/// Runs one pass.
pub fn run(cfg: &PassConfig<'_>) -> Pass {
    let spec = cfg.spec;
    let durable = spec.snapshot_every.is_some();
    let mut setup_s = Vec::with_capacity(cfg.setup_reps);
    let mut create_group_ms = Vec::new();
    let mut submit_us = Vec::new();
    let mut events_generated = 0u64;
    let mut submit_errors = 0u64;
    let mut events_rejected = 0u64;

    // Set-up, repeated; the last repetition's service runs the window.
    let mut state = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(state.take()); // the previous repetition goes before the next is built
        if durable {
            let _ = std::fs::remove_dir_all(&cfg.store_dir);
        }
        let started = Instant::now();
        let pkg = Arc::new(pkg(spec.params));
        let (store, timed) = if durable {
            let (s, t) = open_store(&cfg.store_dir, cfg.traced);
            (Some(s), t)
        } else {
            (None, None)
        };
        let mut svc = builder(spec, cfg.seed, store).build(Arc::clone(&pkg));
        let mut gen = EventGen::new(spec, cfg.seed);
        create_group_ms.clear();
        for (g, members) in gen.memberships() {
            let t = Instant::now();
            svc.create_group(g, members)
                .expect("founding a group with a fresh, valid membership");
            if cfg.traced {
                create_group_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        for _ in 0..spec.warmup_epochs {
            for (g, ev) in gen.next_epoch() {
                submit_errors += u64::from(svc.submit(g, ev).is_err());
            }
            events_rejected += svc.tick().events_rejected;
        }
        // The window starts with nothing queued from the warm-up.
        events_rejected += drain(&mut svc).1;
        setup_s.push(started.elapsed().as_secs_f64());
        state = Some((pkg, svc, gen, timed));
    }
    let (pkg, mut svc, mut gen, timed) = state.expect("at least one set-up repetition");
    let carried_in = pending(&svc);
    if let Some(t) = &timed {
        t.take();
    }

    let shards_before: Vec<u64> = svc
        .shard_stats()
        .iter()
        .map(|s| s.rekeys_executed)
        .collect();
    let phases_before = *svc.phase_profile();
    let mut window = Window {
        ops: OpCounts::new(),
        ..Window::default()
    };
    let mut tick_ms = Vec::with_capacity(cfg.epochs as usize);
    let mut window_s = 0.0;
    let mut events_committed = 0;
    let mut gen_s = 0.0;
    let cpu_start = host::cpu_seconds();
    for _ in 0..cfg.epochs {
        let epoch_start = Instant::now();
        let events = gen.next_epoch();
        gen_s += epoch_start.elapsed().as_secs_f64();
        events_generated += events.len() as u64;
        for (g, ev) in events {
            if cfg.traced {
                let t = Instant::now();
                let r = svc.submit(g, ev);
                submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                submit_errors += u64::from(r.is_err());
            } else {
                submit_errors += u64::from(svc.submit(g, ev).is_err());
            }
        }
        let tick_start = Instant::now();
        let report = svc.tick();
        let now = Instant::now();
        tick_ms.push((now - tick_start).as_secs_f64() * 1e3);
        window_s += (now - epoch_start).as_secs_f64();
        // A join and a leave of the same pending user cancel: both are
        // committed, neither needs a rekey.
        events_committed += report.events_applied + report.events_cancelled;
        events_rejected += report.events_rejected;
        window.events_applied += report.events_applied;
        window.rekeys += report.rekeys_executed;
        window.full_gka_runs += report.full_gka_runs;
        window.rekeys_failed += report.rekeys_failed;
        window.steps_retried += report.steps_retried;
        window.energy_mj += report.energy_mj;
        window.compute_mj += comp_energy_mj(&CpuModel::strongarm_133(), &report.ops);
        window.ops.merge(&report.ops);
        window.tx_bits += report.traffic.tx_bits;
        window.tx_bits_actual += report.traffic.tx_bits_actual;
        window.msgs_tx += report.traffic.msgs_tx;
        window
            .virtual_ms
            .extend_from_slice(&report.rekey_latencies_virtual_ms);
    }
    let cpu_s = host::cpu_seconds() - cpu_start;
    let store = timed.as_ref().map(|t| t.take());
    window.phases = phase_delta(svc.phase_profile(), &phases_before);
    let shard_rekeys = svc
        .shard_stats()
        .iter()
        .zip(shards_before.iter().chain(std::iter::repeat(&0)))
        .map(|(s, before)| s.rekeys_executed - before)
        .collect();

    let (drained, rejected) = drain(&mut svc);
    events_rejected += rejected;
    let queued_at_end = pending(&svc);

    let mut groups_keyless = 0;
    let mut membership_mismatches = 0;
    for (g, members) in gen.memberships() {
        if svc.group_key(g).is_none() {
            groups_keyless += 1;
        }
        let mut want = members.to_vec();
        want.sort();
        let mut have = svc.session(g).map(|s| s.member_ids()).unwrap_or_default();
        have.sort();
        membership_mismatches += usize::from(want != have);
    }
    let groups_live = svc.groups_active();
    let fp = fingerprint(&svc);

    let recovery = durable.then(|| {
        svc.snapshot_now();
        drop(svc); // the controller goes away; only the directory remains
        let started = Instant::now();
        let (store, timed) = open_store(&cfg.store_dir, cfg.traced);
        let (restored, report) = builder(spec, cfg.seed, Some(store))
            .recover(Arc::clone(&pkg))
            .expect("recover the service from the run's own store");
        let wall_s = started.elapsed().as_secs_f64();
        Recovery {
            wall_s,
            read_ms: timed.map_or(0.0, |t| t.take().read_ms),
            epochs_replayed: report.epochs_replayed,
            fingerprint: fingerprint(&restored),
        }
    });
    if durable {
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    Pass {
        setup_s,
        create_group_ms,
        submit_us,
        tick_ms,
        window_s,
        events_committed,
        gen_s,
        cpu_s,
        events_generated,
        carried_in,
        submit_errors,
        events_rejected,
        drained,
        queued_at_end,
        window,
        shard_rekeys,
        groups_live,
        groups_keyless,
        membership_mismatches,
        fingerprint: fp,
        recovery,
        store,
    }
}

fn phase_delta(after: &PhaseProfile, before: &PhaseProfile) -> PhaseProfile {
    let mut d = *after;
    for (bucket, b) in [
        (&mut d.plan, &before.plan),
        (&mut d.execute, &before.execute),
        (&mut d.commit, &before.commit),
        (&mut d.snapshot, &before.snapshot),
    ] {
        bucket.wall -= b.wall;
        bucket.virtual_ms -= b.virtual_ms;
    }
    d
}

/// Every op class the window recorded, with its count.
pub fn op_classes(w: &Window) -> Vec<(CompOp, u64)> {
    (0..NUM_OPS)
        .filter_map(CompOp::from_index)
        .map(|op| (op, w.ops.get(op)))
        .filter(|&(_, c)| c > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use egka_core::suite::SuiteId;

    use super::*;
    use crate::workload::Churn;

    fn lossy(loss: f64) -> Spec {
        Spec {
            name: "lossy_test",
            params: Params::Toy,
            suite: SuiteId::Proposed,
            groups: 6,
            min_size: 4,
            size_span: 1,
            churn: Churn {
                per_epoch: 6,
                hot_groups: 0,
                hot_share: 0.0,
                replace: false,
            },
            radio_loss: Some(loss),
            snapshot_every: None,
            warmup_epochs: 1,
            epochs_per_second: 1.0,
        }
    }

    fn pass(spec: &Spec) -> Pass {
        run(&PassConfig {
            spec,
            seed: 3,
            epochs: 4,
            setup_reps: 1,
            traced: false,
            store_dir: PathBuf::from("unused"),
        })
    }

    #[test]
    fn every_generated_event_is_committed_drained_or_failed() {
        for loss in [0.05, 0.3, 0.9] {
            let p = pass(&lossy(loss));
            assert_eq!(p.events_generated, 24);
            assert_eq!(
                p.events_committed + p.drained + p.failed(),
                p.attempted(),
                "loss {loss}"
            );
            assert_eq!(
                p.failed(),
                p.submit_errors + p.events_rejected + p.queued_at_end
            );
            if loss == 0.9 {
                // Nothing gets through: every event is still queued.
                assert_eq!(p.events_committed + p.drained, 0);
                assert!(p.carried_in > 0, "the warm-up's events never commit either");
                assert_eq!(p.failed(), p.attempted());
            }
        }
    }
}
